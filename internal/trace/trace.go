// Package trace models web-proxy request traces and provides seeded
// synthetic generators calibrated to the three workloads the paper studies
// (Table 4): Digital Equipment Corporation's proxy trace, UC Berkeley's
// Home-IP service trace, and Prodigy ISP's dial-up trace.
//
// The original traces are proprietary and far too large for a laptop-scale
// reproduction (4.2-22.1 million requests), so the generators reproduce the
// statistical structure the simulation results depend on: the ratio of
// distinct URLs to requests (which sets the compulsory-miss rate), a
// Zipf-like popularity skew (which sets how hit rate grows with sharing),
// heavy-tailed object sizes around a 10 KB mean, a per-object modification
// process (communication misses), and per-workload uncachable and error
// fractions. Every generator is deterministic given its seed.
package trace

import (
	"io"
	"strconv"
	"time"
)

// errEOF is the sentinel returned by readers when the trace is exhausted.
var errEOF = io.EOF

// Request is a single entry in a proxy trace: one client asking for one
// object at one instant of virtual time.
type Request struct {
	// Seq is the zero-based position of the request in the trace.
	Seq int64

	// Time is the virtual time of the request measured from trace start.
	Time time.Duration

	// Client identifies the requesting client. Clients are dense integers
	// in [0, Profile.Clients).
	Client int

	// Object identifies the requested object. Objects are dense integers
	// in [0, Profile.DistinctURLs), ordered by popularity rank (object 0
	// is the most popular).
	Object uint64

	// Size is the object's transfer size in bytes.
	Size int64

	// Version is the object's version at request time. A version change
	// between two accesses means the object was modified in between, so a
	// cached copy of the older version must be treated as a
	// communication miss.
	Version int64

	// Uncachable marks requests the cache must forward to the origin
	// server (CGI, non-GET, cache-control: no-cache, ...).
	Uncachable bool

	// Error marks requests whose reply is an error and therefore not
	// cachable.
	Error bool
}

// URL renders the canonical URL for the request's object. Object IDs are
// spread over a population of synthetic servers so that URL hashing (MD5 in
// the hint protocol) sees realistic host diversity.
func (r Request) URL() string {
	return ObjectURL(r.Object)
}

// ObjectURL renders the canonical URL for an object ID.
func ObjectURL(object uint64) string {
	// ~1 server per 64 objects mirrors the many-servers shape of real
	// traces without tracking server state.
	server := object / 64
	// fmt.Sprintf("http://server-%d.example.com/obj/%d", server, object),
	// built in one buffer: every URL of a generated schedule comes from here.
	var buf [len("http://server-.example.com/obj/") + 2*20]byte
	b := append(buf[:0], "http://server-"...)
	b = strconv.AppendUint(b, server, 10)
	b = append(b, ".example.com/obj/"...)
	b = strconv.AppendUint(b, object, 10)
	return string(b)
}

// Cachable reports whether a cache may store the reply to this request.
func (r Request) Cachable() bool {
	return !r.Uncachable && !r.Error
}

// Reader is a stream of trace requests. Next returns io.EOF after the last
// request.
type Reader interface {
	Next() (Request, error)
}

// SliceReader adapts an in-memory request slice to the Reader interface.
type SliceReader struct {
	reqs []Request
	pos  int
}

// NewSliceReader returns a Reader over reqs. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader(reqs []Request) *SliceReader {
	return &SliceReader{reqs: reqs}
}

// Next returns the next request or io.EOF.
func (s *SliceReader) Next() (Request, error) {
	if s.pos >= len(s.reqs) {
		return Request{}, errEOF
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the start of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// ReadAll drains a Reader into a slice.
func ReadAll(r Reader) ([]Request, error) {
	var out []Request
	for {
		req, err := r.Next()
		if err != nil {
			if err == errEOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, req)
	}
}
