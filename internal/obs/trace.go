package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Request tracing: every /fetch response carries an X-Request-Id and an
// X-Trace header whose value is a chain of hop segments. A segment is
//
//	<node>;<outcome>;<elapsed-µs>us
//
// and segments are joined with "|" (outcomes themselves contain commas,
// e.g. "LOCAL,COALESCED", so comma cannot be the separator). The chain is
// ordered cause-before-effect: upstream hops (origin, peer) first, the
// serving node's terminal segment last, so the terminal hop's outcome
// always equals the response's X-Cache value. Intermediate servers hand
// their own segment to the caller in an X-Trace-Hop response header.

// Hop is one annotated step of a request's path through the fleet.
type Hop struct {
	// Node labels who did the work ("node-1", "origin", a host:port).
	Node string
	// Outcome is what happened there: LOCAL, REMOTE, MISS, PEER,
	// PEER-SERVE, PEER-REJECT, ORIGIN, "LOCAL,COALESCED", ...
	Outcome string
	// Elapsed is the hop's duration as measured by whoever reported it.
	Elapsed time.Duration
}

// appendSegment appends the hop's header segment to b.
func (h Hop) appendSegment(b []byte) []byte {
	b = append(b, h.Node...)
	b = append(b, ';')
	b = append(b, h.Outcome...)
	b = append(b, ';')
	b = strconv.AppendInt(b, h.Elapsed.Microseconds(), 10)
	b = append(b, "us"...)
	return b
}

// Segment renders the hop as one X-Trace segment.
func (h Hop) Segment() string { return string(h.appendSegment(nil)) }

// AppendChain appends upstream hops plus a terminal hop to b as one X-Trace
// value, without materializing the combined slice: the front door appends
// it straight into a /fetch answer's head.
func AppendChain(b []byte, upstream []Hop, term Hop) []byte {
	for _, h := range upstream {
		b = h.appendSegment(b)
		b = append(b, '|')
	}
	return term.appendSegment(b)
}

// FormatChain is AppendChain as a string, built through a stack scratch
// buffer: a chain that fits it allocates only the string.
func FormatChain(upstream []Hop, term Hop) string {
	var scratch [256]byte
	return string(AppendChain(scratch[:0], upstream, term))
}

// ParseSegment parses one hop segment; ok is false on malformed input.
func ParseSegment(s string) (Hop, bool) {
	node, rest, ok := strings.Cut(s, ";")
	if !ok {
		return Hop{}, false
	}
	outcome, dur, ok := strings.Cut(rest, ";")
	if !ok || node == "" || outcome == "" {
		return Hop{}, false
	}
	us, err := strconv.ParseInt(strings.TrimSuffix(dur, "us"), 10, 64)
	if err != nil || us < 0 {
		return Hop{}, false
	}
	return Hop{Node: node, Outcome: outcome, Elapsed: time.Duration(us) * time.Microsecond}, true
}

// ParseHops parses an X-Trace header value. Malformed segments are dropped.
func ParseHops(v string) []Hop {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, "|")
	hops := make([]Hop, 0, len(parts))
	for _, p := range parts {
		if h, ok := ParseSegment(p); ok {
			hops = append(hops, h)
		}
	}
	return hops
}

// Sampler decides deterministically which requests get their span group
// recorded: a rate of r keeps roughly every 1/r-th request (exactly every
// k-th, k = round(1/r)), spreading samples evenly instead of in random
// bursts and costing one atomic add per request.
type Sampler struct {
	every int64 // 0 means never
	ctr   atomic.Int64
}

// NewSampler builds a sampler for the given rate: rate >= 1 samples every
// request, rate <= 0 samples none, anything between samples every
// round(1/rate)-th request.
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate >= 1:
		s.every = 1
	case rate <= 0:
		s.every = 0
	default:
		s.every = int64(1/rate + 0.5)
		if s.every < 1 {
			s.every = 1
		}
	}
	return s
}

// Sample reports whether this request should be recorded.
func (s *Sampler) Sample() bool {
	if s.every == 0 {
		return false
	}
	if s.every == 1 {
		return true
	}
	return s.ctr.Add(1)%s.every == 1
}
