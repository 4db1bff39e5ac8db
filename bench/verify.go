package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
)

// Response headers of /fetch (internal/cluster keeps the names private).
const (
	headerCache   = "X-Cache"
	headerVersion = "X-Object-Version"
	headerTrace   = "X-Trace"
)

// verifier checks one client's responses. A fetch is wrong when the status
// is not 200, the body is not the configured size, the body is not the
// origin's deterministic "url#version|" pattern for the version the response
// declares, or that version is lower than one this client already saw or
// wrote for the object. The last holds because one client owns every
// operation on its objects (see generator).
type verifier struct {
	size int
	urls []string
	// seen is the highest version seen or written per object ID.
	seen    []int64
	pattern []byte
}

func newVerifier(urls []string, size int64) *verifier {
	return &verifier{size: int(size), urls: urls, seen: make([]int64, len(urls))}
}

// wrote records a version this client produced with Origin.Bump.
func (v *verifier) wrote(obj uint64, version int64) {
	if version > v.seen[obj] {
		v.seen[obj] = version
	}
}

// check returns nil for a correct response and a description of the first
// violation otherwise.
func (v *verifier) check(obj uint64, status int, hdr http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if len(body) != v.size {
		return fmt.Errorf("body %d bytes, want %d", len(body), v.size)
	}
	var vs string
	if h := hdr[headerVersion]; len(h) > 0 {
		vs = h[0]
	}
	version, err := strconv.ParseInt(vs, 10, 64)
	if err != nil || version < 1 {
		return fmt.Errorf("bad %s %q", headerVersion, vs)
	}
	if at := v.mismatch(obj, vs, body); at >= 0 {
		return fmt.Errorf("body differs from the origin pattern of version %d at byte %d", version, at)
	}
	if version < v.seen[obj] {
		return fmt.Errorf("version %d after version %d", version, v.seen[obj])
	}
	v.seen[obj] = version
	return nil
}

// mismatch compares body with the origin's body for (object, version) — the
// pattern repeated and cut at the body's length — and returns the offset of
// the first differing pattern block, or -1. The pattern is laid out once
// into a scratch block of whole repetitions so the comparison is a few
// memcmps, not a byte loop: at 64 KiB the check must stay small beside the
// fetch it follows.
func (v *verifier) mismatch(obj uint64, version string, body []byte) int {
	p := v.pattern[:0]
	p = append(p, v.urls[obj]...)
	p = append(p, '#')
	p = append(p, version...)
	p = append(p, '|')
	one := len(p)
	for len(p) < 4096 && len(p) < len(body) {
		p = append(p, p[:one]...)
	}
	v.pattern = p
	for off := 0; off < len(body); off += len(p) {
		chunk := body[off:]
		if len(chunk) > len(p) {
			chunk = chunk[:len(p)]
		}
		if !bytes.Equal(chunk, p[:len(chunk)]) {
			return off
		}
	}
	return -1
}
