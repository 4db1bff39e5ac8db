package cluster

// The fast paths for an HTTP head: recognisers, not parsers. The front
// door's (DESIGN.md §16) says yes to the plainest GET or bodiless POST, whole
// in the bytes already read, and fills the connection's one reused request
// exactly as http.ReadRequest would have; the HTTP links' (DESIGN.md §15)
// says yes to the plainest 200, 204 or 404 answer, and reads what the link's
// callers use of it as http.ReadResponse would have. Each declines
// everything else untouched, so no input is parsed here that net/http does
// not parse the same way (FuzzDoorPlainHead, FuzzOriginPlainAnswer).

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"strings"
)

const (
	plainLineEnd = " HTTP/1.1\r\n"
	// What url.ParseRequestURI leaves as it is in a path, beside letters and
	// digits (no %: nothing is unescaped), and a header name's token bytes.
	plainPathBytes = "/-_.~$&+,:;=@"
	plainNameBytes = "-!#$%&'*+.^_`|~"
)

func plainByte(c byte, others string) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte(others, c) >= 0
}

// plainHead is a connection's reused request and what it was last filled from.
type plainHead struct {
	// base is what every recognised request starts as: the constant fields,
	// the door's context, and the Header and Host built from block.
	base, req http.Request
	url       url.URL
	// block is the header block, blank line included, that base.Header was
	// built from; empty when there is none. The next head with the same bytes
	// behind its request line is known good, and takes the map as it is.
	block []byte
}

func (h *plainHead) init(ctx context.Context) {
	h.base = *(&http.Request{Method: http.MethodGet, URL: &h.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody}).WithContext(ctx)
}

// read fills h.req from the head b starts with and returns that head's
// length, if the head is plain: complete in b, "GET /path[?query] HTTP/1.1"
// (or POST) over bytes no URL parser rewrites, then CRLF-ended "Name: value"
// lines with no continuation, no repeated name, one non-empty Host, and no
// name that frames a body, ends the connection or changes another header's
// meaning — so a POST, like a GET, has no body (RFC 9112 §6.3). Otherwise it
// returns 0 and b is http.ReadRequest's, none of it consumed.
func (h *plainHead) read(b []byte) int {
	var method string
	switch {
	case bytes.HasPrefix(b, []byte("GET /")):
		method = http.MethodGet
	case bytes.HasPrefix(b, []byte("POST /")):
		method = http.MethodPost
	default:
		return 0
	}
	eol := bytes.Index(b, []byte(plainLineEnd))
	if eol < 0 {
		return 0
	}
	target := b[len(method)+1 : eol]
	path, _, _ := bytes.Cut(target, []byte("?"))
	for i, c := range path {
		if !plainByte(c, plainPathBytes) || c == '/' && i > 0 && path[i-1] == '/' {
			return 0
		}
	}
	for _, c := range target[len(path):] {
		if c <= ' ' || c >= 0x7f || c == '#' {
			return 0
		}
	}
	rest := b[eol+len(plainLineEnd):]
	if (len(h.block) == 0 || !bytes.HasPrefix(rest, h.block)) && !h.readBlock(rest) {
		return 0
	}
	uri := string(target)
	h.req = h.base
	h.req.Method, h.req.RequestURI = method, uri
	h.url = url.URL{Path: uri[:len(path)]}
	if len(path) < len(uri) {
		h.url.RawQuery = uri[len(path)+1:]
		h.url.ForceQuery = h.url.RawQuery == ""
	}
	return eol + len(plainLineEnd) + len(h.block)
}

// readBlock rebuilds base.Header, base.Host and block from the header block p
// starts with, if that block is plain; if not, block is left empty.
func (h *plainHead) readBlock(p []byte) bool {
	hdr := h.base.Header
	clear(hdr)
	h.block, h.base.Host = h.block[:0], ""
	for at := 0; ; {
		end := bytes.IndexByte(p[at:], '\r')
		if end < 0 || at+end+1 >= len(p) || p[at+end+1] != '\n' {
			return false // not all here yet, or a bare CR
		}
		line := p[at : at+end]
		at += end + 2
		if len(line) == 0 && h.base.Host != "" {
			h.block = append(h.block, p[:at]...)
			return true
		}
		name, value, colon := bytes.Cut(line, []byte(":"))
		for _, c := range name {
			if !plainByte(c, plainNameBytes) {
				return false
			}
		}
		for _, c := range value {
			if c < ' ' || c >= 0x7f {
				return false
			}
		}
		key, val := http.CanonicalHeaderKey(string(name)), string(bytes.Trim(value, " "))
		switch key {
		case "", "Connection", "Content-Length", "Transfer-Encoding", "Expect", "Upgrade", "Trailer", "Te",
			"Keep-Alive", "Proxy-Connection", "Pragma":
			return false
		case "Host": // the request's, not its header's, as http.ReadRequest has it
			if h.base.Host != "" || val == "" {
				return false
			}
			h.base.Host = val
			continue
		}
		if _, repeated := hdr[key]; repeated || !colon {
			return false
		}
		hdr[key] = []string{val}
	}
}

// plainStatus holds the status lines readPlainAnswer knows, by code.
var plainStatus = []struct {
	code int
	line string
}{
	{http.StatusOK, "HTTP/1.1 200 OK\r\n"},
	{http.StatusNoContent, "HTTP/1.1 204 No Content\r\n"},
	{http.StatusNotFound, "HTTP/1.1 404 Not Found\r\n"},
}

// plainAnswerNames are the header names a plain answer may carry, each at
// most once, as net/http canonicalises them: an origin's object answer's, a
// node's bodiless 204 and its http.Error 404.
var plainAnswerNames = [...]string{"Content-Length", headerVersion, headerTraceHop, "Content-Type", "X-Content-Type-Options", "Date"}

// readPlainAnswer returns the answer b starts with and that head's length,
// if the head is plain: complete in b, a status line of plainStatus, then
// CRLF-ended "Name: value" lines, each name one of plainAnswerNames written
// as listed and at most once, each value printable ASCII with no white space
// at either end; a 200 or 404 declares its length in at most 18 digits, a
// 204 declares none. So it asks for nothing to be closed, frames no body in
// chunks and folds no line (RFC 9112 §6.3). Otherwise it returns 0 and b is
// http.ReadResponse's, none of it consumed. The body is the caller's to set.
func readPlainAnswer(b []byte) (a answer, n int) {
	for _, s := range plainStatus {
		if len(b) >= len(s.line) && string(b[:len(s.line)]) == s.line {
			a.status, n = s.code, len(s.line)
			break
		}
	}
	if n == 0 {
		return answer{}, 0
	}
	a.length = -1
	var seen uint
	for {
		end := bytes.IndexByte(b[n:], '\n')
		if end < 1 || b[n+end-1] != '\r' {
			return answer{}, 0 // not all here yet, or a bare LF
		}
		line := b[n : n+end-1]
		n += end + 1
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(": "))
		which := -1
		for i, known := range plainAnswerNames {
			if string(name) == known {
				which = i
				break
			}
		}
		if which < 0 || seen&(1<<which) != 0 || len(value) == 0 || value[0] == ' ' || value[len(value)-1] == ' ' {
			return answer{}, 0
		}
		seen |= 1 << which
		for _, c := range value {
			if c < ' ' || c >= 0x7f {
				return answer{}, 0
			}
		}
		switch plainAnswerNames[which] {
		case "Content-Length":
			if len(value) > 18 {
				return answer{}, 0
			}
			a.length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return answer{}, 0
				}
				a.length = a.length*10 + int64(c-'0')
			}
		case headerVersion:
			a.version = string(value)
		case headerTraceHop:
			a.hop = string(value)
		}
	}
	if (a.status == http.StatusNoContent) != (a.length < 0) {
		return answer{}, 0
	}
	if a.length < 0 {
		a.length = 0
	}
	return a, n
}
