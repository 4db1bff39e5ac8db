package cluster

// The origin link (DESIGN.md §15): the one upstream that is not a peer, and
// so the one still spoken to in HTTP/1.1 — but by the goroutine that wants
// the object, over a keep-alive connection it holds for that one exchange,
// not through http.Transport's pool and per-connection read and write loops.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	neturl "net/url"
	"sync"
	"time"
)

const (
	// originIdleConns bounds the idle set: enough that concurrent misses do
	// not redial the origin, few enough to be no burden on it.
	originIdleConns = 32
	// originHeaderLimit bounds what one answer's status line and header may
	// read off the connection (a 4 KiB read-ahead of the body included).
	originHeaderLimit = 64 << 10
)

var errOriginHeader = errors.New("response header over 64 KiB")

// originLink holds the idle keep-alive connections to the origin. A fetch
// leases one — nothing else touches it meanwhile — and hands it back only
// at the end of an answer it read whole.
type originLink struct {
	// host is OriginURL's authority: the Host header, and the target the
	// outbound fault rules match. addr is where to dial it; path is the
	// request path up to the escaped object URL.
	host, addr, path string

	mu     sync.Mutex
	idle   []*originConn // most recently used last
	closed bool
}

// originConn is one connection to the origin, leased or idle.
type originConn struct {
	c net.Conn
	// lr meters what br reads off c while a header is being parsed.
	lr  io.LimitedReader
	br  *bufio.Reader
	req []byte // request scratch
	// cut is the hook a fetch arms on its context: it fails the read or
	// write in progress by moving the deadline into the past.
	cut    func()
	reused bool
}

// newOriginLink parses a node's OriginURL. The link is plain TCP, as the
// peer plane is, so the scheme must be http; a path prefix is kept.
func newOriginLink(originURL string) (*originLink, error) {
	u, err := neturl.Parse(originURL)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("OriginURL %q: want http://host[:port][/prefix]", originURL)
	}
	l := &originLink{host: u.Host, addr: u.Host, path: u.EscapedPath() + "/obj?url="}
	if u.Port() == "" {
		l.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return l, nil
}

// lease takes the most recently used idle connection, or dials one (always,
// if fresh) under the caller's deadline.
func (l *originLink) lease(ctx context.Context, fresh bool) (*originConn, error) {
	if !fresh {
		l.mu.Lock()
		if n := len(l.idle); n > 0 {
			oc := l.idle[n-1]
			l.idle = l.idle[:n-1]
			l.mu.Unlock()
			oc.reused = true
			return oc, nil
		}
		l.mu.Unlock()
	}
	c, err := (&net.Dialer{Timeout: peerDialTimeout, KeepAlive: 30 * time.Second}).DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, err
	}
	oc := &originConn{c: c, cut: func() { c.SetDeadline(longAgo) }}
	oc.lr.R = c
	// Small, like the peer plane's: a body is read past it, into its slice.
	oc.br = bufio.NewReaderSize(&oc.lr, 4<<10)
	return oc, nil
}

// release returns a connection to the idle set, or closes it if the set is
// full or the link closed.
func (l *originLink) release(oc *originConn) {
	l.mu.Lock()
	if !l.closed && len(l.idle) < originIdleConns {
		l.idle = append(l.idle, oc)
		oc = nil
	}
	l.mu.Unlock()
	if oc != nil {
		oc.c.Close()
	}
}

// close closes the idle connections; one out on lease is closed when its
// fetch hands it back.
func (l *originLink) close() {
	l.mu.Lock()
	idle := l.idle
	l.idle, l.closed = nil, true
	l.mu.Unlock()
	for _, oc := range idle {
		oc.c.Close()
	}
}

// get fetches url's object on the calling goroutine, returning with it the
// origin's self-timed hop segment. It returns promptly once ctx ends.
func (l *originLink) get(ctx context.Context, url string) (int64, []byte, string, error) {
	for fresh := false; ; fresh = true {
		oc, err := l.lease(ctx, fresh)
		if err != nil {
			return 0, nil, "", err
		}
		version, body, hop, err := l.exchange(ctx, oc, url)
		if err != nil && ctx.Err() != nil {
			return 0, nil, "", ctx.Err() // not the cut deadline's "i/o timeout"
		}
		// A connection the origin closed while it sat idle (its IdleTimeout,
		// a restart) is found out by the first fetch to use it: nothing of an
		// answer arrives. The GET is idempotent, so — as Node.call does — it
		// is tried once more, on a fresh connection, if its deadline allows.
		if err == nil || !oc.reused || oc.lr.N != originHeaderLimit {
			return version, body, hop, err
		}
	}
}

// exchange writes one GET on a leased connection and reads its answer. The
// connection goes back to the idle set only if the answer was read to its
// end, the origin did not ask to close and the cancel hook has not fired
// (its deadline may yet be cut); otherwise it is closed.
func (l *originLink) exchange(ctx context.Context, oc *originConn, url string) (version int64, body []byte, hop string, err error) {
	stop := context.AfterFunc(ctx, oc.cut)
	keep := false
	defer func() {
		if stop() && keep {
			l.release(oc)
		} else {
			oc.c.Close()
		}
	}()
	oc.req = append(oc.req[:0], "GET "...)
	oc.req = append(oc.req, l.path...)
	oc.req = append(oc.req, neturl.QueryEscape(url)...)
	oc.req = append(oc.req, " HTTP/1.1\r\nHost: "...)
	oc.req = append(oc.req, l.host...)
	oc.req = append(oc.req, "\r\n\r\n"...)
	oc.lr.N = originHeaderLimit
	if _, err = oc.c.Write(oc.req); err != nil {
		return 0, nil, "", err
	}
	resp, err := http.ReadResponse(oc.br, nil)
	if err != nil {
		if oc.lr.N <= 0 {
			err = errOriginHeader
		}
		return 0, nil, "", err
	}
	oc.lr.N = math.MaxInt64
	if resp.StatusCode != http.StatusOK {
		// An error page is not an object: a token amount is read for the
		// connection's sake, and a longer page costs the connection.
		_, derr := io.CopyN(io.Discard, resp.Body, 4<<10)
		keep = derr == io.EOF && !resp.Close
		return 0, nil, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	version, body, err = readObject(resp)
	keep = err == nil && !resp.Close && oc.br.Buffered() == 0
	return version, body, resp.Header.Get(headerTraceHop), err
}
