package cluster

// Upstream links (DESIGN.md §15): how a node reaches the origin and each of
// its peers. A call leases a keep-alive connection — nothing else touches it
// meanwhile — does its one exchange on the calling goroutine, not through
// http.Transport's pool and per-connection read and write loops, and hands
// the connection back only at the end of an answer it read whole. The origin
// is spoken to in HTTP/1.1 (below), a peer in frames (peer.go), and a Fleet
// reaches its nodes in HTTP/1.1 too (fleet.go); the lease, the idle set and
// the retry are the same code.

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
	"strconv"
	"sync"
	"time"

	"beyondcache/internal/obs"
)

const (
	// idleConns bounds each upstream's idle set: enough that concurrent calls
	// do not redial it, few enough to be no burden on it.
	idleConns = 32
	// headLimit bounds what the head of one answer — the origin's status line
	// and header, a peer's 101 or frame header — may read off the connection
	// (a 4 KiB read-ahead of the body included).
	headLimit = 64 << 10
)

var (
	errHeadTooLong = errors.New("response head over 64 KiB")
	errClosed      = errors.New("node closed")
)

// network is how the package reaches sockets: a node's links and listener,
// an origin's listener and a Fleet's links each go through one. It is
// real TCP unless a test fleet is started on another (startFleetOn).
type network struct {
	dial   func(ctx context.Context, addr string) (net.Conn, error)
	listen func(addr string) (net.Listener, error)
}

func tcp() network {
	return network{
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return (&net.Dialer{Timeout: peerDialTimeout, KeepAlive: 30 * time.Second}).DialContext(ctx, "tcp", addr)
		},
		listen: func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
	}
}

// connSet is what a holder — the origin link, the peer plane, a Fleet —
// keeps of its connections: every live one, leased, idle or (the plane's)
// served, for close to cut. mu also guards the idle sets of the holder's
// links.
type connSet struct {
	mu     sync.Mutex
	conns  map[*upConn]struct{}
	closed bool
	wg     sync.WaitGroup // serve loops
}

// add registers uc, or closes it if the holder has closed. Given serve, it
// runs serve(uc) on a goroutine of its own and drops uc when that returns.
func (s *connSet) add(uc *upConn, serve func(*upConn)) bool {
	s.mu.Lock()
	ok := !s.closed
	if ok {
		s.conns[uc] = struct{}{}
		if serve != nil {
			s.wg.Add(1)
		}
	}
	s.mu.Unlock()
	switch {
	case !ok:
		uc.c.Close()
	case serve != nil:
		go func() {
			defer s.wg.Done()
			serve(uc)
			s.drop(uc)
		}()
	}
	return ok
}

// drop closes uc and forgets it.
func (s *connSet) drop(uc *upConn) {
	s.mu.Lock()
	delete(s.conns, uc)
	s.mu.Unlock()
	uc.c.Close()
}

// close cuts every live connection — a leased one fails its call, and what
// the idle sets still hold is never leased — refuses any dialed, accepted or
// handed back from then on, and waits for the serve loops.
func (s *connSet) close() {
	s.mu.Lock()
	s.closed = true
	for uc := range s.conns {
		uc.c.Close()
	}
	clear(s.conns)
	s.mu.Unlock()
	s.wg.Wait()
}

// upConn is one connection to an upstream, leased or idle — or, on the
// serving side of the peer plane, accepted.
type upConn struct {
	c net.Conn
	// lr meters what br reads off c while a head is being parsed.
	lr  io.LimitedReader
	br  *bufio.Reader
	buf []byte // the request (or frame) scratch
	// cut is the hook a call arms on its context: it fails the read or
	// write in progress by moving the deadline into the past.
	cut    func()
	reused bool
	label  string // a dialed peer's, from its 101
	calls  uint64 // calls made on it; the last one's ID
}

func newUpConn(c net.Conn) *upConn {
	uc := &upConn{c: c, cut: func() { c.SetDeadline(longAgo) }}
	uc.lr = io.LimitedReader{R: c, N: headLimit}
	// Small, like the front door's: a body is read past it, into its slice.
	uc.br = bufio.NewReaderSize(&uc.lr, 4<<10)
	return uc
}

// link is one upstream's idle set, under its holder's connSet, and how to
// dial it: the origin link holds one, each peer record one, and a Fleet one
// per slot.
type link struct {
	set  *connSet
	idle []*upConn // most recently used last; guarded by set.mu
	dial func(context.Context) (*upConn, error)
}

// lease takes the most recently used idle connection, or dials one (always,
// if fresh) under the caller's deadline.
func (l *link) lease(ctx context.Context, fresh bool) (*upConn, error) {
	l.set.mu.Lock()
	closed := l.set.closed
	var uc *upConn
	if n := len(l.idle); !closed && !fresh && n > 0 {
		uc, l.idle = l.idle[n-1], l.idle[:n-1]
	}
	l.set.mu.Unlock()
	switch {
	case closed:
		return nil, errClosed
	case uc != nil:
		uc.reused = true
		return uc, nil
	}
	uc, err := l.dial(ctx)
	if err != nil {
		return nil, err
	}
	if !l.set.add(uc, nil) {
		return nil, errClosed
	}
	return uc, nil
}

// release returns a connection to the idle set, or drops it if the set is
// full or the holder closed.
func (l *link) release(uc *upConn) {
	l.set.mu.Lock()
	if !l.set.closed && len(l.idle) < idleConns {
		l.idle = append(l.idle, uc)
		uc = nil
	}
	l.set.mu.Unlock()
	if uc != nil {
		l.set.drop(uc)
	}
}

// dropIdle closes every connection in the idle set.
func (l *link) dropIdle() {
	l.set.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.set.mu.Unlock()
	for _, uc := range idle {
		l.set.drop(uc)
	}
}

// do runs one exchange on a leased connection, returning promptly once ctx
// ends. The connection goes back to the idle set only if exchange says it
// read its answer whole, nothing is buffered behind that answer, and the
// cancel hook has not fired (its deadline may yet be cut); otherwise it is
// closed, so a call cut short costs its own connection and nothing else. A
// call whose context has already ended leases nothing.
func (l *link) do(ctx context.Context, exchange func(*upConn) (keep bool, err error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for fresh := false; ; fresh = true {
		uc, err := l.lease(ctx, fresh)
		if err != nil {
			return err
		}
		uc.lr.N = headLimit
		stop := context.AfterFunc(ctx, uc.cut)
		keep, err := exchange(uc)
		if stop() && keep && uc.br.Buffered() == 0 {
			l.release(uc)
		} else {
			l.set.drop(uc)
		}
		if err != nil && ctx.Err() != nil {
			return ctx.Err() // not the cut deadline's "i/o timeout"
		}
		// A connection the upstream closed while it sat idle (its
		// IdleTimeout, a restart) is found out by the first call to use it:
		// nothing of an answer arrives. Every exchange is idempotent, so — as
		// net/http does with a stale pooled connection — that call is tried
		// once more, on a fresh connection, if its deadline allows; a fresh
		// connection that fails is the upstream failing.
		if err == nil || !uc.reused || uc.lr.N != headLimit {
			return err
		}
	}
}

// originLink holds the keep-alive connections to the origin.
type originLink struct {
	connSet
	link
	// host is OriginURL's authority: the Host header, and the target the
	// outbound fault rules match. path is the request path up to the
	// escaped object URL.
	host, path string
}

// newOriginLink parses a node's OriginURL. The link is plain TCP, as the
// peer plane is, so the scheme must be http; a path prefix is kept.
func newOriginLink(originURL string, nw network) (*originLink, error) {
	u, err := neturl.Parse(originURL)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("OriginURL %q: want http://host[:port][/prefix]", originURL)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	l := &originLink{host: u.Host, path: u.EscapedPath() + "/obj?url="}
	l.conns = make(map[*upConn]struct{})
	l.link = link{set: &l.connSet, dial: dialHTTP(nw, addr)}
	return l, nil
}

// dialHTTP dials addr on nw for a link that speaks HTTP/1.1 over it.
func dialHTTP(nw network, addr string) func(context.Context) (*upConn, error) {
	return func(ctx context.Context) (*upConn, error) {
		c, err := nw.dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return newUpConn(c), nil
	}
}

// request writes "method path<url, query-escaped> HTTP/1.1" and a Host
// header on a leased connection, and reads the answer's head. Its body is the
// caller's to read, no longer metered.
func request(uc *upConn, method, path, url, host string) (*http.Response, error) {
	uc.buf = append(uc.buf[:0], method...)
	uc.buf = append(uc.buf, ' ')
	uc.buf = append(uc.buf, path...)
	uc.buf = append(uc.buf, neturl.QueryEscape(url)...)
	uc.buf = append(uc.buf, " HTTP/1.1\r\nHost: "...)
	uc.buf = append(uc.buf, host...)
	uc.buf = append(uc.buf, "\r\n\r\n"...)
	if _, err := uc.c.Write(uc.buf); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(uc.br, nil)
	if err != nil {
		if uc.lr.N <= 0 {
			err = errHeadTooLong
		}
		return nil, err
	}
	uc.lr.N = math.MaxInt64
	return resp, nil
}

// exchange writes one GET on a leased connection and reads its answer. keep
// says the answer was read to its end and the origin did not ask to close.
func (l *originLink) exchange(uc *upConn, url string) (version int64, body []byte, hop string, keep bool, err error) {
	resp, err := request(uc, http.MethodGet, l.path, url, l.host)
	if err != nil {
		return 0, nil, "", false, err
	}
	if resp.StatusCode != http.StatusOK {
		// An error page is not an object: a token amount is read for the
		// connection's sake, and a longer page costs the connection.
		_, derr := io.CopyN(io.Discard, resp.Body, 4<<10)
		return 0, nil, "", derr == io.EOF && !resp.Close, fmt.Errorf("status %d", resp.StatusCode)
	}
	version, body, err = readObject(resp)
	return version, body, resp.Header.Get(headerTraceHop), err == nil && !resp.Close, err
}

// fetched is one successful upstream fetch (peer or origin).
type fetched struct {
	version int64
	body    []byte
	hops    []obs.Hop
}

// originTimeout bounds one origin fetch (a variable so tests can shorten
// it).
var originTimeout = 10 * time.Second

// fetchOrigin fetches from the origin server over the origin link, on the
// calling goroutine, returning the origin's self-timed serve segment (when
// present) plus the measured round trip. originTimeout is applied here; the
// outbound fault decision is drawn once per fetch and touches only it.
func (n *Node) fetchOrigin(ctx context.Context, url string) (_ fetched, err error) {
	ctx, cancel := context.WithTimeout(ctx, originTimeout)
	defer cancel()
	defer func() {
		if err != nil {
			err = fmt.Errorf("origin fetch: %w", err)
		}
	}()
	start := time.Now()
	code, err := n.inj.Decide(n.origin.host).Apply(ctx, n.origin.host)
	if err == nil && code > 0 {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return fetched{}, err
	}
	var f fetched
	var hop string
	err = n.origin.do(ctx, func(uc *upConn) (keep bool, err error) {
		f.version, f.body, hop, keep, err = n.origin.exchange(uc, url)
		return keep, err
	})
	if err != nil {
		return fetched{}, err
	}
	if h, ok := obs.ParseSegment(hop); ok {
		f.hops = append(f.hops, h)
	}
	f.hops = append(f.hops, obs.Hop{Node: "origin", Outcome: "ORIGIN", Elapsed: time.Since(start)})
	return f, nil
}

// maxBodyPrealloc is the most readSized allocates on a declared length's
// say-so; a longer (or undeclared) body is read incrementally.
const maxBodyPrealloc = 4 << 20

// readObject reads the origin's object response.
func readObject(resp *http.Response) (int64, []byte, error) {
	version, err := strconv.ParseInt(resp.Header.Get(headerVersion), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad %s header: %w", headerVersion, err)
	}
	body, err := readSized(resp.Body, resp.ContentLength)
	return version, body, err
}

// readSized reads a body of declared length n (negative: undeclared, read
// to EOF) into one slice the caller owns. A body that ends short of its
// declared length is an error, never an object to cache.
func readSized(r io.Reader, n int64) ([]byte, error) {
	var body []byte
	var err error
	switch {
	case n < 0:
		body, err = io.ReadAll(r)
	case n <= maxBodyPrealloc:
		body = make([]byte, n)
		_, err = io.ReadFull(r, body)
	default:
		body, err = io.ReadAll(io.LimitReader(r, n))
	}
	if err == nil && n >= 0 && int64(len(body)) != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return body, nil
}
