package cluster

// The front door (DESIGN.md §16): the client-facing listener, served without
// net/http's server. One goroutine per connection reads each request — a plain
// GET whole in the buffer into the connection's reused request
// (frontdoor_head.go), anything else with http.ReadRequest — and hands it to
// the node's ordinary http.Handler; the connection is the http.ResponseWriter
// too, reused from request to request, and sends a response as one vectored
// write of status line, headers and body — a /fetch answer's head rendered
// by the door itself (sendObject). No request carries a body and no response
// is chunked.

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/obs"
)

// An idle connection's, a header's (from its first byte) and close's time
// limits, and how long a response may take to leave: a client that stops
// reading costs its connection then, not a goroutine and a body for ever.
// Variables only so that tests can shorten them, before a door starts: it
// reads the idle and header limits then, the other two when it uses them.
var doorIdleTimeout, doorHeaderTimeout, doorCloseGrace, doorWriteTimeout = 30 * time.Second, 5 * time.Second, 3 * time.Second, 30 * time.Second

const (
	// doorHeaderLimit bounds one request's line and header (a 4 KiB
	// read-ahead included): past it the answer is 431.
	doorHeaderLimit = 1 << 20
	// doorDrain is how much is read off behind a refused request (its body,
	// typically) before the connection closes.
	doorDrain = 64 << 10
	// lingerTimeout bounds the reading-off behind a refusal (readOff).
	lingerTimeout = 500 * time.Millisecond
)

// frontDoor owns a listener and the connections accepted on it.
//
// The handler's side of it: a request, its URL and its Header are the
// connection's, filled again for the next request, so a handler neither keeps
// nor changes them once it has returned (the strings in them are its to keep).
type frontDoor struct {
	lis     net.Listener
	handler http.Handler
	// upgrade, if set, is handed a connection that asked for the peer plane
	// (GET /peer, Upgrade: beyondcache-peer/1), its reader holding what was
	// read behind the request; the door forgets it. The recogniser declines
	// a head with Upgrade in it, so such a request is always
	// http.ReadRequest's.
	upgrade      func(*upConn)
	idle, header time.Duration // the timeouts, as they were at the start
	// quit ends when close begins, and idle connections with it. ctx — every
	// request's context, which a client going away does not end — ends when
	// the grace has run out, and every connection left with it.
	quit, ctx     context.Context
	begin, finish context.CancelFunc
	wg            sync.WaitGroup // the accept loop and the connections
}

// startFrontDoor serves handler on lis until close, handing peer upgrades to
// upgrade.
func startFrontDoor(lis net.Listener, handler http.Handler, upgrade func(*upConn)) *frontDoor {
	d := &frontDoor{lis: lis, handler: handler, upgrade: upgrade, idle: doorIdleTimeout, header: doorHeaderTimeout}
	d.quit, d.begin = context.WithCancel(context.Background())
	d.ctx, d.finish = context.WithCancel(context.Background())
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil && d.quit.Err() != nil {
				return
			}
			if err != nil {
				time.Sleep(10 * time.Millisecond) // out of descriptors, most likely
				continue
			}
			d.serve(c)
		}
	}()
	return d
}

// serve starts a connection's goroutine. The connection is closed under it
// when quit ends, if idle then (else it sees for itself), and when ctx ends.
func (d *frontDoor) serve(c net.Conn) {
	dc := &doorConn{d: d, upConn: newUpConn(c), hdr: make(http.Header)}
	dc.plain.init(d.ctx)
	idle := context.AfterFunc(d.quit, func() {
		if !dc.busy.Load() {
			c.Close()
		}
	})
	all := context.AfterFunc(d.ctx, func() { c.Close() })
	dc.unhook = func() { idle(); all() }
	d.wg.Add(1)
	go dc.loop()
}

// close stops accepting, cuts idle connections at once, gives requests in
// flight doorCloseGrace to finish, then closes their connections too and ends
// their context. A handler that outlives that is not waited for.
func (d *frontDoor) close() {
	d.begin()
	d.lis.Close()
	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(doorCloseGrace):
	}
	d.finish()
}

// doorConn is a connection and each request's http.ResponseWriter. Its
// upConn meters what br reads off c while a header is being parsed, and is
// what an upgrade hands the peer plane.
type doorConn struct {
	d *frontDoor
	*upConn
	plain plainHead // the request a recognised head is read into
	// busy is set from a request's first byte to its answer's last: before
	// quit is read here, and read after quit ends, so one always sees the other.
	busy   atomic.Bool
	unhook func() // from quit and ctx

	// The response in progress. hdr, head, body and the write vector are the
	// connection's, reused across its requests: cleared, not reallocated.
	req               *http.Request
	hdr               http.Header
	head              bytes.Buffer // status line and header block
	body              []byte       // a response that declared no length, gathered
	status            int          // 0 until WriteHeader
	declared, written int64        // declared: the Content-Length the handler set, or -1
	sent, last        bool         // the head has left; the connection closes after this response
	handedOver        bool         // to upgrade
	werr              error
	iov               [2][]byte
	vec               net.Buffers
	date              []byte // the Date value, as formatted in second dateAt
	dateAt            int64
}

func (dc *doorConn) loop() {
	defer func() {
		dc.unhook()
		if !dc.handedOver {
			dc.c.Close()
		}
		dc.d.wg.Done()
	}()
	for {
		dc.busy.Store(false)
		if dc.d.quit.Err() != nil {
			return
		}
		dc.lr.N = doorHeaderLimit
		dc.c.SetReadDeadline(time.Now().Add(dc.d.idle))
		if _, err := dc.br.Peek(1); err != nil {
			return
		}
		dc.busy.Store(true)
		if dc.d.quit.Err() != nil {
			return // close may have read this connection as idle
		}
		// A plain head is whole in the buffer: no header byte is waited for,
		// and no deadline armed for the wait.
		b, _ := dc.br.Peek(dc.br.Buffered())
		if n := dc.plain.read(b); n > 0 {
			dc.br.Discard(n)
			if !dc.serve(&dc.plain.req) {
				return
			}
			continue
		}
		dc.c.SetReadDeadline(time.Now().Add(dc.d.header))
		req, err := http.ReadRequest(dc.br)
		switch {
		case err != nil && dc.lr.N <= 0:
			dc.refuse(http.StatusRequestHeaderFieldsTooLarge)
			return
		case err != nil: // malformed; or the client left or stalled, and nobody reads this
			dc.refuse(http.StatusBadRequest)
			return
		case !dc.serve(req.WithContext(dc.d.ctx)):
			return
		}
	}
}

// refuse answers a request the handler will not see; the connection closes
// behind it, after readOff: nothing behind a refusal is parsed.
func (dc *doorConn) refuse(code int) (keep bool) {
	text := strconv.Itoa(code) + " " + http.StatusText(code)
	dc.c.SetDeadline(time.Now().Add(lingerTimeout)) // the last response's write deadline may be past
	io.WriteString(dc.c, "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: "+
		strconv.Itoa(len(text))+"\r\nConnection: close\r\n\r\n"+text)
	// What br already holds is off the socket; up to doorDrain more is read.
	readOff(dc.c, dc.c, doorDrain)
	return false
}

// readOff drops up to n bytes of r, the rest of a refused request on c, for
// at most lingerTimeout before the close. Closing on unread bytes resets the
// connection, and a sender still writing would see that, not the refusal.
func readOff(c net.Conn, r io.Reader, n int64) {
	c.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.CopyN(io.Discard, r, n)
}

// serve answers one request, which carries the door's context; keep says the
// connection may carry another.
func (dc *doorConn) serve(req *http.Request) (keep bool) {
	switch {
	case req.ProtoAtLeast(1, 1) && req.Host == "":
		return dc.refuse(http.StatusBadRequest)
	case req.ContentLength != 0 || len(req.TransferEncoding) > 0:
		// No endpoint takes a body, so none is ever framed. The refusal goes
		// out before any of it is read: Expect: 100-continue gets it at once.
		return dc.refuse(http.StatusRequestEntityTooLarge)
	case dc.d.upgrade != nil && req.URL.Path == "/peer" && req.Header.Get("Upgrade") == peerProto:
		dc.handedOver = true
		dc.unhook()
		dc.lr.N = 1 << 62 // no header is being parsed any more; the deadlines are upgrade's to clear
		dc.d.upgrade(dc.upConn)
		return false
	}
	clear(dc.hdr)
	dc.req, dc.status, dc.declared, dc.written = req, 0, -1, 0
	dc.sent, dc.last, dc.werr, dc.body = false, req.Close, nil, dc.body[:0]
	dc.head.Reset()
	defer func() {
		// A panicking handler (the chaos middleware's http.ErrAbortHandler
		// among them) costs its connection, unanswered, and nothing else.
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				log.Printf("cluster: front door: panic serving %v: %v\n%s", dc.c.RemoteAddr(), p, debug.Stack())
			}
			keep = false
		}
	}()
	dc.d.handler.ServeHTTP(dc, req)
	if dc.d.ctx.Err() != nil {
		return false // out of grace: a handler that gave up has no answer to send
	}
	// What is left: a head nothing was written behind, or a gathered body.
	dc.WriteHeader(http.StatusOK)
	if dc.written < dc.declared && req.Method != http.MethodHead {
		dc.last = true // short of its declared length: the framing is lost
	}
	if dc.declared < 0 {
		dc.head.WriteString("Content-Length: ")
		dc.head.Write(strconv.AppendInt(dc.head.AvailableBuffer(), dc.written, 10))
		dc.head.WriteString("\r\n")
	}
	if !dc.sent {
		dc.send(dc.body)
	}
	return dc.werr == nil && !dc.last
}

func (dc *doorConn) Header() http.Header { return dc.hdr }

// WriteHeader fixes the status and renders the head from the headers as they
// stand; only a gathered body's Content-Length is still to come.
func (dc *doorConn) WriteHeader(code int) {
	if dc.status != 0 {
		return
	}
	dc.status = code
	n := int64(-1) // a length never set is not parsed: its error would be an allocation
	if v := dc.hdr["Content-Length"]; len(v) > 0 {
		if l, err := strconv.ParseInt(v[0], 10, 64); err == nil {
			n = l
		}
	}
	switch {
	case code < 200 || code == http.StatusNoContent || code == http.StatusNotModified:
		dc.declared = 0 // no body goes with these, and no length
		dc.hdr.Del("Content-Length")
	case n >= 0:
		dc.declared = n
	default:
		dc.hdr.Del("Content-Length")
	}
	h := &dc.head
	h.WriteString("HTTP/1.1 ")
	h.Write(strconv.AppendInt(h.AvailableBuffer(), int64(code), 10))
	h.WriteByte(' ')
	h.WriteString(http.StatusText(code))
	h.WriteString("\r\n")
	dc.hdr.Write(h) // sorted, and a line break in a value written as a space
	h.Write(dc.appendTail(h.AvailableBuffer()))
}

// appendTail appends what ends every head the door writes: Date, from the
// door's clock, and the Connection line the response needs, if any.
func (dc *doorConn) appendTail(b []byte) []byte {
	b = append(b, "Date: "...)
	if now := time.Now(); now.Unix() != dc.dateAt {
		dc.dateAt, dc.date = now.Unix(), now.UTC().AppendFormat(dc.date[:0], http.TimeFormat)
	}
	b = append(b, dc.date...)
	if dc.last {
		b = append(b, "\r\nConnection: close"...)
	} else if !dc.req.ProtoAtLeast(1, 1) {
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	return append(b, "\r\n"...)
}

// sendObject answers a GET /fetch with its object (finishFetch). The head is
// rendered straight into the connection's buffer, byte for byte what
// WriteHeader renders from the headers serveObject and finishFetch set —
// Header.Write's sorted order, and its treatment of a value (oneLine) for
// the two that carry outside text — but with no header map, no slice per
// header and no string for a number; the chain and a minted request ID are
// appended in place too. how is one of finishFetch's constants.
func (dc *doorConn) sendObject(how string, version int64, body []byte, id requestID, upstream []obs.Hop, term obs.Hop) {
	dc.status, dc.declared, dc.written = http.StatusOK, int64(len(body)), int64(len(body))
	b := append(dc.head.AvailableBuffer(), "HTTP/1.1 200 OK\r\nContent-Length: "...)
	b = strconv.AppendInt(b, dc.declared, 10)
	b = append(b, "\r\nContent-Type: application/octet-stream\r\nX-Cache: "...)
	b = append(b, how...)
	b = append(b, "\r\nX-Object-Version: "...)
	b = strconv.AppendInt(b, version, 10)
	b = append(b, "\r\nX-Request-Id: "...)
	at := len(b)
	b = oneLine(id.append(b), at)
	b = append(b, "\r\nX-Trace: "...)
	at = len(b)
	b = oneLine(obs.AppendChain(b, upstream, term), at)
	b = append(b, "\r\n"...)
	dc.head.Write(dc.appendTail(b))
	dc.send(body)
}

// oneLine leaves b[from:], a header value just appended to b, as
// Header.Write writes a value: each CR or LF a space, then white space
// trimmed from both ends. No value — a node's name in the chain, or an echoed
// request ID — can end its line and start another.
func oneLine(b []byte, from int) []byte {
	v := b[from:]
	for i, c := range v {
		if c == '\r' || c == '\n' {
			v[i] = ' '
		}
	}
	return b[:from+copy(v, bytes.Trim(v, " \t"))]
}

// Write sends p if the handler declared a Content-Length — the first time,
// head and p in one write — and otherwise gathers it, to go with its length.
func (dc *doorConn) Write(p []byte) (int, error) {
	dc.WriteHeader(http.StatusOK)
	if dc.declared >= 0 && dc.written+int64(len(p)) > dc.declared {
		return 0, http.ErrContentLength
	}
	dc.written += int64(len(p))
	switch {
	case dc.req.Method == http.MethodHead: // counted, never sent
	case dc.declared < 0:
		dc.body = append(dc.body, p...)
	case !dc.sent:
		dc.send(p)
	case dc.werr == nil && len(p) > 0:
		_, dc.werr = dc.c.Write(p)
	}
	return len(p), dc.werr
}

// send finishes the head and writes it with p behind it: one writev on a
// TCP connection, so the client wakes once, with all of it. The response's
// one write deadline is armed here, for this write and any behind it. An
// empty p stays out of the vector: a connection is never handed an empty
// write, which on a synchronous one (net.Pipe) blocks until the client reads
// again — and a client waiting to send its next request never does.
func (dc *doorConn) send(p []byte) {
	dc.c.SetWriteDeadline(time.Now().Add(doorWriteTimeout))
	dc.head.WriteString("\r\n")
	dc.sent, dc.iov[0], dc.iov[1] = true, dc.head.Bytes(), p
	dc.vec = dc.iov[:]
	if len(p) == 0 {
		dc.vec = dc.iov[:1]
	}
	_, dc.werr = dc.vec.WriteTo(dc.c)
	dc.iov[1] = nil // the body is the cache's: not ours to pin
}
