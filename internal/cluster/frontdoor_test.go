package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/obs"
	"beyondcache/internal/wire"
)

// doorNode starts a node on its own front door against a fresh origin.
func doorNode(t testing.TB, cfg NodeConfig) (*Node, *Origin) {
	t.Helper()
	origin := NewOrigin(8 << 10)
	if err := origin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cfg.OriginURL, cfg.UpdateInterval = origin.URL(), time.Hour
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		origin.Close()
	})
	return n, origin
}

// stubDoor serves h through a front door of its own and returns its address.
func stubDoor(t *testing.T, h http.Handler) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := startFrontDoor(lis, h, nil)
	t.Cleanup(d.close)
	return lis.Addr().String()
}

// shorten sets a door timeout for the length of the test. A door takes the
// idle and header timeouts as they are when it starts.
func shorten(t testing.TB, v *time.Duration, d time.Duration) {
	old := *v
	*v = d
	t.Cleanup(func() { *v = old })
}

// rawConn is a client that says exactly what it is told to.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (rc *rawConn) send(raw string) *rawConn {
	rc.t.Helper()
	if _, err := io.WriteString(rc.c, raw); err != nil {
		rc.t.Fatalf("write %q: %v", raw, err)
	}
	return rc
}

// response reads one response to a request of the given method, body and all.
func (rc *rawConn) response(method string) (*http.Response, []byte) {
	rc.t.Helper()
	resp, err := http.ReadResponse(rc.br, &http.Request{Method: method})
	if err != nil {
		rc.t.Fatalf("reading the response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rc.t.Fatalf("reading the %d response's body: %v", resp.StatusCode, err)
	}
	return resp, body
}

// rest reads what else the server sends, up to its close (closed) or for a
// moment (still open).
func (rc *rawConn) rest(wait time.Duration) (more []byte, closed bool) {
	rc.c.SetReadDeadline(time.Now().Add(wait))
	more, err := io.ReadAll(rc.br)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return more, false
	}
	return more, true
}

var traceTimes = regexp.MustCompile(`\d+us`)

// exchange is what one raw request stream got back: every response's status,
// headers (Date and the timings in X-Trace aside) and body, and whether the
// server then closed the connection.
type exchange struct {
	Statuses []int
	Headers  []http.Header
	Bodies   []string
	Closed   bool
}

// exchangeOn sends raw — with cut > 0 as two TCP segments, the first of cut
// bytes — and reads one response per method.
func exchangeOn(t *testing.T, addr, raw string, cut int, methods ...string) (exchange, []*http.Response) {
	t.Helper()
	rc := dialRaw(t, addr).send(raw[:cut])
	if cut > 0 {
		time.Sleep(10 * time.Millisecond) // the server reads the first before the second is sent
	}
	rc.send(raw[cut:])
	var ex exchange
	var resps []*http.Response
	for _, m := range methods {
		resp, body := rc.response(m)
		h := resp.Header.Clone()
		h.Del("Date")
		if v := h.Get(headerTrace); v != "" {
			h.Set(headerTrace, traceTimes.ReplaceAllString(v, "Nus"))
		}
		ex.Statuses, ex.Headers, ex.Bodies = append(ex.Statuses, resp.StatusCode), append(ex.Headers, h), append(ex.Bodies, string(body))
		resps = append(resps, resp)
	}
	more, closed := rc.rest(30 * time.Millisecond)
	if len(more) != 0 {
		t.Errorf("%d bytes behind the last response: %q", len(more), more)
	}
	ex.Closed = closed
	return ex, resps
}

// TestFrontDoorMatchesNetHTTP sends the same bytes to a node's front door and
// to net/http serving the same node's Handler: status, headers, body and the
// connection's fate must agree. The differences allowed are the documented
// ones: the door sends Date from its own clock, gives a long response that
// declared no length a Content-Length where net/http chunks it (/metrics),
// and refuses request bodies (TestFrontDoorHostileRequests). Every GET and
// POST is sent to the door a second time with its request line split across
// two segments: whole it may be read by the recogniser, split it is
// http.ReadRequest's, and the two must be answered alike. A /fetch answer's
// head is the door's own rendering (sendObject), so the answers it gives —
// a hit, a miss, and a node whose name would break a header line — are held
// to net/http's Header.Write here too (and byte for byte in
// TestFrontDoorObjectHead).
func TestFrontDoorMatchesNetHTTP(t *testing.T) {
	n, origin := doorNode(t, NodeConfig{Name: "door", TraceSample: -1})
	crlf, _ := doorNode(t, NodeConfig{Name: "\ndoor\r\nX-Injected: 1", TraceSample: -1})
	refs := map[*Node]string{}
	for _, node := range []*Node{n, crlf} {
		ref := httptest.NewServer(node.Handler())
		defer ref.Close()
		refs[node] = strings.TrimPrefix(ref.URL, "http://")
	}

	const obj = "http://example.com/door/obj"
	q := "?url=" + neturl.QueryEscape(obj)
	call := func(node *Node, method, target string, want int) {
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
	}
	get := func(target string, extra ...string) string {
		return "GET " + target + " HTTP/1.1\r\nHost: node\r\nX-Request-Id: fixed\r\n" + strings.Join(extra, "") + "\r\n"
	}
	post := func(target string) string {
		return "POST " + target + " HTTP/1.1\r\nHost: node\r\nContent-Length: 0\r\n\r\n"
	}
	cases := []struct {
		name    string
		raw     string
		node    *Node    // default n
		methods []string // one per response expected; default one GET
		status  int      // of the first response
		closed  bool
		loose   bool // the body holds counters, and net/http chunks it
		prep    func()
		once    string // the first body says this exactly once
		trace   string // the first answer's X-Trace, timings aside
	}{
		{name: "local hit", raw: get("/fetch" + q), status: 200, trace: "door;LOCAL;Nus"},
		{name: "miss", raw: get("/fetch" + q), status: 200, prep: func() { call(n, http.MethodPost, "/purge"+q, http.StatusNoContent) },
			trace: "origin;ORIGIN-SERVE;Nus|origin;ORIGIN;Nus|door;MISS;Nus"},
		{name: "a name with a line break", raw: get("/fetch" + q), node: crlf, status: 200, trace: "door  X-Injected: 1;LOCAL;Nus"},
		{name: "missing url", raw: get("/fetch"), status: 400},
		{name: "fetch by POST", raw: post("/fetch" + q), status: 405},
		{name: "fetch by HEAD", raw: "HEAD /fetch" + q + " HTTP/1.1\r\nHost: node\r\n\r\n", methods: []string{"HEAD"}, status: 405},
		{name: "purge", raw: post("/purge" + q), status: 204},
		{name: "bodiless purge", raw: "POST /purge" + q + " HTTP/1.1\r\nHost: node\r\n\r\n", methods: []string{"POST"}, status: 204},
		{name: "purge of an absent object", raw: post("/purge?url=absent"), status: 404},
		{name: "purge by GET", raw: get("/purge" + q), status: 405},
		{name: "purge without url", raw: post("/purge"), status: 400},
		{name: "metrics", raw: get("/metrics"), status: 200, loose: true},
		{name: "metrics by POST", raw: post("/metrics"), status: 405},
		{name: "metrics by HEAD", raw: "HEAD /metrics HTTP/1.1\r\nHost: node\r\n\r\n", methods: []string{"HEAD"}, status: 405},
		{name: "spans", raw: get("/debug/spans"), status: 200},
		{name: "spans by POST", raw: post("/debug/spans"), status: 405},
		{name: "spans with a bad cursor", raw: get("/debug/spans?since=x"), status: 400},
		{name: "peer without the upgrade", raw: get("/peer"), status: 426},
		{name: "unknown path", raw: get("/nope"), status: 404},
		{name: "a removed peer endpoint", raw: get("/object" + q), status: 404},
		{name: "a path the mux cleans", raw: get("//fetch" + q), status: 301},
		{name: "HTTP/1.0", raw: "GET /fetch" + q + " HTTP/1.0\r\nX-Request-Id: fixed\r\n\r\n", status: 200, closed: true},
		{name: "HTTP/1.0 keep-alive", raw: "GET /fetch" + q + " HTTP/1.0\r\nConnection: keep-alive\r\nX-Request-Id: fixed\r\n\r\n", status: 200},
		{name: "Connection: close", raw: get("/fetch"+q, "Connection: close\r\n"), status: 200, closed: true},
		{name: "two pipelined", raw: get("/fetch"+q) + get("/fetch"), methods: []string{"GET", "GET"}, status: 200},
		{name: "pipelined behind a close", raw: get("/fetch"+q, "Connection: close\r\n") + get("/fetch"+q), status: 200, closed: true},
		{name: "dead origin", raw: get("/fetch?url=cold"), status: 502, prep: func() { origin.Close() }, once: "origin fetch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.methods == nil {
				tc.methods = []string{"GET"}
			}
			if tc.node == nil {
				tc.node = n
			}
			type side struct {
				addr string
				cut  int
			}
			sides := []side{{tc.node.Addr(), 0}, {refs[tc.node], 0}}
			if strings.HasPrefix(tc.raw, "GET ") || strings.HasPrefix(tc.raw, "POST ") {
				sides = append(sides, side{tc.node.Addr(), 12})
			}
			got := make([]exchange, len(sides))
			for i, s := range sides {
				call(tc.node, http.MethodGet, "/fetch"+q, http.StatusOK) // warm
				if tc.prep != nil {
					tc.prep()
				}
				ex, resps := exchangeOn(t, s.addr, tc.raw, s.cut, tc.methods...)
				if s.addr == tc.node.Addr() {
					for _, resp := range resps {
						if _, err := http.ParseTime(resp.Header.Get("Date")); err != nil {
							t.Errorf("the door's Date header: %v", err)
						}
						if len(resp.TransferEncoding) != 0 {
							t.Errorf("the door sent Transfer-Encoding %q", resp.TransferEncoding)
						}
					}
				}
				if tc.loose {
					if !strings.Contains(ex.Bodies[0], "beyondcache_fetch_total") {
						t.Errorf("metrics body: %.200q", ex.Bodies[0])
					}
					ex.Bodies[0] = ""
					ex.Headers[0].Del("Content-Length")
				}
				got[i] = ex
			}
			door, want := got[0], got[1]
			if door.Statuses[0] != tc.status || door.Closed != tc.closed {
				t.Errorf("the door answered %d, closed %v; want %d, closed %v", door.Statuses[0], door.Closed, tc.status, tc.closed)
			}
			if got := door.Headers[0].Get(headerTrace); got != tc.trace && tc.trace != "" {
				t.Errorf("the door's X-Trace is %q, want %q", got, tc.trace)
			}
			if tc.once != "" && strings.Count(door.Bodies[0], tc.once) != 1 {
				t.Errorf("the door's body %q says %q %d times, want once", door.Bodies[0], tc.once, strings.Count(door.Bodies[0], tc.once))
			}
			if !reflect.DeepEqual(door, want) {
				t.Errorf("the door and net/http disagree\n door:     %+v\n net/http: %+v", door, want)
			}
			if len(got) > 2 && !reflect.DeepEqual(door, got[2]) {
				t.Errorf("the door answers a head it got whole and one it got in two segments differently\n whole: %+v\n split: %+v", door, got[2])
			}
		})
	}
}

// countedConn counts the plain Writes on a TCP connection. The embedded
// *net.TCPConn keeps net.Buffers' vectored write (one writev), which does not
// pass through Write: a response that left with no Write at all left whole,
// in that one call.
type countedConn struct {
	*net.TCPConn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

type countedListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c.(*net.TCPConn), &l.writes}, nil
}

// TestFrontDoorOneWrite: a LOCAL hit whose body does not fit beside its head
// in net/http's 4 KiB buffer leaves http.Server in two writes and the door in
// one vectored write, as a gathered error page does.
func TestFrontDoorOneWrite(t *testing.T) {
	n, _ := doorNode(t, NodeConfig{Name: "onewrite"})
	const url = "http://example.com/door/8k"
	listen := func() *countedListener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return &countedListener{Listener: lis}
	}
	doorLis, httpLis := listen(), listen()
	d := startFrontDoor(doorLis, n.Handler(), nil)
	defer d.close()
	srv := &http.Server{Handler: n.Handler()}
	go srv.Serve(httpLis)
	defer srv.Close()

	hit := "GET /fetch?url=" + neturl.QueryEscape(url) + " HTTP/1.1\r\nHost: node\r\n\r\n"
	for _, side := range []struct {
		name string
		lis  *countedListener
		want int64
	}{{"door", doorLis, 0}, {"net/http", httpLis, 2}} {
		rc := dialRaw(t, side.lis.Addr().String())
		rc.send(hit).response("GET") // the MISS that fills it
		before := side.lis.writes.Load()
		resp, body := rc.send(hit).response("GET")
		if resp.Header.Get(headerCache) != "LOCAL" || len(body) != 8<<10 {
			t.Fatalf("%s: %s, %d bytes; want a LOCAL hit of 8 KiB", side.name, resp.Header.Get(headerCache), len(body))
		}
		if got := side.lis.writes.Load() - before; got != side.want {
			t.Errorf("%s: an 8 KiB LOCAL hit made %d plain writes, want %d", side.name, got, side.want)
		}
		if side.name != "door" {
			continue
		}
		before = side.lis.writes.Load()
		if resp, _ := rc.send("POST /purge?url=absent HTTP/1.1\r\nHost: node\r\n\r\n").response("POST"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("purge of an absent object = %d", resp.StatusCode)
		}
		if got := side.lis.writes.Load() - before; got != 0 {
			t.Errorf("door: a gathered 404 made %d plain writes beside its vectored one", got)
		}
	}
}

// recConn is a connection that keeps what is written to it.
type recConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

var dateLine = regexp.MustCompile(`\r\nDate: [^\r]*\r\n`)

// TestFrontDoorObjectHead: the answer the door renders for a /fetch
// (sendObject) is, byte for byte, the one WriteHeader renders through
// Header.Write from the headers finishFetch and serveObject set — for a
// minted and an echoed request ID, an upstream chain, names with line breaks
// and with white space at their ends, and each Connection line.
func TestFrontDoorObjectHead(t *testing.T) {
	upstream := []obs.Hop{{Node: "origin", Outcome: "ORIGIN-SERVE", Elapsed: 7 * time.Microsecond}, {Node: "peer\r\nX-Injected: 1", Outcome: "PEER", Elapsed: 150 * time.Microsecond}}
	for _, tc := range []struct {
		name     string
		label    string
		id       requestID
		upstream []obs.Hop
		http10   bool
		last     bool
	}{
		{name: "minted ID", label: "door", id: requestID{label: "door", seq: 0x2a}},
		{name: "echoed ID, upstream hops", label: "door", id: requestID{echo: "client-7"}, upstream: upstream},
		{name: "white space at a name's ends", label: "\r\n door\n\t", id: requestID{label: "\r\n door\n\t", seq: 1}, upstream: upstream[1:]},
		{name: "HTTP/1.0", label: "door", id: requestID{echo: "x"}, http10: true},
		{name: "closing", label: "door", id: requestID{echo: "x"}, last: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(door bool) string {
				c := &recConn{}
				dc := &doorConn{upConn: newUpConn(c), hdr: make(http.Header), declared: -1, last: tc.last,
					req: &http.Request{Method: http.MethodGet, ProtoMajor: 1, ProtoMinor: 1 - btoi(tc.http10)}}
				term := obs.Hop{Node: tc.label, Outcome: "LOCAL,COALESCED", Elapsed: 12 * time.Microsecond}
				if door {
					dc.sendObject(term.Outcome, 3, []byte("object"), tc.id, tc.upstream, term)
				} else {
					dc.hdr[headerRequestID] = []string{tc.id.String()}
					dc.hdr[headerTrace] = []string{obs.FormatChain(tc.upstream, term)}
					serveObject(dc, term.Outcome, 3, []byte("object"))
				}
				if !dc.sent || dc.written != dc.declared {
					t.Errorf("sent %v, %d bytes of %d declared", dc.sent, dc.written, dc.declared)
				}
				return dateLine.ReplaceAllString(c.out.String(), "\r\nDate: D\r\n")
			}
			door, want := render(true), render(false)
			if door != want {
				t.Errorf("the door rendered\n%q\nHeader.Write renders\n%q", door, want)
			}
			if strings.Count(door, "\n") != 9+btoi(tc.http10 || tc.last) || !strings.HasSuffix(door, "\r\n\r\nobject") {
				t.Errorf("not a head of eight lines, a Connection line if one is due, a blank line, then the body: %q", door)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFrontDoorWriter holds the response writer to what net/http's promised
// any handler: header values stay one line, HEAD carries the length and no
// body, a response short of its declared length costs the connection, one
// that would overrun it is refused, and a panic costs its connection only.
func TestFrontDoorWriter(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the panic below is logged with its stack
	shorten(t, &doorWriteTimeout, 200*time.Millisecond)
	unread := make(chan error, 1)
	overrun := make(chan error, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/split", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo", "a\r\nX-Injected: 1\nX-Also: 2")
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("/gather", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "one,")
		io.WriteString(w, "two")
	})
	mux.HandleFunc("/declared", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "7")
		io.WriteString(w, "one,")
		io.WriteString(w, "two")
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		io.WriteString(w, "short")
	})
	mux.HandleFunc("/overrun", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "3")
		_, err := io.WriteString(w, "too long")
		overrun <- err
	})
	mux.HandleFunc("/nocontent", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
		io.WriteString(w, "never sent")
	})
	mux.HandleFunc("/silent", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/unread", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(32<<20))
		_, err := w.Write(make([]byte, 32<<20))
		unread <- err
	})
	mux.HandleFunc("/abort", func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) { panic("handler bug") })
	addr := stubDoor(t, mux)
	get := func(method, path string) string { return method + " " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }

	resp, body := dialRaw(t, addr).send(get("GET", "/split")).response("GET")
	if got := resp.Header.Get("X-Echo"); got != "a  X-Injected: 1 X-Also: 2" || resp.Header.Get("X-Injected") != "" || resp.Header.Get("X-Also") != "" || string(body) != "ok" {
		t.Errorf("a header value with line breaks came back as %q in %v", got, resp.Header)
	}

	for _, tc := range []struct {
		method, path string
		status       int
		length       string
		body         string
		closed       bool
	}{
		{"GET", "/gather", 200, "7", "one,two", false},
		{"HEAD", "/gather", 200, "7", "", false},
		{"GET", "/declared", 200, "7", "one,two", false},
		{"HEAD", "/declared", 200, "7", "", false},
		{"GET", "/overrun", 200, "3", "", true},
		{"GET", "/nocontent", 204, "", "", false},
		{"GET", "/silent", 200, "0", "", false},
	} {
		rc := dialRaw(t, addr).send(get(tc.method, tc.path))
		rc.c.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := http.ReadResponse(rc.br, &http.Request{Method: tc.method})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		more, closed := rc.rest(30 * time.Millisecond)
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Length") != tc.length || string(body) != tc.body || len(more) != 0 || closed != tc.closed {
			t.Errorf("%s %s = %d, Content-Length %q, body %q + %q, closed %v; want %d, %q, %q, closed %v",
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Length"), body, more, closed, tc.status, tc.length, tc.body, tc.closed)
		}
	}
	if err := <-overrun; !errors.Is(err, http.ErrContentLength) {
		t.Errorf("a write past the declared length returned %v, want http.ErrContentLength", err)
	}

	// Short of its declared length: the bytes written arrive, then the close.
	rc := dialRaw(t, addr).send(get("GET", "/short"))
	if got, closed := rc.rest(time.Second); !closed || !bytes.HasSuffix(got, []byte("\r\n\r\nshort")) {
		t.Errorf("a short response: %q, closed %v; want the head, \"short\", then the close", got, closed)
	}

	// A client that asks and never reads: the response's write deadline ends
	// the write, and the connection with it.
	start := time.Now()
	rc = dialRaw(t, addr).send(get("GET", "/unread"))
	select {
	case err := <-unread:
		var ne net.Error
		if took := time.Since(start); !errors.As(err, &ne) || !ne.Timeout() || took < doorWriteTimeout || took > doorWriteTimeout+2*time.Second {
			t.Errorf("writing 32 MiB to a client that does not read returned %v after %v; want a timeout at %v", err, took, doorWriteTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("still writing to a client that does not read, %v past the %v write timeout", time.Since(start), doorWriteTimeout)
	}
	if got, closed := rc.rest(5 * time.Second); !closed || len(got) >= 32<<20 {
		t.Errorf("after the write timeout: %d bytes, closed %v; want part of the response, then the close", len(got), closed)
	}

	// A panic closes its own connection unanswered; the next one is served.
	for _, path := range []string{"/abort", "/panic"} {
		if got, closed := dialRaw(t, addr).send(get("GET", path)).rest(time.Second); len(got) != 0 || !closed {
			t.Errorf("GET %s: %q, closed %v; want the connection closed with nothing sent", path, got, closed)
		}
	}
	if resp, _ := dialRaw(t, addr).send(get("GET", "/gather")).response("GET"); resp.StatusCode != 200 {
		t.Errorf("after the panics the door answered %d", resp.StatusCode)
	}
}

// TestFrontDoorHostileRequests: what a client sends cannot make the door
// buffer past its header limit, hold a connection past its timeouts, or
// parse bytes of a request body as a request.
func TestFrontDoorHostileRequests(t *testing.T) {
	n, _ := doorNode(t, NodeConfig{Name: "wary"})
	addr := n.Addr()
	// refused sends raw and wants exactly one response, of the given status,
	// and then the close with nothing more.
	refused := func(t *testing.T, raw string, statuses ...int) {
		t.Helper()
		rc := dialRaw(t, addr).send(raw)
		resp, _ := rc.response("GET")
		ok := false
		for _, s := range statuses {
			ok = ok || resp.StatusCode == s
		}
		more, closed := rc.rest(2 * time.Second)
		if !ok || len(more) != 0 || !closed || resp.Header.Get(headerCache) != "" {
			t.Errorf("answered %d (%v), then %q, closed %v; want one of %v and the close", resp.StatusCode, resp.Header, more, closed, statuses)
		}
	}
	const smuggled = "GET /fetch?url=smuggled HTTP/1.1\r\nHost: node\r\n\r\n"

	t.Run("header over the limit", func(t *testing.T) {
		rc := dialRaw(t, addr)
		go func() { // the door stops reading at the limit; the write may fail
			io.WriteString(rc.c, "GET /fetch?url=x HTTP/1.1\r\nHost: node\r\nX-Pad: "+strings.Repeat("a", doorHeaderLimit-40)+"\r\n\r\n")
		}()
		resp, _ := rc.response("GET")
		if _, closed := rc.rest(2 * time.Second); resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !closed {
			t.Errorf("a header of 1 MiB + 1 = %d, closed %v; want 431 and the close", resp.StatusCode, closed)
		}
	})
	t.Run("header just under the limit", func(t *testing.T) {
		rc := dialRaw(t, addr).send("GET /fetch HTTP/1.1\r\nHost: node\r\nX-Pad: " + strings.Repeat("a", doorHeaderLimit-8<<10) + "\r\n\r\n")
		if resp, _ := rc.response("GET"); resp.StatusCode != http.StatusBadRequest { // the handler's: missing url
			t.Errorf("a header just under 1 MiB = %d, want the handler's 400", resp.StatusCode)
		}
	})
	t.Run("header trickled past its timeout", func(t *testing.T) {
		shorten(t, &doorHeaderTimeout, 50*time.Millisecond)
		rc := dialRaw(t, stubDoor(t, n.Handler())).send("GET /fetch?url=x HTTP/1.1\r\nHo")
		start := time.Now()
		if _, closed := rc.rest(5 * time.Second); !closed || time.Since(start) > 2*time.Second {
			t.Errorf("closed %v after %v; want the close soon after the 50 ms header timeout", closed, time.Since(start))
		}
	})
	t.Run("idle past its timeout", func(t *testing.T) {
		shorten(t, &doorIdleTimeout, 50*time.Millisecond)
		addr := stubDoor(t, n.Handler())
		fresh, used := dialRaw(t, addr), dialRaw(t, addr)
		if resp, _ := used.send("GET /fetch HTTP/1.1\r\nHost: node\r\n\r\n").response("GET"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /fetch = %d", resp.StatusCode)
		}
		for name, rc := range map[string]*rawConn{"fresh": fresh, "used": used} {
			if got, closed := rc.rest(2 * time.Second); !closed || len(got) != 0 {
				t.Errorf("%s connection: %q, closed %v; want a silent close at the 50 ms idle timeout", name, got, closed)
			}
		}
	})
	t.Run("request bodies", func(t *testing.T) {
		for name, raw := range map[string]string{
			"declared":     "POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: " + fmt.Sprint(len(smuggled)) + "\r\n\r\n" + smuggled,
			"chunked":      "POST /purge?url=x HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: chunked\r\n\r\n" + fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(smuggled), smuggled),
			"both":         "POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + smuggled,
			"unknown TE":   "POST /purge?url=x HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: gzip\r\n\r\n" + smuggled,
			"GET body":     "GET /fetch?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: " + fmt.Sprint(len(smuggled)) + "\r\n\r\n" + smuggled,
			"100-continue": "POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 100\r\nExpect: 100-continue\r\n\r\n",
		} {
			t.Run(name, func(t *testing.T) {
				t.Parallel() // each refusal lingers lingerTimeout for more of its body
				refused(t, raw, http.StatusRequestEntityTooLarge, http.StatusBadRequest)
			})
		}
	})
	if got := n.Stats(); got.Misses+got.LocalHits != 0 {
		t.Errorf("a request was parsed out of a refused body: %+v", got)
	}
	t.Run("a long body is not read to its end", func(t *testing.T) {
		rc := dialRaw(t, addr).send("POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 1073741824\r\n\r\n")
		if resp, _ := rc.response("POST"); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("a 1 GiB body = %d, want 413", resp.StatusCode)
		}
		// The client keeps writing; the door reads at most doorDrain of it
		// (for at most lingerTimeout) and closes.
		chunk, sent := make([]byte, 32<<10), 0
		for rc.c.SetWriteDeadline(time.Now().Add(5 * time.Second)); sent < 64<<20; sent += len(chunk) {
			if _, err := rc.c.Write(chunk); err != nil {
				break
			}
		}
		if sent >= 64<<20 {
			t.Errorf("the door took %d bytes of a refused body", sent)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		for name, raw := range map[string]string{
			"bare LF in the request line": "GET /fetch?url=a\nb HTTP/1.1\r\nHost: node\r\n\r\n",
			"NUL in the request line":     "GET /fetch?url=a\x00b HTTP/1.1\r\nHost: node\r\n\r\n",
			"no Host on HTTP/1.1":         "GET /fetch?url=x HTTP/1.1\r\n\r\n",
			"CR inside a header value":    "GET /fetch?url=x HTTP/1.1\r\nHost: node\r\nX-Request-Id: a\rX-Cache: MISS\r\n\r\n",
			"not HTTP":                    "bp\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\r\n\r\n",
		} {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				refused(t, raw, http.StatusBadRequest)
			})
		}
	})
	t.Run("a refused client may finish a short body", func(t *testing.T) {
		// Closing at once on the unread body would reset the connection under
		// the writes below, and the refusal away before it is read.
		rc := dialRaw(t, addr).send("POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 49152\r\n\r\n")
		for i := 0; i < 48; i++ {
			if _, err := rc.c.Write(make([]byte, 1<<10)); err != nil {
				t.Fatalf("body write %d of 48: %v", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		resp, _ := rc.response("POST")
		if _, closed := rc.rest(2 * time.Second); resp.StatusCode != http.StatusRequestEntityTooLarge || !closed {
			t.Errorf("answered %d, closed %v; want 413 and the close", resp.StatusCode, closed)
		}
	})
	t.Run("a frame pipelined behind the upgrade", func(t *testing.T) {
		shorten(t, &doorHeaderTimeout, 50*time.Millisecond)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d := startFrontDoor(lis, n.Handler(), n.acceptPeer)
		t.Cleanup(d.close)
		addr := lis.Addr().String()
		ping := wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerPing, ID: 7})
		rc := dialRaw(t, addr).send("GET /peer HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: " + peerProto + "\r\n\r\n" + string(ping))
		resp, err := http.ReadResponse(rc.br, nil)
		if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("upgrade: %v, %v", resp, err)
		}
		hdr := make([]byte, wire.PeerHeaderSize)
		if _, err := io.ReadFull(rc.br, hdr); err != nil {
			t.Fatalf("no answer to the ping sent in the upgrade's segment: %v", err)
		}
		if h, err := wire.DecodePeerHeader(hdr); err != nil || !h.Response || h.ID != 7 || h.Status != http.StatusNoContent {
			t.Errorf("ping answer = %+v, %v", h, err)
		}
		// Neither the header deadline nor the header limit applies to it any
		// more: it answers after the one, and past the other (two batches of
		// 600 KiB, undecodable and told so).
		time.Sleep(2 * doorHeaderTimeout)
		for id := uint64(8); id < 10; id++ {
			batch := make([]byte, 600<<10)
			rc.send(string(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerHints, ID: id, Len: len(batch)})) + string(batch))
			if _, err := io.ReadFull(rc.br, hdr); err != nil {
				t.Fatalf("batch %d on the upgraded connection: %v", id, err)
			}
			if h, err := wire.DecodePeerHeader(hdr); err != nil || h.ID != id || h.Status != http.StatusBadRequest {
				t.Errorf("batch %d answered %+v, %v; want 400", id, h, err)
			}
		}
	})
}

// TestFrontDoorClose: Close cuts an idle connection at once, gives a request
// in flight the grace and no more, ends that request's context, and leaves no
// goroutine behind.
func TestFrontDoorClose(t *testing.T) {
	shorten(t, &doorCloseGrace, 300*time.Millisecond)
	base := runtime.NumGoroutine()
	origin := NewOrigin(512)
	if err := origin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	in, err := faults.New("closing:blackhole", 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{Name: "closing", OriginURL: origin.URL(), UpdateInterval: time.Hour, InboundFaults: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	idle, hung := dialRaw(t, n.Addr()), dialRaw(t, n.Addr())
	hung.send("GET /fetch?url=x HTTP/1.1\r\nHost: node\r\n\r\n")
	waitFor(t, "the request to reach the injected hang", func() bool { return n.inboundInj.Counts().Hangs == 1 })

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	if _, gone := idle.rest(doorCloseGrace / 2); !gone {
		t.Errorf("the idle connection was still open %v into Close", time.Since(start))
	}
	select {
	case <-closed:
		t.Errorf("Close returned after %v with a request in flight, before the %v grace", time.Since(start), doorCloseGrace)
	default:
	}
	got, gone := hung.rest(5 * time.Second)
	if took := time.Since(start); !gone || len(got) != 0 || took < doorCloseGrace || took > doorCloseGrace+time.Second {
		t.Errorf("the hung request's connection: %q, closed %v after %v; want a silent close at the %v grace", got, gone, took, doorCloseGrace)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still running 1 s after the grace")
	}
	if _, err := net.DialTimeout("tcp", n.Addr(), time.Second); err == nil {
		t.Error("the listener still accepts after Close")
	}
	idle.c.Close()
	hung.c.Close()
	origin.Close()
	goroutinesSettle(t, base, "after Close with one idle connection and one hung request")

	// A handler deaf to its context: the grace over, its connection is closed
	// under it and close returns without it.
	release := make(chan struct{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	d := startFrontDoor(lis, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	}), nil)
	deaf := dialRaw(t, lis.Addr().String()).send("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	start = time.Now()
	d.close()
	if took := time.Since(start); took < doorCloseGrace || took > doorCloseGrace+time.Second {
		t.Errorf("close with a deaf handler took %v, want the %v grace", took, doorCloseGrace)
	}
	if got, gone := deaf.rest(time.Second); !gone || len(got) != 0 {
		t.Errorf("the deaf handler's connection after close: %q, closed %v; want it closed, unanswered", got, gone)
	}
	close(release)
	goroutinesSettle(t, base, "after the deaf handler was let go")
}

// TestFrontDoorCloseWaitsForRequests: a request in flight when Close begins
// is answered in full, its connection then closed rather than reused.
func TestFrontDoorCloseWaitsForRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := startFrontDoor(lis, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		if r.Context().Err() != nil {
			t.Error("the request's context ended inside the grace")
		}
		io.WriteString(w, "done")
	}), nil)
	rc := dialRaw(t, lis.Addr().String()).send("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.close()
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	resp, body := rc.response("GET")
	if _, closed := rc.rest(time.Second); resp.StatusCode != 200 || string(body) != "done" || !closed {
		t.Errorf("the request in flight got %d %q, closed %v; want its whole answer, then the close", resp.StatusCode, body, closed)
	}
	wg.Wait()
	if d.ctx.Err() == nil {
		t.Error("close returned with the door's context still live")
	}
}

// FuzzFrontDoorRequest feeds arbitrary bytes to a front-door connection in
// place. It may not panic or hang, and must end by closing the connection or
// running dry — whatever it answers on the way.
func FuzzFrontDoorRequest(f *testing.F) {
	f.Add([]byte("GET /fetch?url=http%3A%2F%2Fexample.com%2Fa HTTP/1.1\r\nHost: node\r\n\r\n"))
	f.Add([]byte("POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 5\r\n\r\nhelloGET /metrics HTTP/1.1\r\nHost: node\r\n\r\n"))
	f.Add([]byte("POST /purge?url=x HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HEAD /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /debug/spans?limit=1 HTTP/1.1\r\nHost: node\r\n\r\n"))
	f.Add(append([]byte("GET /peer HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n\r\n"),
		wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerPing, ID: 1})...))
	f.Add([]byte("GET /fetch?url=a\x00b HTTP/1.1\r\nHost: node\r\nX-Request-Id: a\rb\r\n\r\n"))
	f.Add([]byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"))
	n := newMetaNode(f, NodeConfig{Name: "fuzzed"})
	// No listener: connections are handed to it.
	d := &frontDoor{handler: n.Handler(), upgrade: n.acceptPeer, idle: 2 * time.Second, header: 2 * time.Second}
	d.quit, d.begin = context.WithCancel(context.Background())
	d.ctx, d.finish = context.WithCancel(context.Background())
	f.Cleanup(func() { d.begin(); d.finish() })
	f.Fuzz(func(t *testing.T, stream []byte) {
		near, far := net.Pipe()
		d.serve(near)
		go io.Copy(io.Discard, far)
		far.SetWriteDeadline(time.Now().Add(5 * time.Second))
		far.Write(stream)
		far.Close()
		done := make(chan struct{})
		go func() {
			d.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("connection loop still running 10 s after its connection closed")
		}
	})
}
