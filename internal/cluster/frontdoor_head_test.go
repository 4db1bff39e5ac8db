package cluster

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"beyondcache/internal/hintcache"
)

// benchHead is the head the benchmark's client (an http.Transport given no
// headers) sends.
const benchHead = "GET /fetch?url=http%3A%2F%2Fexample.com%2Fa HTTP/1.1\r\nHost: 127.0.0.1:8001\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"

// TestDoorPlainHeadGrammar pins which heads the recogniser takes and which
// it leaves to http.ReadRequest — declining costs nothing but the fast path,
// accepting what it should not would be a second parser.
func TestDoorPlainHeadGrammar(t *testing.T) {
	line := func(s string) string { return "GET /fetch?url=x HTTP/1.1\r\nHost: node\r\n" + s + "\r\n" }
	for raw, plain := range map[string]bool{
		benchHead:                           true,
		benchHead + "GET /next HTTP/1.1\r":  true, // what is behind the head is not looked at
		line(""):                            true,
		line("X-Request-Id:  padded  \r\n"): true,
		line("accept: */*\r\nX-A:\r\n"):     true,
		"GET /a/b.c~d_e-f$&+,:;=@?q=%20&r=?/ HTTP/1.1\r\nHost: x\r\n\r\n":       true,
		"GET /metrics? HTTP/1.1\r\nhost: x\r\n\r\n":                             true,
		benchHead[:len(benchHead)-1]:                                            false, // not all here
		"GET /fetch?url=x HTTP/1.1\r\n":                                         false,
		"GET /fetch?url=x HTTP/1.1\r\n\r\n":                                     false, // no Host
		line("Host: other\r\n"):                                                 false,
		"GET /fetch?url=x HTTP/1.1\r\nHost:\r\n\r\n":                            false,
		"GET /fetch?url=x HTTP/1.0\r\nHost: node\r\n\r\n":                       false,
		"HEAD /fetch?url=x HTTP/1.1\r\nHost: node\r\n\r\n":                      false,
		"POST /purge?url=x HTTP/1.1\r\nHost: node\r\n\r\n":                      true, // no framing header: no body
		"POST /purge?url=x HTTP/1.1\r\nHost: node\r\nContent-Length: 0\r\n\r\n": false,
		"POST /purge?url=x HTTP/1.0\r\nHost: node\r\n\r\n":                      false,
		"PUT /purge?url=x HTTP/1.1\r\nHost: node\r\n\r\n":                       false,
		"POST* HTTP/1.1\r\nHost: node\r\n\r\n":                                  false,
		"GET http://node/fetch?url=x HTTP/1.1\r\nHost: node\r\n\r\n":            false,
		"GET * HTTP/1.1\r\nHost: node\r\n\r\n":                                  false,
		"GET //fetch?url=x HTTP/1.1\r\nHost: node\r\n\r\n":                      false,
		"GET /a%2Fb HTTP/1.1\r\nHost: node\r\n\r\n":                             false, // the path would be unescaped
		"GET /a?b#c HTTP/1.1\r\nHost: node\r\n\r\n":                             false,
		"GET /a b HTTP/1.1\r\nHost: node\r\n\r\n":                               false,
		"GET /a?\x7f HTTP/1.1\r\nHost: node\r\n\r\n":                            false,
		"GET /a?\xc3\xa9 HTTP/1.1\r\nHost: node\r\n\r\n":                        false,
		"GET /0 HTTP/1.1\r\r\n\r\n":                                             false,
		"GET /fetch?url=x HTTP/1.1\nHost: node\n\n":                             false, // bare LF line ends
		line("X-A: 1\r\nx-a: 2\r\n"):                                            false,
		line("X-A: 1\r\n continued\r\n"):                                        false,
		line("X-A : 1\r\n"):                                                     false,
		line("X-A\r\n"):                                                         false,
		line(": 1\r\n"):                                                         false,
		line("X-A: a\tb\r\n"):                                                   false,
		line("X-A: a\rb\r\n"):                                                   false,
		line("X-A: caf\xc3\xa9\r\n"):                                            false,
		line("Connection: keep-alive\r\n"):                                      false,
		line("connection: close\r\n"):                                           false,
		line("Content-Length: 0\r\n"):                                           false,
		line("Transfer-Encoding: chunked\r\n"):                                  false,
		line("Expect: 100-continue\r\n"):                                        false,
		line("Upgrade: " + peerProto + "\r\n"):                                  false,
		line("Trailer: X\r\n"):                                                  false,
		line("TE: trailers\r\n"):                                                false,
		line("Keep-Alive: timeout=5\r\n"):                                       false,
		line("Proxy-Connection: keep-alive\r\n"):                                false,
		line("Pragma: no-cache\r\n"):                                            false, // http.ReadRequest adds a Cache-Control for it
	} {
		var h plainHead
		h.init(context.Background())
		n := h.read([]byte(raw))
		if (n > 0) != plain {
			t.Errorf("read(%q) = %d; want plain %v", raw, n, plain)
		}
		if end := strings.Index(raw, "\r\n\r\n") + 4; plain && n != end {
			t.Errorf("read(%q) = %d, want the head's %d bytes", raw, n, end)
		}
	}
}

// FuzzDoorPlainHead: whatever the recogniser accepts, http.ReadRequest
// accepts, to the same length, as the same request in every field — checked
// on a connection that has read a different head before, and again on one
// that has just read this one, which takes its header map as it stands.
func FuzzDoorPlainHead(f *testing.F) {
	f.Add([]byte(benchHead))
	f.Add([]byte("GET /fetch?url=http://example.com/a&x=%zz HTTP/1.1\r\nHost: 127.0.0.1:8001\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n"))
	f.Add([]byte("GET /metrics? HTTP/1.1\r\nHost: node\r\n\r\n"))
	f.Add([]byte("POST /purge?url=http%3A%2F%2Fexample.com%2Fa HTTP/1.1\r\nHost: 127.0.0.1:8001\r\n\r\n"))
	f.Add([]byte("GET /debug/spans?since=3&limit=1 HTTP/1.1\r\nhost: node\r\nx-request-id:  a b  \r\n\r\nGET /"))
	f.Add([]byte("GET /0 HTTP/1.1\r\r\n\r\n"))
	f.Add([]byte("GET /a??b=? HTTP/1.1\r\nHost: a\r\nX-A:\r\nX-B: 1\r\nx-b: 2\r\n\r\n"))
	f.Add([]byte("GET /a HTTP/1.1\r\nX-A: 1\r\n folded\r\nHost: a\r\nPragma: no-cache\r\n\r\n"))
	const prior = "GET /prior HTTP/1.1\r\nHost: prior\r\nX-Prior: 1\r\n\r\n"
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, b []byte) {
		var h plainHead
		h.init(ctx)
		if h.read([]byte(prior)) != len(prior) {
			t.Fatal("the prior head was declined")
		}
		for round := 0; round < 2; round++ {
			n := h.read(b)
			if n == 0 && round == 0 {
				return
			}
			src := bytes.NewReader(b)
			br := bufio.NewReaderSize(src, len(b)+16)
			want, err := http.ReadRequest(br)
			if err != nil {
				t.Fatalf("round %d: %d bytes accepted of a head http.ReadRequest rejects: %v", round, n, err)
			}
			if took := len(b) - src.Len() - br.Buffered(); n != took {
				t.Fatalf("round %d: %d bytes accepted, http.ReadRequest took %d", round, n, took)
			}
			// Every field, exported or not; the context is the one difference.
			if want = want.WithContext(ctx); !reflect.DeepEqual(&h.req, want) {
				t.Fatalf("round %d:\n got  %+v\n      %+v\n want %+v\n      %+v", round, h.req, *h.req.URL, *want, *want.URL)
			}
		}
	})
}

// TestFrontDoorNoBleed: three requests pipelined on one connection, each with
// a header the others lack and the middle one without a request ID, are each
// handed exactly their own headers through the reused request — and a node
// gives the middle one an ID of its own making.
func TestFrontDoorNoBleed(t *testing.T) {
	head := func(extra string) string { return "GET /fetch?url=bleed HTTP/1.1\r\nHost: node\r\n" + extra + "\r\n" }
	raw := head("X-Request-Id: a\r\nX-One: 1\r\n") + head("X-Two: 2\r\n") + head("X-Request-Id: b\r\nX-Three: 3\r\n")
	var mu sync.Mutex
	var seen []http.Header
	addr := stubDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Clone())
		mu.Unlock()
	}))
	rc := dialRaw(t, addr).send(raw)
	for range 3 {
		rc.response("GET")
	}
	want := []http.Header{
		{"X-Request-Id": {"a"}, "X-One": {"1"}},
		{"X-Two": {"2"}},
		{"X-Request-Id": {"b"}, "X-Three": {"3"}},
	}
	mu.Lock()
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("the handler saw %v, want %v", seen, want)
	}
	mu.Unlock()

	n, _ := doorNode(t, NodeConfig{Name: "bleed"})
	rc = dialRaw(t, n.Addr()).send(raw)
	var ids []string
	for range 3 {
		resp, _ := rc.response("GET")
		ids = append(ids, resp.Header.Get(headerRequestID))
	}
	if ids[0] != "a" || ids[2] != "b" || !strings.HasPrefix(ids[1], n.label()+"-") {
		t.Errorf("request IDs answered = %q; want a, one the node made, b", ids)
	}
}

// Answer heads as the links meet them: an origin's object answer (net/http's
// server), and a node's door answering a purge, 204 and http.Error's 404.
const (
	originAnswer    = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: application/octet-stream\r\nX-Object-Version: 3\r\nX-Trace-Hop: origin;ORIGIN-SERVE;12us\r\nDate: Tue, 20 Oct 2026 16:46:23 GMT\r\n\r\nhello"
	purgedAnswer    = "HTTP/1.1 204 No Content\r\nDate: Tue, 20 Oct 2026 16:46:23 GMT\r\n\r\n"
	notCachedAnswer = "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nDate: Tue, 20 Oct 2026 16:46:23 GMT\r\nContent-Length: 11\r\n\r\nnot cached\n"
)

// TestPlainAnswerGrammar pins which answer heads the links' recogniser takes
// and which it leaves to http.ReadResponse, and what it reads of those it
// takes.
func TestPlainAnswerGrammar(t *testing.T) {
	head := func(s string) string { return "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n" + s + "\r\nhello" }
	for raw, want := range map[string]answer{
		originAnswer:    {status: 200, length: 5, version: "3", hop: "origin;ORIGIN-SERVE;12us"},
		purgedAnswer:    {status: 204},
		notCachedAnswer: {status: 404, length: 11},
		head(""):        {status: 200, length: 5},
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n":                  {status: 200},
		"HTTP/1.1 200 OK\r\nContent-Length: 000000000000000007\r\n\r\n": {status: 200, length: 7},
		head("X-Object-Version: not a number\r\n"):                      {status: 200, length: 5, version: "not a number"},

		originAnswer[:strings.Index(originAnswer, "\r\n\r\n")+3]:                       {}, // not all here
		"HTTP/1.1 200 OK\r\nContent-Le":                                                {},
		"HTTP/1.1 200 OK\r\n\r\n":                                                      {}, // no length: read to the close
		"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n":                         {},
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\n":                                 {},
		"HTTP/1.1 200 Fine\r\nContent-Length: 5\r\n\r\n":                               {},
		"HTTP/1.1 206 Partial Content\r\nContent-Length: 5\r\n\r\n":                    {},
		"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 5\r\n\r\n":                        {},
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n": {},
		head("Connection: close\r\n"):                                                  {},
		head("Content-Length: 5\r\n"):                                                  {},
		head("X-Object-Version: 1\r\nX-Object-Version: 1\r\n"):                         {},
		"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\n":                                {},
		"HTTP/1.1 200 OK\r\nContent-Length: 1234567890123456789\r\n\r\n":               {},
		"HTTP/1.1 200 OK\r\nContent-Length: 5 \r\n\r\n":                                {},
		"HTTP/1.1 200 OK\r\nContent-Length:5\r\n\r\n":                                  {},
		"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n":                                 {},
		head("X-Trace-Hop: a\r\n b\r\n"):                                               {},
		head(" X-Trace-Hop: a\r\n"):                                                    {},
		head("X-Trace-Hop: a\tb\r\n"):                                                  {},
		head("X-Trace-Hop:  a\r\n"):                                                    {},
		head("X-Trace-Hop: \r\n"):                                                      {},
		head("X-Trace-Hop: caf\xc3\xa9\r\n"):                                           {},
		head("X-Cache: LOCAL\r\n"):                                                     {},
		"HTTP/1.1 200 OK\nContent-Length: 5\n\nhello":                                  {}, // bare LF line ends
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\r\n\r\n":                               {},
	} {
		got, n := readPlainAnswer([]byte(raw))
		if want.status == 0 {
			if n != 0 {
				t.Errorf("readPlainAnswer(%q) took %d bytes, want it declined", raw, n)
			}
			continue
		}
		if end := strings.Index(raw, "\r\n\r\n") + 4; n != end || headOf(got) != headOf(want) {
			t.Errorf("readPlainAnswer(%q) = %+v, %d; want %+v, %d", raw, got, n, want, end)
		}
	}
}

// TestPlainAnswerLive: the answers an origin and a node's door really send a
// link — an object, a purge's 204 and its 404 — are the plain ones the
// recogniser takes, so the links' common answers never reach net/http.
func TestPlainAnswerLive(t *testing.T) {
	n, origin := doorNode(t, NodeConfig{Name: "plain"})
	const url = "http://example.com/plain"
	if out := n.fill(hintcache.HashURL(url), url, "", false); out.err != nil {
		t.Fatal(out.err)
	}
	for _, c := range []struct {
		addr, req string
		status    int
		body      string
	}{
		{origin.Addr(), "GET /obj?url=" + url + " HTTP/1.1\r\nHost: o\r\n\r\n", http.StatusOK, string(objectBody(url, 1, 8<<10))},
		{n.Addr(), "POST /purge?url=" + url + " HTTP/1.1\r\nHost: n\r\n\r\n", http.StatusNoContent, ""},
		{n.Addr(), "POST /purge?url=" + url + " HTTP/1.1\r\nHost: n\r\n\r\n", http.StatusNotFound, "not cached\n"},
	} {
		rc := dialRaw(t, c.addr).send(c.req)
		var got []byte
		for {
			b := make([]byte, 4<<10)
			m, err := rc.c.Read(b)
			if err != nil {
				t.Fatalf("%s: read %q, then %v; the recogniser never took the head", c.req, got, err)
			}
			got = append(got, b[:m]...)
			if a, n := readPlainAnswer(got); n > 0 && int64(len(got)) >= int64(n)+a.length {
				if a.status != c.status || string(got[n:]) != c.body {
					t.Errorf("%s: answered %d, %q; want %d, %q", c.req, a.status, got[n:], c.status, c.body)
				}
				break
			}
		}
	}
}

// TestPlainAnswerShortBody: the body of a recognised answer that ends short
// of its declared length fails its reader, as net/http's body does, so the
// link does not keep a connection its upstream closed mid-body.
func TestPlainAnswerShortBody(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		defer s.Close()
		if _, err := http.ReadRequest(bufio.NewReader(s)); err == nil {
			s.Write([]byte(notCachedAnswer[:len(notCachedAnswer)-5]))
		}
	}()
	a, err := request(newUpConn(c), http.MethodPost, "/purge?url=", "u", "n")
	if err != nil || a.header != nil {
		t.Fatalf("request = %+v, %v; want a recognised 404", a, err)
	}
	if _, err := io.Copy(io.Discard, a.body); err != io.ErrUnexpectedEOF {
		t.Errorf("reading a body cut 5 bytes short: %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// FuzzOriginPlainAnswer: whatever answer head the links' recogniser accepts,
// http.ReadResponse accepts, to the same length, with the same status, body
// length, connection verdict, X-Object-Version and X-Trace-Hop.
func FuzzOriginPlainAnswer(f *testing.F) {
	f.Add([]byte(originAnswer))
	f.Add([]byte(purgedAnswer))
	f.Add([]byte(notCachedAnswer))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Trace-Hop: a\r\n b\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nX-Object-Version: 1\r\nContent-Le"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, n := readPlainAnswer(b)
		if n == 0 {
			return
		}
		src := bytes.NewReader(b)
		br := bufio.NewReaderSize(src, len(b)+16)
		want, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%d bytes accepted of a head http.ReadResponse rejects: %v", n, err)
		}
		if took := len(b) - src.Len() - br.Buffered(); n != took {
			t.Fatalf("%d bytes accepted, http.ReadResponse took %d", n, took)
		}
		if w := answerOf(want); headOf(got) != headOf(w) {
			t.Fatalf("read %v, http.ReadResponse %v", headOf(got), headOf(w))
		}
	})
}

// headOf is what an answer's head says: status, body length, connection
// verdict, X-Object-Version and X-Trace-Hop.
func headOf(a answer) [5]any { return [5]any{a.status, a.length, a.close, a.version, a.hop} }
