package cluster

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
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
