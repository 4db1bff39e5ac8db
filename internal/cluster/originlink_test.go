package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/hintcache"
)

// rawOrigin is a bare TCP listener standing in for an origin: serve gets
// every accepted connection (counted from 1) with the first request's header
// already read off it, and the connection is closed when serve returns.
type rawOrigin struct {
	url      string
	accepted atomic.Int64
	hungUp   atomic.Int64
}

func newRawOrigin(t *testing.T, serve func(nth int64, c net.Conn, br *bufio.Reader)) *rawOrigin {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &rawOrigin{url: "http://" + lis.Addr().String()}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			nth := o.accepted.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if br := bufio.NewReader(c); readRequestHead(br) {
					serve(nth, c, br)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return o
}

// untilHangUp holds c open until the node closes its end, and counts that.
func (o *rawOrigin) untilHangUp(c net.Conn) {
	io.Copy(io.Discard, c)
	o.hungUp.Add(1)
}

// readRequestHead reads one request's header block off br.
func readRequestHead(br *bufio.Reader) bool {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return false
		}
		if line == "\r\n" {
			return true
		}
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func idleOriginConns(n *Node) int {
	n.origin.mu.Lock()
	defer n.origin.mu.Unlock()
	return len(n.origin.idle)
}

// TestOriginStaleConnectionRetriedOnce: an idle connection the origin closed
// (here: a restart on the same address) is found out by the next fetch,
// which is tried once more on a fresh connection — and only then: a fresh
// connection that fails is the origin failing, and is not retried.
func TestOriginStaleConnectionRetriedOnce(t *testing.T) {
	origin := NewOrigin(512)
	var dials atomic.Int64
	start := func(addr string) *http.Server {
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: origin.Handler(), ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}}
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	first := start(addr)
	n := newMetaNode(t, NodeConfig{Name: "redialer", OriginURL: "http://" + addr})
	fetch := func(url string) error {
		_, err := n.fetchOrigin(context.Background(), url)
		return err
	}
	if err := fetch("http://example.com/a"); err != nil {
		t.Fatal(err)
	}
	if err := fetch("http://example.com/b"); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d connections for two sequential fetches, want the first one reused", got)
	}
	first.Close()
	start(addr)
	if err := fetch("http://example.com/c"); err != nil {
		t.Fatalf("fetch across an origin restart: %v", err)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d connections in all, want 2: exactly one redial", got)
	}
	if got := origin.Fetches(); got != 3 {
		t.Errorf("origin served %d fetches, want 3", got)
	}

	// An origin that hangs up on every request: the fetch on a reused
	// connection costs that one and one fresh dial, a fetch that starts on
	// a fresh one costs exactly it.
	hangsUp := newRawOrigin(t, func(nth int64, c net.Conn, br *bufio.Reader) {
		if nth == 1 {
			io.WriteString(c, "HTTP/1.1 200 OK\r\n"+headerVersion+": 1\r\nContent-Length: 2\r\n\r\nok")
			readRequestHead(br) // the second request arrives; it gets a hang-up
		}
	})
	m := newMetaNode(t, NodeConfig{Name: "unlucky", OriginURL: hangsUp.url})
	if _, err := m.fetchOrigin(context.Background(), "http://example.com/ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.fetchOrigin(context.Background(), "http://example.com/reused"); err == nil {
		t.Error("fetch from an origin that hangs up succeeded")
	}
	if got := hangsUp.accepted.Load(); got != 2 {
		t.Errorf("%d connections after a reused one failed, want 2: one retry", got)
	}
	if _, err := m.fetchOrigin(context.Background(), "http://example.com/fresh"); err == nil {
		t.Error("fetch from an origin that hangs up succeeded")
	}
	if got := hangsUp.accepted.Load(); got != 3 {
		t.Errorf("%d connections after a fresh one failed, want 3: no retry", got)
	}
}

// TestOriginHostileResponses: the origin is outside the fleet, so what it
// sends is checked like any other outside input.
func TestOriginHostileResponses(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\n" + headerVersion + ": 4\r\n"
	for _, c := range []struct {
		name   string
		answer string
		hangUp bool   // the origin closes the connection behind its answer
		body   string // what the fetch must return, when err is nil
		err    error
		pooled int // connections in the idle set afterwards
	}{
		// The header never ends: see the loop below.
		{"header past the bound", ok, false, "", errHeadTooLong, 0},
		{"body shorter than declared", ok + "Content-Length: 10\r\n\r\nshort", true, "", io.ErrUnexpectedEOF, 0},
		{"undeclared length", ok + "\r\nuntil the connection closes", true, "until the connection closes", nil, 0},
		{"chunked", ok + "Transfer-Encoding: chunked\r\n\r\n5\r\nchunk\r\n3\r\ned!\r\n0\r\n\r\n", false, "chunked!", nil, 1},
		{"Connection: close", ok + "Connection: close\r\nContent-Length: 4\r\n\r\nbody", false, "body", nil, 0},
		{"declared and kept alive", ok + "Content-Length: 4\r\n\r\nbody", false, "body", nil, 1},
		{"bytes past the answer", ok + "Content-Length: 4\r\n\r\nbody and more", false, "body", nil, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var o *rawOrigin
			o = newRawOrigin(t, func(_ int64, conn net.Conn, _ *bufio.Reader) {
				io.WriteString(conn, c.answer)
				for filler := []byte("X-Filler: " + strings.Repeat("x", 1000) + "\r\n"); c.err == errHeadTooLong; {
					if _, err := conn.Write(filler); err != nil {
						break
					}
				}
				if !c.hangUp {
					o.untilHangUp(conn)
				}
			})
			shorten(t, &originTimeout, 2*time.Second)
			n := newMetaNode(t, NodeConfig{Name: "careful", OriginURL: o.url})
			const url = "http://example.com/hostile"
			h := hintcache.HashURL(url)
			start := time.Now()
			out := n.fill(h, url, "", false)
			if c.err != nil {
				if !errors.Is(out.err, c.err) {
					t.Errorf("fill = %q, %v; want %v", out.body, out.err, c.err)
				}
				if n.data.Contains(h) {
					t.Error("a refused answer was cached")
				}
				if took := time.Since(start); took > time.Second {
					t.Errorf("refusing took %v: the answer was waited out, not bounded", took)
				}
			} else if out.err != nil || string(out.body) != c.body || out.version != 4 {
				t.Errorf("fill = v%d %q, %v; want v4 %q", out.version, out.body, out.err, c.body)
			}
			if got := idleOriginConns(n); got != c.pooled {
				t.Errorf("%d connections pooled, want %d", got, c.pooled)
			}
			if c.pooled == 0 && !c.hangUp {
				waitFor(t, "the connection to be closed", func() bool { return o.hungUp.Load() == 1 })
			}
		})
	}
}

// TestOriginFaultsArePerFetch: the outbound fault decision is drawn once per
// origin fetch, in front of the link, and plays out as it did in front of
// http.Transport: an error status and a drop never reach the origin, latency
// delays the fetch, a blackhole lasts until the fetch's own deadline — and
// none of them costs a pooled connection.
func TestOriginFaultsArePerFetch(t *testing.T) {
	const timeout = 60 * time.Millisecond
	origin := NewOrigin(256)
	if err := origin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })
	shorten(t, &originTimeout, timeout)
	n := newMetaNode(t, NodeConfig{Name: "faulted", OriginURL: origin.URL()})
	inj := n.FaultInjector()
	fetch := func(i int) (time.Duration, error) {
		start := time.Now()
		_, err := n.fetchOrigin(context.Background(), fmt.Sprintf("http://example.com/fault/%d", i))
		return time.Since(start), err
	}
	if _, err := fetch(0); err != nil {
		t.Fatal(err)
	}
	var injected *faults.InjectedError
	for i, c := range []struct {
		spec    string
		check   func(took time.Duration, err error) bool
		count   func(faults.Counts) int64
		reaches bool // the fetch still reaches the origin
	}{
		{"errrate=1,errcode=503", func(_ time.Duration, err error) bool {
			return err != nil && err.Error() == "origin fetch: status 503"
		}, func(c faults.Counts) int64 { return c.Errors }, false},
		{"droprate=1", func(_ time.Duration, err error) bool {
			return errors.As(err, &injected) && injected.Kind == "drop"
		}, func(c faults.Counts) int64 { return c.Drops }, false},
		{"latency=20ms", func(took time.Duration, err error) bool {
			return err == nil && took >= 20*time.Millisecond
		}, func(c faults.Counts) int64 { return c.Latency }, true},
		{"blackhole", func(took time.Duration, err error) bool {
			return errors.Is(err, context.DeadlineExceeded) && took >= timeout && took < 4*timeout
		}, func(c faults.Counts) int64 { return c.Hangs }, false},
	} {
		before, served := c.count(inj.Counts()), origin.Fetches()
		if err := inj.SetSpec(hostPortOf(origin.URL()) + ":" + c.spec); err != nil {
			t.Fatal(err)
		}
		if took, err := fetch(i + 1); !c.check(took, err) {
			t.Errorf("%s: fetch took %v, %v", c.spec, took, err)
		}
		if got := c.count(inj.Counts()) - before; got != 1 {
			t.Errorf("%s: injector counted %d decisions for one fetch", c.spec, got)
		}
		if got := origin.Fetches() - served; (got == 1) != c.reaches {
			t.Errorf("%s: %d requests reached the origin", c.spec, got)
		}
		if err := inj.SetSpec(""); err != nil {
			t.Fatal(err)
		}
		if got := idleOriginConns(n); got != 1 {
			t.Errorf("after %s: %d pooled connections, want the one healthy one", c.spec, got)
		}
	}
	if _, err := fetch(99); err != nil {
		t.Errorf("fetch after the faults healed: %v", err)
	}
}

// TestOriginURLValidated: the link is plain TCP, so NewNode refuses what it
// cannot dial, and a path prefix is kept in the request line.
func TestOriginURLValidated(t *testing.T) {
	for _, bad := range []string{"https://origin.example", "origin.example:80", "http://", "://x"} {
		if _, err := NewNode(NodeConfig{OriginURL: bad}); err == nil {
			t.Errorf("NewNode accepted OriginURL %q", bad)
		}
	}
	lines := make(chan string, 1)
	srv := http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lines <- r.Host + " " + r.RequestURI
		w.Header().Set(headerVersion, "1")
		io.WriteString(w, "x")
	})}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	host := lis.Addr().String()
	n := newMetaNode(t, NodeConfig{Name: "prefixed", OriginURL: "http://" + host + "/mirror/v1"})
	if _, err := n.fetchOrigin(context.Background(), "http://example.com/a b?c=d&e"); err != nil {
		t.Fatal(err)
	}
	if got, want := <-lines, host+" /mirror/v1/obj?url=http%3A%2F%2Fexample.com%2Fa+b%3Fc%3Dd%26e"; got != want {
		t.Errorf("request = %q, want %q", got, want)
	}
}
