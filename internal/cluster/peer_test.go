package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/resilience"
	"beyondcache/internal/wire"
)

// Peer-plane tests: what a leased connection can get wrong. Each fails if
// the property it names is dropped — no head-of-line blocking, per-call
// faults, deadlines against a stuck peer, bounded work on hostile frames, a
// small call beside a stalled body, and no leak after Close.

// testPeerClient is a bare peer-plane caller: the production dial and
// exchange on one connection, without a node (or its fault injector) around
// them.
type testPeerClient struct {
	t  testing.TB
	uc *upConn
}

func dialTestPeer(t testing.TB, baseURL string) *testPeerClient {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	uc, err := dialPeer(ctx, tcp(), hostPortOf(baseURL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.c.Close() })
	return &testPeerClient{t: t, uc: uc}
}

// call makes one call and waits up to five seconds for its answer.
func (c *testPeerClient) call(h wire.PeerHeader, body []byte) (peerReply, error) {
	c.uc.c.SetDeadline(time.Now().Add(5 * time.Second))
	r, err := c.uc.call(h, body)
	if err == nil && r.Status == 0 {
		err = errPeerAborted
	}
	return r, err
}

// mustCall is call for the tests that expect an answer.
func (c *testPeerClient) mustCall(h wire.PeerHeader, body []byte) peerReply {
	c.t.Helper()
	r, err := c.call(h, body)
	if err != nil {
		c.t.Fatalf("peer call op %d: %v", h.Op, err)
	}
	return r
}

// stubPeer is a frame-speaking stand-in for a node: it accepts the upgrade
// and answers every call, one at a time per connection, with whatever
// answer returns (op, response flag and ID are filled in).
type stubPeer struct {
	*httptest.Server
	mu    sync.Mutex
	conns []net.Conn
}

func newStubPeer(t testing.TB, answer func(h wire.PeerHeader, body []byte) (wire.PeerHeader, []byte)) *stubPeer {
	t.Helper()
	s := &stubPeer{}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, br := s.upgrade(w); c != nil {
			answerCalls(br, c, answer)
		}
	}))
	t.Cleanup(s.close)
	return s
}

// answerCalls reads calls off r and writes answer's reply to each to w, one
// at a time, until either side fails.
func answerCalls(r io.Reader, w io.Writer, answer func(h wire.PeerHeader, body []byte) (wire.PeerHeader, []byte)) {
	hdr := make([]byte, wire.PeerHeaderSize)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return
		}
		h, err := wire.DecodePeerHeader(hdr)
		if err != nil {
			return
		}
		body := make([]byte, h.Len)
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		resp, out := answer(h, body)
		resp.Op, resp.Response, resp.ID, resp.Len = h.Op, true, h.ID, len(out)
		if _, err := w.Write(append(wire.AppendPeerHeader(nil, resp), out...)); err != nil {
			return
		}
	}
}

// upgrade hijacks w's connection and completes the handshake.
func (s *stubPeer) upgrade(w http.ResponseWriter) (net.Conn, *bufio.Reader) {
	c, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return nil, nil
	}
	s.mu.Lock()
	s.conns = append(s.conns, c)
	s.mu.Unlock()
	c.SetDeadline(time.Time{})
	io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n\r\n")
	return c, brw.Reader
}

func (s *stubPeer) close() {
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.Server.Close()
}

func pingHeader() wire.PeerHeader { return wire.PeerHeader{Op: wire.PeerPing} }

// peerOf is n's record of the peer at url, added if it is new to n.
func peerOf(n *Node, url string) *peer {
	n.AddPeer(url)
	return n.peerByID(hintcache.HashMachine(hostPortOf(url)))
}

// idleOf is n's idle set for the peer at peerURL, most recently used last.
func idleOf(n *Node, peerURL string) []*upConn {
	p := peerOf(n, peerURL)
	n.plane.mu.Lock()
	defer n.plane.mu.Unlock()
	return slices.Clone(p.link.idle)
}

// putIdle makes c the idle connection n's next call to the peer at peerURL
// leases.
func putIdle(n *Node, peerURL string, c net.Conn) *upConn {
	p, uc := peerOf(n, peerURL), newUpConn(c)
	n.plane.add(uc, nil)
	n.plane.mu.Lock()
	p.link.idle = append(p.link.idle, uc)
	n.plane.mu.Unlock()
	return uc
}

// pingPeer pings the peer at peerURL from n, with a deadline of d.
func pingPeer(n *Node, peerURL string, d time.Duration) (peerReply, error) {
	return n.call(context.Background(), peerOf(n, peerURL), d, pingHeader(), nil)
}

// TestPeerNoHeadOfLineBlocking: with one call from a node held by an inbound
// latency rule, a ping and a holder lookup the node makes to the same peer
// finish at once, each on a connection of its own.
func TestPeerNoHeadOfLineBlocking(t *testing.T) {
	const stall = 400 * time.Millisecond
	inj, err := faults.New("slow:latency="+stall.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	target := newMetaNode(t, NodeConfig{Name: "slow", InboundFaults: inj})
	n := newMetaNode(t, NodeConfig{Name: "caller"})
	call := func(h wire.PeerHeader, body []byte) (peerReply, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return n.call(ctx, peerOf(n, target.URL()), metadataTimeout, h, body)
	}

	slow := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		call(wire.PeerHeader{Op: wire.PeerObject}, []byte("http://example.com/hol"))
		slow <- time.Since(start)
	}()
	// The rule is drawn when the server reads the frame; once it has been,
	// heal, so only that one call is delayed.
	for deadline := time.Now().Add(5 * time.Second); inj.Counts().Latency == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled call never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	if err := inj.SetSpec(""); err != nil {
		t.Fatal(err)
	}
	for _, h := range []wire.PeerHeader{pingHeader(), {Op: wire.PeerHolder, B: 42}} {
		t0 := time.Now()
		r, err := call(h, nil)
		if took := time.Since(t0); err != nil || took > stall/4 {
			t.Errorf("op %d beside a stalled call: %v after %v, want an answer in single-digit milliseconds", h.Op, err, took)
		}
		if r.Status != http.StatusNoContent && r.Status != http.StatusNotFound {
			t.Errorf("op %d status %d", h.Op, r.Status)
		}
	}
	if took := <-slow; took < stall {
		t.Errorf("the delayed call returned after %v, want >= %v", took, stall)
	}
	if got := len(idleOf(n, target.URL())); got != 2 {
		t.Errorf("%d idle connections after a stalled call and two beside it, want 2: one leased by the stalled call, one by the others in turn", got)
	}
}

// TestPeerFaultsArePerCall: a fault rule fails exactly the calls it was
// drawn for and Injector.Counts sees one decision per call; the calls
// around them are untouched, and so is the connection: the idle one after
// the faults is the one before them.
func TestPeerFaultsArePerCall(t *testing.T) {
	in, err := faults.New("", 4)
	if err != nil {
		t.Fatal(err)
	}
	target := newMetaNode(t, NodeConfig{Name: "target", InboundFaults: in})
	n := newMetaNode(t, NodeConfig{Name: "caller"})
	inj := n.FaultInjector()
	host := hostPortOf(target.URL())
	ping := func() (peerReply, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		return n.call(ctx, peerOf(n, target.URL()), metadataTimeout, pingHeader(), nil)
	}
	healthy := func(when string) {
		t.Helper()
		if r, err := ping(); err != nil || r.Status != http.StatusNoContent {
			t.Fatalf("%s: ping = status %d, %v; want 204", when, r.Status, err)
		}
	}
	healthy("before any fault")
	before := idleOf(n, target.URL())
	if len(before) != 1 {
		t.Fatalf("%d idle connections after one ping, want 1", len(before))
	}

	for _, c := range []struct {
		spec  string
		check func(r peerReply, err error) bool
		count func(faults.Counts) int64
	}{
		{"droprate=1", func(_ peerReply, err error) bool { return err != nil }, func(c faults.Counts) int64 { return c.Drops }},
		{"errrate=1,errcode=502", func(r peerReply, err error) bool { return err == nil && r.Status == 502 }, func(c faults.Counts) int64 { return c.Errors }},
		{"blackhole", func(_ peerReply, err error) bool { return err == context.DeadlineExceeded }, func(c faults.Counts) int64 { return c.Hangs }},
	} {
		before := c.count(inj.Counts())
		if err := inj.SetSpec(host + ":" + c.spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if r, err := ping(); !c.check(r, err) {
				t.Errorf("%s: ping = status %d, %v", c.spec, r.Status, err)
			}
		}
		if got := c.count(inj.Counts()) - before; got != 3 {
			t.Errorf("%s: injector counted %d decisions for 3 calls", c.spec, got)
		}
		if err := inj.SetSpec(""); err != nil {
			t.Fatal(err)
		}
		healthy("after " + c.spec)
	}
	// Nor does a caller whose deadline has already passed: it leases
	// nothing, so it cannot cut the connection it would have leased.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		if _, err := n.call(ctx, peerOf(n, target.URL()), metadataTimeout, pingHeader(), nil); err != context.DeadlineExceeded {
			t.Errorf("ping under an expired deadline = %v", err)
		}
		cancel()
	}
	if got := idleOf(n, target.URL()); !slices.Equal(got, before) {
		t.Error("per-call faults or an expired caller cost the connection; they must touch only their own calls")
	}

	// The serving side draws per call too: its drops abort single calls.
	if err := in.SetSpec("target:droprate=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ping(); err != errPeerAborted {
		t.Errorf("ping into an inbound drop = %v, want %v", err, errPeerAborted)
	}
	if err := in.SetSpec(""); err != nil {
		t.Fatal(err)
	}
	healthy("after the inbound drop")
	if got := in.Counts().Drops; got != 1 {
		t.Errorf("inbound injector counted %d drops for 1 call", got)
	}
	if got := idleOf(n, target.URL()); !slices.Equal(got, before) {
		t.Error("an inbound per-call drop replaced the connection")
	}
}

// TestPeerStuckPeerCostsDeadlinesOnly: a peer that has stopped reading and
// never answers — in-process connections whose far end takes 64 KiB, a
// socket buffer's worth, and then nothing. Every call returns by its own
// deadline, a 1 MiB hint batch that cannot be written included; the breaker
// opens; each call cut short costs its connection, and the next call
// redials.
func TestPeerStuckPeerCostsDeadlinesOnly(t *testing.T) {
	healthy := newStubPeer(t, func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
		return wire.PeerHeader{Status: http.StatusNoContent}, nil
	})
	n := newMetaNode(t, NodeConfig{Name: "patient"})
	n.breakerCfg = resilience.BreakerConfig{Window: 4, FailureThreshold: 0.5, MinSamples: 2, Cooldown: time.Hour}
	n.AddPeer(healthy.URL)
	p := peerOf(n, healthy.URL)
	stuck := make([]*upConn, 3)
	for i := range stuck {
		near, far := net.Pipe()
		t.Cleanup(func() { far.Close() })
		go io.CopyN(io.Discard, far, 64<<10)
		stuck[i] = putIdle(n, healthy.URL, near)
	}

	timed := func(name string, d time.Duration, call func(context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		start := time.Now()
		err := call(ctx)
		if took := time.Since(start); err == nil || took > d+100*time.Millisecond {
			t.Errorf("%s: %v after %v, want an error by its own %v deadline", name, err, took, d)
		}
	}
	// The data path sees a string of timeouts, each on time, and the
	// peer's breaker opens.
	for i := 0; i < 2; i++ {
		timed("object call into a stuck peer", 150*time.Millisecond, func(ctx context.Context) error {
			_, err := n.fetchPeer(ctx, p, "http://example.com/stuck", "", false)
			return err
		})
	}
	if st := p.br.Stats(); st.State != resilience.Open {
		t.Errorf("breaker after calls into a stuck peer = %v, want open", st.State)
	}
	timed("1 MiB batch", 200*time.Millisecond, func(ctx context.Context) error {
		_, err := n.call(ctx, p, metadataTimeout, wire.PeerHeader{Op: wire.PeerHints}, make([]byte, updatesLimit))
		return err
	})

	if r, err := pingPeer(n, healthy.URL, time.Second); err != nil || r.Status != http.StatusNoContent {
		t.Errorf("ping after the stuck connections = status %d, %v; want 204 over a fresh one", r.Status, err)
	}
	n.plane.mu.Lock()
	defer n.plane.mu.Unlock()
	for _, uc := range stuck {
		if _, live := n.plane.conns[uc]; live || slices.Contains(p.link.idle, uc) {
			t.Error("a connection whose call was cut short outlived its call")
		}
	}
}

// TestPeerCallRetriesOnceOnStaleConnection: the origin link's rule, on the
// peer plane. A connection the peer closed while it sat idle — it restarted
// — is found out by the call that next leases it; nothing of an answer
// arrived on a reused connection, so the call is tried once more, on a
// fresh one. A peer that keeps hanging up costs a call on a reused
// connection that one and one fresh dial, and a call that starts on a fresh
// connection exactly it: not a loop.
func TestPeerCallRetriesOnceOnStaleConnection(t *testing.T) {
	var upgrades atomic.Int64
	var hangsUp atomic.Bool // every connection hangs up on its first call
	s := &stubPeer{}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, br := s.upgrade(w)
		if c == nil {
			return
		}
		nth := upgrades.Add(1)
		hdr := make([]byte, wire.PeerHeaderSize)
		for calls := 0; ; calls++ {
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			if hangsUp.Load() || nth == 1 && calls == 1 {
				c.Close() // the call arrived on a connection already given up
				return
			}
			h, _ := wire.DecodePeerHeader(hdr)
			c.Write(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID, Status: http.StatusNoContent}))
		}
	}))
	t.Cleanup(s.close)
	n := newMetaNode(t, NodeConfig{Name: "redialer"})
	ping := func() (peerReply, error) { return pingPeer(n, s.URL, 5*time.Second) }
	for i, want := range []int64{1, 2} {
		if r, err := ping(); err != nil || r.Status != http.StatusNoContent {
			t.Fatalf("ping %d = status %d, %v; want 204 (the second across a hang-up, from a second connection)", i+1, r.Status, err)
		}
		if got := upgrades.Load(); got != want {
			t.Errorf("%d connections dialed after ping %d, want %d", got, i+1, want)
		}
	}

	hangsUp.Store(true)
	if _, err := ping(); err == nil {
		t.Error("ping to a peer that hangs up succeeded")
	}
	if got := upgrades.Load(); got != 3 {
		t.Errorf("%d connections dialed after a reused one failed, want 3: one retry", got)
	}
	if _, err := ping(); err == nil {
		t.Error("ping to a peer that hangs up succeeded")
	}
	if got := upgrades.Load(); got != 4 {
		t.Errorf("%d connections dialed after a fresh one failed, want 4: no retry", got)
	}
}

// rawPeerConn upgrades a connection to n and returns it bare, for tests that
// must write bytes no honest peer would.
func rawPeerConn(t *testing.T, n *Node) (net.Conn, *bufio.Reader) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	uc, err := dialPeer(ctx, tcp(), hostPortOf(n.URL()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { uc.c.Close() })
	uc.c.SetDeadline(time.Now().Add(5 * time.Second))
	return uc.c, uc.br
}

// dropped reports whether the far end closed c without sending anything.
func dropped(br *bufio.Reader) bool {
	_, err := br.ReadByte()
	return err == io.EOF
}

// TestPeerDialBoundsHandshakeHeader: whatever answers at a peer's address
// with a 101 and then one endless header line fails the dial at the header
// limit — the error only the exhausted 64 KiB meter raises, so no more than
// that was read — and long before the dial timeout, not by it.
func TestPeerDialBoundsHandshakeHeader(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nX-Filler: ")
		for filler := bytes.Repeat([]byte("x"), 4<<10); ; {
			if _, err := c.Write(filler); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), peerDialTimeout)
	defer cancel()
	start := time.Now()
	uc, err := dialPeer(ctx, tcp(), lis.Addr().String())
	if err == nil {
		uc.c.Close()
		t.Fatal("dial accepted a handshake whose header never ends")
	}
	if !errors.Is(err, errHeadTooLong) {
		t.Fatalf("dial failed with %v, want the header-limit error", err)
	}
	if took := time.Since(start); took > peerDialTimeout/2 {
		t.Errorf("dial took %v to refuse: the limit must fire, not the %v dial timeout", took, peerDialTimeout)
	}
}

// TestPeerPipelinedCallsAnsweredInOrder: a caller that writes several calls
// before reading any answer — an older node's, whose calls shared one
// connection — gets its answers in order, each under its own call's ID.
func TestPeerPipelinedCallsAnsweredInOrder(t *testing.T) {
	n := newMetaNode(t, NodeConfig{Name: "pipelined"})
	c, br := rawPeerConn(t, n)
	const url = "http://example.com/pipelined"
	calls := []wire.PeerHeader{{Op: wire.PeerPing, ID: 5}, {Op: wire.PeerHolder, ID: 9, B: 42}, {Op: wire.PeerObject, ID: 7, Len: len(url)}}
	var raw []byte
	for _, h := range calls {
		raw = wire.AppendPeerHeader(raw, h)
	}
	if _, err := c.Write(append(raw, url...)); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, wire.PeerHeaderSize)
	for i, call := range calls {
		if _, err := io.ReadFull(br, hdr); err != nil {
			t.Fatalf("answer %d: %v", i+1, err)
		}
		h, err := wire.DecodePeerHeader(hdr)
		if err != nil || !h.Response || h.Op != call.Op || h.ID != call.ID || h.Len != 0 || h.Status == 0 {
			t.Errorf("answer %d = %+v, %v; want op %d's answer under ID %d", i+1, h, err, call.Op, call.ID)
		}
	}
}

// TestPeerHostileFrames: what a peer sends cannot make a node allocate past
// the op's limit, panic, or lose its footing — the frame is refused or the
// connection dropped, and an oversized batch still counts.
func TestPeerHostileFrames(t *testing.T) {
	n := newMetaNode(t, NodeConfig{Name: "wary"})
	frame := func(h wire.PeerHeader, body []byte) []byte {
		if h.Len == 0 {
			h.Len = len(body)
		}
		return append(wire.AppendPeerHeader(nil, h), body...)
	}

	t.Run("declared length over the op's limit", func(t *testing.T) {
		for _, h := range []wire.PeerHeader{
			{Op: wire.PeerObject, Len: peerRequestLimit + 1},
			{Op: wire.PeerHolder, Len: 1 << 30},
		} {
			c, br := rawPeerConn(t, n)
			c.Write(frame(h, nil)) // the body never follows: nothing may wait for it
			if !dropped(br) {
				t.Errorf("op %d declaring %d body bytes was not dropped", h.Op, h.Len)
			}
		}
		before := n.Stats().OversizeRejects
		c, br := rawPeerConn(t, n)
		c.Write(frame(wire.PeerHeader{Op: wire.PeerHints, ID: 7, Len: updatesLimit + 1}, nil))
		hdr := make([]byte, wire.PeerHeaderSize)
		if _, err := io.ReadFull(br, hdr); err != nil {
			t.Fatalf("oversized batch got no refusal: %v", err)
		}
		if h, _ := wire.DecodePeerHeader(hdr); h.Status != http.StatusRequestEntityTooLarge || h.ID != 7 {
			t.Errorf("oversized batch answered %+v, want status 413 for call 7", h)
		}
		if !dropped(br) {
			t.Error("connection survived an unread oversized batch")
		}
		if got := n.Stats().OversizeRejects - before; got != 1 {
			t.Errorf("OversizeRejects moved by %d, want 1", got)
		}
	})

	t.Run("garbage where a header belongs", func(t *testing.T) {
		for name, raw := range map[string][]byte{
			"unknown op":       frame(wire.PeerHeader{Op: 99}, nil),
			"bad magic":        bytes.Repeat([]byte{0xFF}, wire.PeerHeaderSize),
			"answer as a call": frame(wire.PeerHeader{Op: wire.PeerPing, Response: true}, nil),
		} {
			c, br := rawPeerConn(t, n)
			c.Write(raw)
			if !dropped(br) {
				t.Errorf("%s: connection not dropped", name)
			}
		}
	})

	t.Run("half a header then silence", func(t *testing.T) {
		c, _ := rawPeerConn(t, n)
		c.Write(frame(pingHeader(), nil)[:wire.PeerHeaderSize/2])
		// Costs the node one parked goroutine, no more; the others' calls
		// are served and Close (in cleanup) still returns.
		if r := dialTestPeer(t, n.URL()).mustCall(pingHeader(), nil); r.Status != http.StatusNoContent {
			t.Errorf("ping beside a half-sent header = %d", r.Status)
		}
	})

	t.Run("an answer nobody waits for", func(t *testing.T) {
		s := newStubPeer(t, func(h wire.PeerHeader, _ []byte) (wire.PeerHeader, []byte) {
			if h.A == 1 {
				return wire.PeerHeader{Status: http.StatusNoContent}, []byte{1} // a body no ping answer carries
			}
			return wire.PeerHeader{Status: http.StatusNoContent}, nil
		})
		caller := newMetaNode(t, NodeConfig{Name: "caller"})
		ping := func() (peerReply, error) { return pingPeer(caller, s.URL, 5*time.Second) }
		if _, err := ping(); err != nil {
			t.Fatal(err)
		}
		// An unsolicited answer lands on the idle connection: the next call
		// reads it where its own answer belongs, under another ID, and fails,
		// and the connection goes with it.
		s.mu.Lock()
		s.conns[0].Write(frame(wire.PeerHeader{Op: wire.PeerObject, Response: true, ID: 12345, Status: http.StatusOK}, make([]byte, 3000)))
		s.mu.Unlock()
		if _, err := ping(); err == nil {
			t.Error("a call took a stray answer, under another ID, for its own")
		}
		if got := idleOf(caller, s.URL); len(got) != 0 {
			t.Error("the connection that carried a stray answer was kept")
		}
		if r, err := ping(); err != nil || r.Status != http.StatusNoContent {
			t.Errorf("ping after a stray answer = %d, %v; want 204 over a fresh connection", r.Status, err)
		}
		// An answer whose body exceeds its op's limit fails its call too.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := caller.call(ctx, peerOf(caller, s.URL), metadataTimeout, wire.PeerHeader{Op: wire.PeerPing, A: 1}, nil); err == nil {
			t.Error("a ping answer declaring a body was taken")
		}
		if got := idleOf(caller, s.URL); len(got) != 0 {
			t.Error("the connection that carried a bad answer was kept")
		}
	})
}

// FuzzPeerFrame feeds arbitrary bytes to both decoders in place: as the
// request stream of an accepted connection and as the answer to one call on
// a dialed one. Neither may panic, hang, or be talked into allocating past
// the op limits; each must end by dropping the connection, running dry or
// (the dialed side) taking one answer.
func FuzzPeerFrame(f *testing.F) {
	f.Add(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerPing, ID: 1}))
	f.Add(append(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerObject, ID: 1, Len: 5}), "hello"...))
	f.Add(append(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerHints, ID: 1, Len: hintcache.UpdateSize}),
		hintBatch(hintcache.Update{Action: hintcache.ActionInform, URLHash: 1, Machine: 2})...))
	f.Add(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerDigest, Response: true, ID: 1, Len: 1 << 30}))
	f.Add(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerHolder, ID: 1, B: 9, Len: 1 << 20}))
	f.Add([]byte("bp\x01\x00"))
	f.Add(append(wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerHolder, Response: true, Status: http.StatusOK, ID: 1, A: 7, C: 2, Len: 5}), "hello"...))
	n := newMetaNode(f, NodeConfig{Name: "fuzzed"})
	f.Fuzz(func(t *testing.T, stream []byte) {
		// pipe runs end against one end of an in-process connection, closing
		// it when end returns, and plays stream into the other, draining
		// whatever comes back.
		pipe := func(end func(net.Conn)) {
			near, far := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer near.Close()
				end(near)
			}()
			go io.Copy(io.Discard, far)
			far.SetWriteDeadline(time.Now().Add(5 * time.Second))
			far.Write(stream)
			far.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("frame loop still running 10 s after its connection closed")
			}
		}
		pipe(func(c net.Conn) { n.servePeer(&upConn{c: c, br: bufio.NewReader(c)}) })
		// The dialed side's call is of the op the stream's answer names, if
		// it names one, so each op's answer rules are reached.
		call := pingHeader()
		if len(stream) > 2 && stream[2] >= byte(wire.PeerObject) && stream[2] <= byte(wire.PeerPing) {
			call.Op = wire.PeerOp(stream[2])
		}
		pipe(func(c net.Conn) { newUpConn(c).call(call, nil) })
	})
}

// TestPeerSmallCallBesideStalledBody: a peer that sends half of an 8 MiB
// object answer and then stalls holds up that one call and nothing else. A
// holder lookup to the same peer, issued meanwhile, is answered within
// 100 ms; the transfer, once the peer resumes, completes. (When a node's
// calls to a peer shared one connection, the lookup queued behind the
// body's missing bytes and timed out.)
func TestPeerSmallCallBesideStalledBody(t *testing.T) {
	const size = 8 << 20
	halfway, resume := make(chan struct{}), make(chan struct{})
	s := &stubPeer{}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, br := s.upgrade(w)
		if c == nil {
			return
		}
		hdr := make([]byte, wire.PeerHeaderSize)
		for {
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			h, err := wire.DecodePeerHeader(hdr)
			if err != nil {
				return
			}
			if _, err := br.Discard(h.Len); err != nil {
				return
			}
			resp := wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID, Status: http.StatusOK, A: 42}
			if h.Op != wire.PeerObject {
				c.Write(wire.AppendPeerHeader(nil, resp))
				continue
			}
			resp.Len = size
			c.Write(append(wire.AppendPeerHeader(nil, resp), make([]byte, size/2)...))
			close(halfway)
			<-resume
			c.Write(make([]byte, size/2))
		}
	}))
	t.Cleanup(s.close)
	n := newMetaNode(t, NodeConfig{Name: "caller"})
	p := peerOf(n, s.URL)

	transfer := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, err := n.fetchPeer(ctx, p, "http://example.com/large", "", false)
		if err == nil && len(got.body) != size {
			err = fmt.Errorf("%d bytes", len(got.body))
		}
		transfer <- err
	}()
	select {
	case <-halfway:
	case <-time.After(5 * time.Second):
		close(resume)
		t.Fatal("the transfer never started")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	start := time.Now()
	r, err := n.queryHintHome(ctx, p, hintcache.HashURL("http://example.com/large"), "", false)
	took := time.Since(start)
	cancel()
	close(resume)
	if err != nil || r.A != 42 || took > 100*time.Millisecond {
		t.Errorf("holder lookup beside a stalled body = %d, %v after %v; want machine 42 within 100 ms", r.A, err, took)
	}
	if err := <-transfer; err != nil {
		t.Errorf("the 8 MiB transfer, resumed: %v; want it whole", err)
	}
}

// TestPeerObjectBodyExactlySized: the body of a transfer lands in one
// allocation of its declared length — the slice the cache keeps — and a
// length past maxBodyPrealloc is not allocated on the header's say-so.
func TestPeerObjectBodyExactlySized(t *testing.T) {
	s := newStubPeer(t, func(h wire.PeerHeader, body []byte) (wire.PeerHeader, []byte) {
		return wire.PeerHeader{Status: http.StatusOK, A: 3}, bytes.Repeat([]byte("x"), 1234)
	})
	n := newMetaNode(t, NodeConfig{Name: "sized"})
	got, err := n.fetchPeer(context.Background(), peerOf(n, s.URL), "http://example.com/sized", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if got.version != 3 || len(got.body) != 1234 || cap(got.body) != 1234 {
		t.Errorf("fetched v%d, len %d, cap %d; want v3 in one allocation of 1234", got.version, len(got.body), cap(got.body))
	}
	// A header declaring 1 GiB with nothing behind it: the read fails at
	// EOF having allocated no more than arrived.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hdr := wire.AppendPeerHeader(nil, wire.PeerHeader{Op: wire.PeerObject, Response: true, ID: 1, Len: 1 << 30})
	near, far := net.Pipe()
	defer near.Close()
	go func() {
		io.CopyN(io.Discard, far, wire.PeerHeaderSize) // the call
		far.Write(hdr)
		far.Close()
	}()
	if _, err := newUpConn(near).call(wire.PeerHeader{Op: wire.PeerObject}, nil); err == nil {
		t.Error("a 1 GiB body that never arrived was delivered")
	}
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > maxBodyPrealloc {
		t.Errorf("allocated %d bytes on a header's say-so, want <= %d", grew, maxBodyPrealloc)
	}
}

// goroutinesSettle waits for the goroutine count to settle back to at most
// base, failing with a dump if it does not.
func goroutinesSettle(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s", when, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
