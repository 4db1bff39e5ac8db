//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package cluster

// A fleet in a bubble (ROADMAP direction 1): the origin, the nodes and the
// fleet's client run on an in-memory network inside testing/synctest's Run,
// where time is fake and moves only when every goroutine in the bubble is
// durably blocked. Run with
//
//	GOEXPERIMENT=synctest go test -run TestSim ./internal/cluster
//
// Two things a harness built on this has to know:
//   - The //go:debug line above is required. go.mod says go 1.22, which
//     keeps asynchronous timer channels, and Run panics on them ("not
//     supported with asynctimerchan!=0").
//   - A leaked goroutine that keeps ticking does not make Run panic. Skip
//     Fleet.Close and the batcher keeps taking its turns on the fake clock,
//     which Run spins forward until the binary is killed: for a goroutine
//     that ticks, "no leak" is caught by the -timeout, not by a panic.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/resilience"
	"beyondcache/internal/wire"
)

// memNet is an in-memory network: a dial is one net.Pipe, whose far end the
// listener at the dialed address accepts. Listening on port 0 picks a port.
// wired counts the bytes written on every connection, either way.
type memNet struct {
	mu    sync.Mutex
	ports int
	lis   map[string]*memListener
	wired atomic.Int64
}

func newMemNet() *memNet { return &memNet{lis: make(map[string]*memListener)} }

func (m *memNet) network() network { return network{dial: m.dial, listen: m.listen} }

func (m *memNet) listen(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if port == "0" {
		m.ports++
		addr = net.JoinHostPort(host, strconv.Itoa(20000+m.ports))
	}
	if m.lis[addr] != nil {
		return nil, fmt.Errorf("listen %s: address in use", addr)
	}
	l := &memListener{net: m, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	m.lis[addr] = l
	return l, nil
}

func (m *memNet) dial(ctx context.Context, addr string) (net.Conn, error) {
	m.mu.Lock()
	l := m.lis[addr]
	m.mu.Unlock()
	err := fmt.Errorf("dial %s: connection refused", addr)
	if l == nil {
		return nil, err
	}
	p, q := net.Pipe()
	near, far := wiredConn{p, &m.wired}, wiredConn{q, &m.wired}
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	near.Close()
	far.Close()
	return nil, err
}

// wiredConn is one end of a memNet connection.
type wiredConn struct {
	net.Conn
	wired *atomic.Int64
}

func (c wiredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wired.Add(int64(n))
	return n, err
}

type memListener struct {
	net   *memNet
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.lis, string(l.addr))
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// TestSimFleet boots three nodes in a bubble, fills an object at one and
// fetches it from another, then lets an hour of fake time pass — every idle
// connection the origin and the front doors keep is closed under the fleet by
// their idle timeouts — and fetches again. Last it partitions the one node
// holding an object, so a fetch elsewhere falls back to the origin, and heals
// it before closing the fleet. For hints at R = 0 and R = 2, and for digests.
func TestSimFleet(t *testing.T) {
	for name, cfg := range map[string]FleetConfig{
		"R=0":         {},
		"partitioned": {HintPartition: true},
		"digests":     {UseDigests: true},
	} {
		t.Run(name, func(t *testing.T) {
			synctest.Run(func() {
				cfg.Nodes, cfg.ObjectSize, cfg.UpdateInterval = 3, 1024, time.Hour
				f, err := startFleetOn(cfg, newMemNet().network())
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close()
				fetch := func(i int, url, want string) bool {
					res, err := f.Fetch(i, url)
					if err != nil || res.How != want {
						t.Errorf("node %d fetch %s = %q, %v; want %s", i, url, res.How, err, want)
						return false
					}
					return true
				}
				const a, b = "http://example.com/sim/a", "http://example.com/sim/b"
				if !fetch(0, a, "MISS") {
					return
				}
				f.FlushAll()
				if !fetch(1, a, "REMOTE") {
					return
				}
				start := time.Now()
				time.Sleep(time.Hour)
				if took := time.Since(start); took != time.Hour {
					t.Errorf("an hour's sleep took %v of the bubble's clock", took)
				}
				// The node's pooled origin connection is stale by now: the
				// miss finds it out and redials once.
				if !fetch(2, a, "REMOTE") || !fetch(1, a, "LOCAL") || !fetch(0, b, "MISS") {
					return
				}
				if got := f.Origin.Fetches(); got != 2 {
					t.Errorf("the origin served %d fetches, want 2", got)
				}

				// Only node 0 holds b. Partitioned, it fails node 2's call,
				// and the origin serves the fetch; healed, it serves node 1.
				f.FlushAll()
				if err := f.SetFaultSpec(hostPortOf(f.Nodes[0].URL()) + ":partition"); err != nil {
					t.Error(err)
					return
				}
				if res, err := f.Fetch(2, b); err != nil || !res.Miss() {
					t.Errorf("node 2 fetch %s under the partition = %q, %v; want a MISS", b, res.How, err)
				}
				if got := f.Nodes[2].FaultInjector().Counts().Drops; got == 0 {
					t.Error("node 2's injector dropped no call under the partition")
				}
				if err := f.SetFaultSpec(""); err != nil {
					t.Error(err)
					return
				}
				fetch(1, b, "REMOTE")
			})
		})
	}
}

// TestSimBodilessAnswerThenReuse sends a fetch, a purge and a fetch down a
// one-node fleet's one link, three times over. A purge that drops a copy is
// answered 204, with no body; on net.Pipe a zero-length write blocks until
// the far end reads again, which the link does not do between exchanges, so
// a door that wrote one would stall the next request on that connection
// until the client's timeout. Here each purge and the fetch behind it take
// no fake time at all.
func TestSimBodilessAnswerThenReuse(t *testing.T) {
	synctest.Run(func() {
		cfg := FleetConfig{Nodes: 1, ObjectSize: 256, UpdateInterval: time.Hour}
		f, err := startFleetOn(cfg, newMemNet().network())
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		const u = "http://example.com/sim/bodiless"
		for round := 0; round < 3; round++ {
			if _, err := f.Fetch(0, u); err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			start := time.Now()
			if err := f.Purge(0, u); err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			res, err := f.Fetch(0, u)
			if err != nil || res.How != "MISS" {
				t.Errorf("round %d: fetch after the purge = %q, %v after %v; want a MISS", round, res.How, err, time.Since(start))
				return
			}
			if took := time.Since(start); took != 0 {
				t.Errorf("round %d: the purge and the fetch behind it took %v of fake time, want 0", round, took)
			}
		}
	})
}

// TestSimHedgedMissLatency is the hedging subsystem's acceptance test: with
// one hinted peer blackholed, a hedged miss stays within 2x a direct-origin
// one (the paper's "do not slow down misses" held under a dead peer). Over
// the fleet's own links, node 0 holds a hint for each of 30 objects at node
// 1, which the fleet's fault spec blackholes; the breaker never opens, so
// every hinted miss pays the hedge, none is a breaker skip. Each of those
// misses costs exactly the cold-start hedge point and the origin's latency,
// and a miss nothing is hinted for the origin's latency alone — as
// FetchResult.Elapsed, which the bubble makes exact — so every sample, not
// a median, is held to the bound.
func TestSimHedgedMissLatency(t *testing.T) {
	const originLatency, budget, samples = 30 * time.Millisecond, 15 * time.Millisecond, 30
	shorten(t, &hedgeCold, budget) // the point every node starts from
	synctest.Run(func() {
		cfg := FleetConfig{Nodes: 2, ObjectSize: 256, UpdateInterval: time.Hour}
		f, err := startFleetOn(cfg, newMemNet().network())
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		// Losses never open the breaker: every hinted miss pays the hedge,
		// none is a breaker skip.
		peerOf(f.Nodes[0], f.urls[1]).br = resilience.NewBreaker(noBreaker)
		f.Origin.SetLatency(originLatency)
		hinted, direct := urlsN("sim-hedged", samples), urlsN("sim-direct", samples)
		for _, u := range hinted {
			if _, err := f.Fetch(1, u); err != nil {
				t.Error(err)
				return
			}
		}
		f.FlushAll()
		if err := f.SetFaultSpec(hostPortOf(f.urls[1]) + ":blackhole"); err != nil {
			t.Error(err)
			return
		}
		defer f.SetFaultSpec("") // healed before the close-time flush
		fetch := func(u, want string, took time.Duration) time.Duration {
			res, err := f.Fetch(0, u)
			if err != nil || res.How != want || res.Elapsed != took {
				t.Errorf("fetch %s = %q in %v, %v; want %s in %v", u, res.How, res.Elapsed, err, want, took)
			}
			return res.Elapsed
		}
		for i := range hinted {
			d := fetch(direct[i], "MISS", originLatency)
			if h := fetch(hinted[i], "MISS,HEDGE", budget+originLatency); h > 2*d {
				t.Errorf("hedged miss %v exceeds 2x direct-origin %v: a dead peer is slowing down misses", h, d)
			}
		}
		if st := f.Nodes[0].Stats(); st.HedgesStarted < samples || st.HedgeOriginWins < samples {
			t.Errorf("%d hedges started and %d origin wins, want >= %d each", st.HedgesStarted, st.HedgeOriginWins, samples)
		}
	})
}

// startMemNode starts a node on nw with its breaker never opening; the
// caller closes it.
func startMemNode(nw network, cfg NodeConfig) (*Node, error) {
	cfg.UpdateInterval = time.Hour // no round but the close-time one
	n, err := newNodeOn(cfg, nw)
	if err != nil {
		return nil, err
	}
	n.breakerCfg = noBreaker
	if err := n.Start("127.0.0.1:0"); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// stuckOriginAnswers are where an origin can get stuck, by name: what it
// sends of its answer before it goes silent.
var stuckOriginAnswers = map[string]string{
	"before the status line": "",
	"mid-header":             "HTTP/1.1 200 OK\r\n" + headerVersion + ": 1\r\nContent-Le",
	"mid-body":               "HTTP/1.1 200 OK\r\n" + headerVersion + ": 1\r\nContent-Length: 100\r\n\r\nhalf",
}

// servesAfter answers an object call with "from the peer" after d, and any
// other call at once with 204.
func servesAfter(d time.Duration) func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
	return func(h wire.PeerHeader, _ []byte) (wire.PeerHeader, []byte) {
		if h.Op != wire.PeerObject {
			return wire.PeerHeader{Status: http.StatusNoContent}, nil
		}
		time.Sleep(d)
		return wire.PeerHeader{Status: http.StatusOK, A: 7}, []byte("from the peer")
	}
}

// TestSimOriginStuckNeverOutlivesItsContext: the origin leg runs on the
// goroutine that wants the object (or, hedged, on the hedge's), so it must
// return the moment its context ends, wherever the origin has got stuck —
// before the status line, mid-header, mid-body. A fetch fails as an origin
// fetch at its originTimeout exactly, and a hedged fill returns the instant
// its peer answers, the abandoned origin leg's connection closed in that
// same instant. Neither connection is pooled.
func TestSimOriginStuckNeverOutlivesItsContext(t *testing.T) {
	const timeout, budget = 40 * time.Millisecond, 10 * time.Millisecond
	shorten(t, &originTimeout, timeout)
	shorten(t, &hedgeCold, budget)
	for name, sent := range stuckOriginAnswers {
		t.Run(name, func(t *testing.T) {
			synctest.Run(func() {
				nw := newMemNet().network()
				lis, err := nw.listen("127.0.0.1:0")
				if err != nil {
					t.Error(err)
					return
				}
				var accepted, hungUp atomic.Int64
				go func() {
					for {
						c, err := lis.Accept()
						if err != nil {
							return
						}
						accepted.Add(1)
						go func() {
							defer c.Close()
							if readRequestHead(bufio.NewReader(c)) && sent != "" {
								io.WriteString(c, sent)
							}
							io.Copy(io.Discard, c)
							hungUp.Add(1)
						}()
					}
				}()
				defer lis.Close()
				n, err := startMemNode(nw, NodeConfig{Name: "waiter", OriginURL: "http://" + lis.Addr().String()})
				if err != nil {
					t.Error(err)
					return
				}
				defer n.Close()

				start := time.Now()
				_, err = n.fetchOrigin(context.Background(), "http://example.com/stuck")
				if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), "origin fetch: ") || took != timeout {
					t.Errorf("fetch from a stuck origin = %v after %v, want origin fetch: deadline exceeded after %v", err, took, timeout)
				}
				synctest.Wait()
				if a, h := accepted.Load(), hungUp.Load(); a != 1 || h != 1 {
					t.Errorf("%d connections, %d closed; want the one closed", a, h)
				}

				// The peer answers after 3 budgets: the origin leg starts at
				// one and is stuck by the time the peer wins.
				const peerURL = "http://127.0.0.1:1"
				near, far := net.Pipe()
				go func() {
					defer far.Close()
					answerCalls(far, far, servesAfter(3*budget))
				}()
				putIdle(n, peerURL, near)
				const url = "http://example.com/peer-wins"
				h := hintcache.HashURL(url)
				n.hints.ApplyBatch([]hintcache.Update{{Action: hintcache.ActionInform, URLHash: h, Machine: hintcache.HashMachine(hostPortOf(peerURL))}})
				start = time.Now()
				out := n.fill(h, url, "", false)
				if took := time.Since(start); out.err != nil || out.how != "REMOTE" || string(out.body) != "from the peer" || took != 3*budget {
					t.Errorf("hedged fill = %q, %q, %v after %v; want REMOTE from the peer after %v", out.how, out.body, out.err, took, 3*budget)
				}
				if st := n.Stats(); st.HedgesStarted != 1 || st.HedgePeerWins != 1 {
					t.Errorf("stats = %d hedges, %d peer wins; the origin leg never ran beside the peer's", st.HedgesStarted, st.HedgePeerWins)
				}
				// Wait moves no fake time: what is closed now was closed the
				// instant the peer won.
				synctest.Wait()
				if a, h := accepted.Load(), hungUp.Load(); a != 2 || h != 2 {
					t.Errorf("%d connections, %d closed when the peer won; want both", a, h)
				}
				if got := idleOriginConns(n); got != 0 {
					t.Errorf("%d connections pooled after cut-short answers, want none", got)
				}
			})
		})
	}
}

// TestSimPeerStuckPeerNeverSlowsHedgedMiss: the raced fill runs its peer leg
// on the request's own goroutine, so "never slow a miss" holds only if that
// leg returns as soon as the origin has won — wherever the peer has got
// stuck. Against a peer that never answers the upgrade, one that never reads
// the request frame and one that reads it and never answers, a hinted miss
// is MISS,HEDGE behind an abandoned peer and takes the cold-start hedge
// point plus the origin's latency exactly, where a direct miss takes the
// origin's latency (a leg that sat out its peer call's deadline would be off
// by a hundredfold).
func TestSimPeerStuckPeerNeverSlowsHedgedMiss(t *testing.T) {
	const budget, originLatency = 15 * time.Millisecond, 20 * time.Millisecond
	shorten(t, &hedgeCold, budget)
	for name, stick := range map[string]func(far net.Conn){
		"upgrade answer never sent": nil,
		"request frame never read":  func(net.Conn) {},
		"answer never sent":         func(c net.Conn) { io.Copy(io.Discard, c) },
	} {
		t.Run(name, func(t *testing.T) {
			synctest.Run(func() {
				nw := newMemNet().network()
				origin := NewOrigin(256)
				origin.nw = nw
				origin.SetLatency(originLatency)
				if err := origin.Start("127.0.0.1:0"); err != nil {
					t.Error(err)
					return
				}
				defer origin.Close()
				n, err := startMemNode(nw, NodeConfig{Name: "hedger", OriginURL: origin.URL()})
				if err != nil {
					t.Error(err)
					return
				}
				defer n.Close()
				// The peer accepts connections and says nothing on them. It
				// goes before the node's Close, whose flush is then refused.
				mute, err := nw.listen("127.0.0.1:0")
				if err != nil {
					t.Error(err)
					return
				}
				var mu sync.Mutex
				var held []net.Conn
				hold := func(c net.Conn) {
					mu.Lock()
					held = append(held, c)
					mu.Unlock()
				}
				go func() {
					for {
						c, err := mute.Accept()
						if err != nil {
							return
						}
						hold(c)
					}
				}()
				defer func() {
					mute.Close()
					mu.Lock()
					for _, c := range held {
						c.Close()
					}
					mu.Unlock()
				}()
				peerURL := "http://" + mute.Addr().String()
				n.AddPeer(peerURL)
				if stick != nil {
					near, far := net.Pipe()
					hold(far)
					go stick(far)
					putIdle(n, peerURL, near)
				}

				fill := func(url string, hinted bool) (fetchOutcome, time.Duration) {
					h := hintcache.HashURL(url)
					if hinted {
						n.hints.ApplyBatch([]hintcache.Update{{Action: hintcache.ActionInform, URLHash: h, Machine: hintcache.HashMachine(hostPortOf(peerURL))}})
					}
					start := time.Now()
					out := n.fill(h, url, "", false)
					return out, time.Since(start)
				}
				if out, took := fill("http://example.com/direct", false); out.err != nil || out.how != "MISS" || took != originLatency {
					t.Errorf("direct fetch = %q, %v after %v; want a MISS after %v", out.how, out.err, took, originLatency)
				}
				out, took := fill("http://example.com/hedged", true)
				if out.err != nil || out.how != "MISS,HEDGE" || len(out.hops) == 0 || out.hops[0].Outcome != "PEER-ABANDON" || took != budget+originLatency {
					t.Errorf("hedged fetch = %q, hops %+v, %v after %v; want MISS,HEDGE behind a PEER-ABANDON hop after %v", out.how, out.hops, out.err, took, budget+originLatency)
				}
				if st := n.Stats(); st.HedgeOriginWins != 1 || st.RemoteHits != 0 {
					t.Errorf("stats = %d origin wins, %d remote hits; want the hedged fill won by the origin", st.HedgeOriginWins, st.RemoteHits)
				}
			})
		})
	}
}

// startHedgeFleet starts a two-node fleet in the bubble with no periodic
// round — the test derives node 0's hedge point itself, as each round
// would — and node 1 holding urls, which node 0 knows of: at R = 0 from a
// record of its own, at a replicas > 0 partition through node 1 as the hint
// home of the objects node 1 owns. Node 0's calls to node 1 then pay spec,
// and node 0's breaker on node 1 never opens, so every abandoned leg shows
// as a hedge, not as a breaker skip.
func startHedgeFleet(originLatency time.Duration, spec string, urls []string, replicas int) (*Fleet, error) {
	cfg := FleetConfig{Nodes: 2, ObjectSize: 256, UpdateInterval: time.Hour, HintPartition: replicas > 0, HintReplicas: replicas}
	f, err := startFleetOn(cfg, newMemNet().network())
	if err != nil {
		return nil, err
	}
	peerOf(f.Nodes[0], f.urls[1]).br = resilience.NewBreaker(noBreaker)
	f.Origin.SetLatency(originLatency)
	for _, u := range urls {
		if _, err = f.Fetch(1, u); err != nil {
			break
		}
	}
	if err == nil {
		f.FlushAll()
		err = f.SetFaultSpec(hostPortOf(f.urls[1]) + ":" + spec)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// TestSimHedgePointDerived warms node 0 with REMOTEs from a peer 30 ms
// away. A window one REMOTE short of hedgeWindow leaves the cold-start point
// standing; a full one sets the point to the upper bound of the histogram
// bucket holding 30 ms, 40.96 ms. Then the holder is blackholed, and a
// hinted miss takes exactly that point plus the origin's latency.
func TestSimHedgePointDerived(t *testing.T) {
	const peerLatency, originLatency, warm = 30 * time.Millisecond, 100 * time.Millisecond, hedgeWindow + 4
	synctest.Run(func() {
		urls := urlsN("sim-derive", warm+1)
		f, err := startHedgeFleet(originLatency, "latency="+peerLatency.String(), urls, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		n := f.Nodes[0]
		point := func() time.Duration { return time.Duration(n.hedgeAt.Load()) }
		fetch := func(u, want string, took time.Duration) {
			if res, err := f.Fetch(0, u); err != nil || res.How != want || res.Elapsed != took {
				t.Errorf("fetch %s = %q in %v, %v; want %s in %v", u, res.How, res.Elapsed, err, want, took)
			}
		}
		for _, u := range urls[:hedgeWindow-1] {
			fetch(u, "REMOTE", peerLatency)
		}
		if n.deriveHedge(); point() != hedgeCold {
			t.Errorf("a window of %d REMOTEs set the point to %v, want the cold-start %v", hedgeWindow-1, point(), hedgeCold)
		}
		for _, u := range urls[hedgeWindow-1 : warm] {
			fetch(u, "REMOTE", peerLatency)
		}
		const want = 40960 * time.Microsecond
		if n.deriveHedge(); point() != want {
			t.Errorf("a window of %d REMOTEs at %v set the point to %v, want %v", warm, peerLatency, point(), want)
		}
		if err := f.SetFaultSpec(hostPortOf(f.urls[1]) + ":blackhole"); err != nil {
			t.Error(err)
			return
		}
		defer f.SetFaultSpec("") // healed before the close-time flush
		fetch(urls[warm], "MISS,HEDGE", point()+originLatency)
	})
}

// TestSimHedgePointDoesNotRatchetDown: a peer that is slow but healthy, its
// answers spread over 20–220 ms, and an origin 100 ms away. A REMOTE slower
// than the point plus the origin's latency is cut off by the hedge — the
// origin answers first — so it never reaches the histogram the next point
// is taken from. That cut must not pull the point down, round after round,
// until every REMOTE is hedged: each window's point is at least the last
// one's, it climbs above the slowest answer the peer gives, and from there
// no hedge starts.
func TestSimHedgePointDoesNotRatchetDown(t *testing.T) {
	const windows, perWindow = 6, hedgeWindow + 4
	synctest.Run(func() {
		urls := urlsN("sim-ratchet", windows*perWindow)
		f, err := startHedgeFleet(100*time.Millisecond, "latency=20ms,jitter=200ms", urls, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		n := f.Nodes[0]
		last, hedges := hedgeCold, int64(0)
		for w := range windows {
			for _, u := range urls[w*perWindow : (w+1)*perWindow] {
				if _, err := f.Fetch(0, u); err != nil {
					t.Error(err)
					return
				}
			}
			n.deriveHedge()
			st := n.Stats()
			point := time.Duration(n.hedgeAt.Load())
			t.Logf("window %d: point %v, %d hedges", w, point, st.HedgesStarted-hedges)
			if point < last {
				t.Errorf("window %d: the point fell from %v to %v", w, last, point)
			}
			if last >= 220*time.Millisecond && st.HedgesStarted != hedges {
				t.Errorf("window %d: %d hedges behind a point of %v, above the peer's slowest answer", w, st.HedgesStarted-hedges, last)
			}
			if w == windows-1 && point < 220*time.Millisecond {
				t.Errorf("last window: point %v, want it above the peer's slowest answer, 220 ms", point)
			}
			last, hedges = point, st.HedgesStarted
		}
	})
}

// TestSimShortAbandonJudgesNoBreaker: node 0 measures its peer 1 ms away,
// so its point is 1.28 ms; then the peer slows to 5 ms behind an origin 1
// ms away. Every hinted miss is now MISS,HEDGE, the peer abandoned at
// 2.28 ms — beaten by a fast origin, not dead — and the peer's breaker,
// which three abandons in a row would open, stays closed.
func TestSimShortAbandonJudgesNoBreaker(t *testing.T) {
	const misses = 5
	synctest.Run(func() {
		urls := urlsN("sim-short", hedgeWindow+misses)
		f, err := startHedgeFleet(time.Millisecond, "latency=1ms", urls, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		n := f.Nodes[0]
		peerOf(n, f.urls[1]).br = resilience.NewBreaker(resilience.BreakerConfig{})
		for _, u := range urls[:hedgeWindow] {
			if res, err := f.Fetch(0, u); err != nil || res.How != "REMOTE" {
				t.Errorf("warm fetch %s = %q, %v; want REMOTE", u, res.How, err)
			}
		}
		if n.deriveHedge(); n.hedgeAt.Load() != int64(1280*time.Microsecond) {
			t.Errorf("point %v, want 1.28ms", time.Duration(n.hedgeAt.Load()))
		}
		if err := f.SetFaultSpec(hostPortOf(f.urls[1]) + ":latency=5ms"); err != nil {
			t.Error(err)
			return
		}
		for _, u := range urls[hedgeWindow:] {
			if res, err := f.Fetch(0, u); err != nil || res.How != "MISS,HEDGE" || res.Elapsed != 2280*time.Microsecond {
				t.Errorf("fetch %s = %q in %v, %v; want MISS,HEDGE in 2.28ms", u, res.How, res.Elapsed, err)
			}
		}
		if st := peerOf(n, f.urls[1]).br.Stats(); st.State != resilience.Closed {
			t.Errorf("breaker after %d abandons short of hedgeCold = %v, want closed", misses, st.State)
		}
	})
}

// TestSimEarlyAbandonedProbeFreesBreaker: node 0 measures its peer 1 ms
// away (point 1.28 ms), its breaker on the peer is tripped by hand, and the
// peer slows to 5 ms behind an origin 1 ms away. Once the cooldown has run,
// the half-open probe — the transfer, or at R = 1 the consult of the peer
// as the object's hint home — is abandoned at 2.28 ms, beaten by the
// origin, and judges nobody. That must not lock a healthy peer out: healed
// and one cooldown later, the next hinted miss is REMOTE and closes the
// breaker.
func TestSimEarlyAbandonedProbeFreesBreaker(t *testing.T) {
	for _, tc := range []struct {
		probe    string
		replicas int
	}{{"transfer", 0}, {"consult", 1}} {
		t.Run(tc.probe, func(t *testing.T) {
			synctest.Run(func() {
				urls := urlsN("sim-probe", 4*(hedgeWindow+2))
				f, err := startHedgeFleet(time.Millisecond, "latency=1ms", urls, tc.replicas)
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close()
				n, host := f.Nodes[0], hostPortOf(f.urls[1])
				var probed []string // the URLs whose miss at node 0 asks node 1 by tc.probe
				view := hintsOf(n).overlay.View()
				for _, u := range urls {
					if view.IsOwner(hintcache.HashURL(u), n.machineID) == (tc.replicas == 0) {
						probed = append(probed, u)
					}
				}
				if len(probed) < hedgeWindow+2 {
					t.Errorf("%d of %d URLs reach node 1 by %s, want %d", len(probed), len(urls), tc.probe, hedgeWindow+2)
					return
				}
				br := resilience.NewBreaker(resilience.BreakerConfig{})
				peerOf(n, f.urls[1]).br = br
				for _, u := range probed[:hedgeWindow] {
					if res, err := f.Fetch(0, u); err != nil || res.How != "REMOTE" {
						t.Errorf("warm fetch %s = %q, %v; want REMOTE", u, res.How, err)
					}
				}
				if n.deriveHedge(); n.hedgeAt.Load() != int64(1280*time.Microsecond) {
					t.Errorf("point %v, want 1.28ms", time.Duration(n.hedgeAt.Load()))
				}
				for br.Stats().State != resilience.Open {
					br.Allow()
					br.Record(false)
				}
				const cooldown = 5 * time.Second // the default
				if err := f.SetFaultSpec(host + ":latency=5ms"); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(cooldown)
				before := br.Stats()
				if res, err := f.Fetch(0, probed[hedgeWindow]); err != nil || res.How != "MISS,HEDGE" || res.Elapsed != 2280*time.Microsecond {
					t.Errorf("half-open probe = %q in %v, %v; want MISS,HEDGE in 2.28ms", res.How, res.Elapsed, err)
				}
				if st := br.Stats(); st.State != resilience.HalfOpen || st.Failures != before.Failures || st.Successes != before.Successes {
					t.Errorf("breaker after an early abandon = %+v, want half-open with no verdict", st)
				}
				if err := f.SetFaultSpec(host + ":latency=1ms"); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(cooldown)
				if res, err := f.Fetch(0, probed[hedgeWindow+1]); err != nil || res.How != "REMOTE" {
					t.Errorf("fetch from the healed peer = %q, hops %v, %v; want REMOTE", res.How, res.Hops, err)
				}
				if st := br.Stats(); st.State != resilience.Closed {
					t.Errorf("breaker after the healed peer's answer = %v, want closed", st.State)
				}
			})
		})
	}
}
