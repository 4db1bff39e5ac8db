package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/resilience"
	"beyondcache/internal/wire"
)

// startFleet boots a small fleet with a long batch interval (tests flush
// explicitly) and registers cleanup.
func startFleet(t *testing.T, nodes int, cfg FleetConfig) *Fleet {
	t.Helper()
	cfg.Nodes = nodes
	if cfg.UpdateInterval == 0 {
		cfg.UpdateInterval = time.Hour // tests drive Flush explicitly
	}
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	})
	return f
}

// The tests reach a node's mechanism state through its locator: these name
// the one the test configured.
func digestsOf(n *Node) *digestLocator { return n.loc.(*digestLocator) }
func hintsOf(n *Node) *hintLocator     { return n.loc.(*hintLocator) }

// ownDigestBytes marshals a digest node's own filter.
func ownDigestBytes(n *Node) []byte {
	d := digestsOf(n)
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.own.AppendBinary(nil)
}

// TestFleetClosePrompt: closing a fleet that has carried concurrent traffic
// must not wait out a shutdown grace period. Transports keep connections
// they dialed but never used; the server at the other end sees those as
// StateNew, which Shutdown will not reap for 5 s, so a node closed while any
// process still held one burned its whole 3 s grace (two rounds in three of
// this test, before the fleet dropped idle connections first).
//
// Nor may it leave anything behind. The front door forgets a connection it
// hands to the peer plane, so every Node.Close — in KillNode, RestartNode and
// Fleet.Close alike — must cut the peer connections it dialed (idle or
// leased) and the ones it accepted, and once the fleet is closed the
// goroutine count is back at its baseline.
//
// The origin link is the other thing a node keeps connections in: 64 misses
// at once hold 64, of which the idle set keeps idleConns and closes the
// rest, and Node.Close closes those.
func TestFleetClosePrompt(t *testing.T) {
	base := runtime.NumGoroutine()
	live := func(s *connSet) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	for round := 0; round < 3; round++ {
		f, err := StartFleet(FleetConfig{Nodes: 4, ObjectSize: 512, UpdateInterval: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					if _, err := f.Fetch((c+i)%4, fmt.Sprintf("http://example.com/close/%d", i%200)); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if live(&f.Nodes[0].plane.connSet) == 0 {
			t.Fatal("the traffic opened no peer connection; the leak checks exercise nothing")
		}
		var idle []*upConn
		if round == 0 {
			f.Origin.SetLatency(100 * time.Millisecond) // every miss below is at the origin at once
			for c := 0; c < 2*idleConns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					if res, err := f.Fetch(0, fmt.Sprintf("http://example.com/close/cold/%d", c)); err != nil || !res.Miss() {
						t.Errorf("concurrent miss %d = %+v, %v", c, res, err)
					}
				}(c)
			}
			wg.Wait()
			f.Origin.SetLatency(0)
			link := f.Nodes[0].origin
			link.mu.Lock()
			idle = append(idle, link.idle...)
			link.mu.Unlock()
			if len(idle) != idleConns {
				t.Errorf("%d idle origin connections after %d concurrent misses, want %d", len(idle), 2*idleConns, idleConns)
			}
		}
		nodes := append([]*Node(nil), f.Nodes...)
		if round == 2 {
			if err := f.KillNode(3); err != nil {
				t.Fatal(err)
			}
			if err := f.RestartNode(2); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes[2:] {
				if got := live(&n.plane.connSet); got != 0 {
					t.Errorf("node %s holds %d peer connections after its Close", n.label(), got)
				}
			}
			nodes = append(nodes, f.Nodes[2])
			if _, err := f.Fetch(0, "http://example.com/close/after"); err != nil {
				t.Error(err)
			}
		}
		start := time.Now()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("round %d: Fleet.Close took %v, want well under the 3 s shutdown grace", round, took)
		}
		for _, n := range nodes {
			if got := live(&n.plane.connSet); got != 0 {
				t.Errorf("round %d: node %s holds %d peer connections after Fleet.Close", round, n.label(), got)
			}
			if got := live(&n.origin.connSet); got != 0 {
				t.Errorf("round %d: node %s holds %d origin connections after Fleet.Close", round, n.label(), got)
			}
		}
		for _, oc := range idle {
			if err := oc.c.SetDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("round %d: an idle origin connection outlived Node.Close (%v)", round, err)
			}
		}
	}
	goroutinesSettle(t, base, "after three fleets opened and closed")
}

// TestJitterSeededPerNode: two nodes built from one NodeConfig, as cachenode
// builds them, and started on different addresses draw different update
// intervals — the randomization exists to keep nodes out of lockstep.
func TestJitterSeededPerNode(t *testing.T) {
	cfg := NodeConfig{UpdateInterval: time.Hour}
	a, b := newMetaNode(t, cfg), newMetaNode(t, cfg)
	// Each batch loop draws once of its own, whenever it gets there, so the
	// two sequences are compared as sets: distinct seeds share no draw.
	drawn := make(map[time.Duration]bool)
	for i := 0; i < 8; i++ {
		drawn[a.jitteredInterval()] = true
	}
	for i := 0; i < 8; i++ {
		if d := b.jitteredInterval(); drawn[d] {
			t.Fatalf("nodes at %s and %s both drew %v: their jitter is lock-stepped", a.Addr(), b.Addr(), d)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := StartFleet(FleetConfig{Nodes: 0}); err == nil {
		t.Error("zero-node fleet accepted")
	}
	if _, err := NewNode(NodeConfig{}); err == nil {
		t.Error("node without origin accepted")
	}
	if _, err := NewNode(NodeConfig{OriginURL: "http://127.0.0.1:1", UseDigests: true, HintReplicas: 2}); err == nil {
		t.Error("digests with a partitioned hint directory accepted")
	}
}

func TestMissThenLocalHit(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{ObjectSize: 4096})
	res, err := f.Fetch(0, "http://example.com/a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() || res.Bytes != 4096 {
		t.Fatalf("first fetch = %+v, want 4096-byte MISS", res)
	}
	res, err = f.Fetch(0, "http://example.com/a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local() {
		t.Fatalf("second fetch = %+v, want LOCAL", res)
	}
	st := f.Nodes[0].Stats()
	if st.Misses != 1 || st.LocalHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHintPropagationEnablesRemoteHit(t *testing.T) {
	f := startFleet(t, 3, FleetConfig{})
	const url = "http://example.com/shared"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	// Before hints propagate, node 1 must go to the origin (misses are
	// detected locally; the system never searches on a hint miss).
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() {
		t.Fatalf("pre-propagation fetch = %+v, want MISS", res)
	}
	// Propagate hints; node 2 now fetches cache-to-cache.
	f.FlushAll()
	res, err = f.Fetch(2, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote() {
		t.Fatalf("post-propagation fetch = %+v, want REMOTE", res)
	}
	// Someone served a peer.
	total := int64(0)
	for _, n := range f.Nodes {
		total += n.Stats().PeerServes
	}
	if total != 1 {
		t.Errorf("peer serves = %d, want 1", total)
	}
}

func TestStaleHintFallsThroughToOrigin(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{})
	const url = "http://example.com/stale"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll() // node 1 learns node 0 has it
	// Node 0 drops its copy; the invalidate is NOT yet flushed, so node
	// 1's hint is stale.
	if err := f.Purge(0, url); err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() || !res.StaleHint() {
		t.Fatalf("fetch with stale hint = %+v, want MISS,STALE-HINT", res)
	}
	st := f.Nodes[1].Stats()
	if st.FalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", st.FalsePositives)
	}
	if f.Nodes[0].Stats().PeerRejects != 1 {
		t.Errorf("peer rejects = %d, want 1", f.Nodes[0].Stats().PeerRejects)
	}
	// The stale hint was dropped: the next fetch goes straight to the
	// origin with no wasted probe. (Node 1 cached the object when it
	// fell through, so ask node 1 for a *different* view: purge first.)
	if err := f.Purge(1, url); err != nil {
		t.Fatal(err)
	}
	res, err = f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleHint() {
		t.Errorf("stale hint not dropped after false positive: %+v", res)
	}
}

// TestStaleHintDoesNotTripBreaker: a peer that promptly answers "not here"
// is healthy — it is the hint that was wrong (DESIGN §8). More stale hints
// than the breaker's window holds, all naming one live peer, leave its
// breaker closed, and the next valid hint naming it is a REMOTE transfer,
// not a BREAKER-SKIP.
func TestStaleHintDoesNotTripBreaker(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{})
	urls := urlsN("breaker-stale", 12) // the default window is 10
	for _, u := range urls {
		if _, err := f.Fetch(0, u); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushAll()
	for _, u := range urls {
		if err := f.Purge(0, u); err != nil { // invalidates not flushed: node 1's hints are stale
			t.Fatal(err)
		}
	}
	for _, u := range urls {
		if res, err := f.Fetch(1, u); err != nil || !res.StaleHint() {
			t.Fatalf("fetch under a stale hint = %+v, %v; want MISS,STALE-HINT", res, err)
		}
	}
	br := peerOf(f.Nodes[1], f.Nodes[0].URL()).br.Stats()
	if br.State != resilience.Closed || br.Failures != 0 || br.Successes != int64(len(urls)) {
		t.Errorf("breaker for the live peer = %+v after %d definitive 404s; want closed, all successes", br, len(urls))
	}
	const valid = "http://example.com/breaker-valid"
	if _, err := f.Fetch(0, valid); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if res, err := f.Fetch(1, valid); err != nil || !res.Remote() {
		t.Errorf("fetch under a valid hint = %+v, %v; want REMOTE", res, err)
	}
	if got := f.Nodes[1].Stats().BreakerSkips; got != 0 {
		t.Errorf("%d breaker skips against a peer that never failed", got)
	}
}

// TestOpenBreakerKeepsMembership: a breaker is a data-path verdict, and
// membership hears only the metadata plane. With node 0's breaker on node 1
// open, node 1 answers every delivery and ping, so two rounds of membership
// syncs leave node 0's view as it was, node 1 in it, and the record naming
// node 1 on file; the breaker still gates the fetch, which skips the peer
// (a BREAKER-SKIP hop) and goes to the origin.
func TestOpenBreakerKeepsMembership(t *testing.T) {
	f := startFleet(t, 3, FleetConfig{})
	const url = "http://example.com/breaker-member"
	if _, err := f.Fetch(1, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	n0, holder := f.Nodes[0], f.Nodes[1].machineID
	br := n0.peerByID(holder).br
	for br.Stats().State != resilience.Open {
		if !br.Allow() {
			t.Fatal("a closed breaker refused a call")
		}
		br.Record(false)
	}
	before := hintsOf(n0).overlay.View()
	f.FlushAll()
	f.FlushAll()
	if after := hintsOf(n0).overlay.View(); after.Version() != before.Version() || !after.Contains(holder) {
		t.Errorf("view after an open breaker: version %d -> %d, holds node 1: %v; want unchanged",
			before.Version(), after.Version(), after.Contains(holder))
	}
	if m, ok := n0.hints.Lookup(hintcache.HashURL(url)); !ok || m != holder {
		t.Errorf("record for %s = (%d, %v), want node 1 (%d)", url, m, ok, holder)
	}
	res, err := f.Fetch(0, url)
	if err != nil {
		t.Fatal(err)
	}
	skipped := false
	for _, h := range res.Hops {
		skipped = skipped || h.Outcome == "BREAKER-SKIP"
	}
	if res.How != "MISS" || !skipped {
		t.Errorf("fetch past an open breaker = %s, hops %v; want MISS with a BREAKER-SKIP hop", res.How, res.Hops)
	}
}

func TestInvalidatePropagates(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{})
	const url = "http://example.com/inv"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if err := f.Purge(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll() // invalidate reaches node 1
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	// Clean miss: no stale-hint probe.
	if !res.Miss() || res.StaleHint() {
		t.Fatalf("fetch after invalidate = %+v, want clean MISS", res)
	}
}

func TestVersionBumpVisibleThroughCacheBypass(t *testing.T) {
	f := startFleet(t, 1, FleetConfig{})
	const url = "http://example.com/v"
	res, err := f.Fetch(0, url)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("initial version = %d, want 1", res.Version)
	}
	f.Origin.Bump(url)
	// The cached copy still serves (the prototype, like Squid, provides
	// weak consistency between origin updates and caches).
	res, _ = f.Fetch(0, url)
	if res.Version != 1 || !res.Local() {
		t.Fatalf("cached fetch = %+v, want LOCAL v1", res)
	}
	// After a purge the new version is fetched.
	if err := f.Purge(0, url); err != nil {
		t.Fatal(err)
	}
	res, _ = f.Fetch(0, url)
	if res.Version != 2 {
		t.Fatalf("post-bump fetch version = %d, want 2", res.Version)
	}
}

func TestCapacityEvictionAdvertisesInvalidate(t *testing.T) {
	// Cache fits one 4 KB object; fetching a second evicts the first and
	// must queue an invalidate that reaches peers on flush.
	f := startFleet(t, 2, FleetConfig{CacheBytes: 6144, ObjectSize: 4096})
	if _, err := f.Fetch(0, "http://example.com/one"); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if _, err := f.Fetch(0, "http://example.com/two"); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	// Node 1's hint for /one must be gone: clean miss, no stale probe.
	res, err := f.Fetch(1, "http://example.com/one")
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleHint() {
		t.Errorf("eviction invalidate did not propagate: %+v", res)
	}
}

func TestUpdatesEndpointRejectsGarbage(t *testing.T) {
	f := startFleet(t, 1, FleetConfig{})
	c := dialTestPeer(t, f.Nodes[0].URL())
	if r := c.mustCall(wire.PeerHeader{Op: wire.PeerHints}, []byte("not a multiple of twenty")); r.Status != http.StatusBadRequest {
		t.Errorf("garbage hint batch answered %d, want 400", r.Status)
	}
	// So are a torn record, a record of an unknown action, and records
	// inside a bw frame (16 + 20k bytes is never whole records): the
	// records are the body, nothing around them.
	inform := hintcache.Update{Action: hintcache.ActionInform, URLHash: 1, Machine: 2}
	bare := hintBatch(inform)
	for name, body := range map[string][]byte{
		"torn":           bare[:15],
		"unknown action": hintBatch(hintcache.Update{Action: 9, URLHash: 1, Machine: 2}),
		"framed":         wire.AppendFrame(nil, wire.KindHintBatch, bare, 0),
	} {
		if r := c.mustCall(wire.PeerHeader{Op: wire.PeerHints}, body); r.Status != http.StatusBadRequest {
			t.Errorf("%s hint batch answered %d, want 400", name, r.Status)
		}
	}
	if st := f.Nodes[0].Stats(); st.UpdatesReceived != 0 {
		t.Errorf("UpdatesReceived = %d after rejected bodies, want 0", st.UpdatesReceived)
	}
	// The same record bare is a batch.
	if r := c.mustCall(wire.PeerHeader{Op: wire.PeerHints}, bare); r.Status != http.StatusNoContent {
		t.Errorf("bare hint batch answered %d, want 204", r.Status)
	}
	if st := f.Nodes[0].Stats(); st.UpdatesReceived != 1 {
		t.Errorf("UpdatesReceived = %d after one bare record, want 1", st.UpdatesReceived)
	}
}

func TestMissingURLParameterRejected(t *testing.T) {
	f := startFleet(t, 1, FleetConfig{})
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(f.Nodes[0].URL() + "/fetch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/fetch without url got %d, want 400", resp.StatusCode)
	}
	// An object call naming no URL names nothing cached.
	r := dialTestPeer(t, f.Nodes[0].URL()).mustCall(wire.PeerHeader{Op: wire.PeerObject}, nil)
	if r.Status != http.StatusNotFound {
		t.Errorf("object call without url answered %d, want 404", r.Status)
	}
}

// TestStatsEndpoint checks the miss a fetch caused shows in both views of
// the node's counters: Stats() in process and /metrics over HTTP.
func TestStatsEndpoint(t *testing.T) {
	f := startFleet(t, 1, FleetConfig{})
	if _, err := f.Fetch(0, "http://example.com/s"); err != nil {
		t.Fatal(err)
	}
	if st := f.Nodes[0].Stats(); st.Misses != 1 || st.LocalHits != 0 || st.RemoteHits != 0 {
		t.Errorf("Stats() = %+v, want exactly one miss", st)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(f.Nodes[0].URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `beyondcache_fetch_total{outcome="miss"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

func TestDeterministicBodies(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{ObjectSize: 1000})
	a, err := f.Fetch(0, "http://example.com/det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Fetch(1, "http://example.com/det")
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != b.Bytes || a.Version != b.Version {
		t.Errorf("bodies differ across nodes: %+v vs %+v", a, b)
	}
}

func TestConcurrentFetches(t *testing.T) {
	f := startFleet(t, 4, FleetConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := fmt.Sprintf("http://example.com/c%d", i%4)
				if _, err := f.Fetch((w+i)%4, url); err != nil {
					errs <- err
					return
				}
				if w == 0 && i == 3 {
					f.FlushAll()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All fetches accounted for across nodes.
	var total int64
	for _, n := range f.Nodes {
		st := n.Stats()
		total += st.LocalHits + st.RemoteHits + st.Misses
	}
	if total != 64 {
		t.Errorf("accounted fetches = %d, want 64", total)
	}
}

func TestBackgroundBatcherDeliversWithoutFlush(t *testing.T) {
	// Use a short real interval and wait for propagation.
	f := startFleet(t, 2, FleetConfig{UpdateInterval: 20 * time.Millisecond})
	const url = "http://example.com/bg"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		res, err := f.Fetch(1, url)
		if err != nil {
			t.Fatal(err)
		}
		if res.Remote() || res.Local() {
			return // hint arrived via the background batcher
		}
		// Node 1 cached it on the miss; purge so the next try can be a
		// remote hit once the hint lands.
		if err := f.Purge(1, url); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("hint never propagated via background batcher")
}

// TestReadObjectSizedAndChecked: a peer's or the origin's body is read
// into one allocation of its declared length, a body that ends short of
// that length is refused rather than cached, and a header alone never buys
// more than maxBodyPrealloc of memory.
func TestReadObjectSizedAndChecked(t *testing.T) {
	resp := func(declared int64, body string) answer {
		return answer{version: "3", length: declared, body: strings.NewReader(body)}
	}
	big := strings.Repeat("x", maxBodyPrealloc+1)
	for _, c := range []struct {
		name     string
		declared int64
		body     string
		ok       bool
	}{
		{"exact", 5, "hello", true},
		{"undeclared", -1, "hello", true},
		{"short", 10, "hello", false},
		{"above the cap, whole", int64(len(big)), big, true},
		{"above the cap, short", 1 << 40, "hello", false},
	} {
		version, body, err := readObject(resp(c.declared, c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
		if c.ok && (version != 3 || string(body) != c.body) {
			t.Errorf("%s: read v%d and %d bytes, want v3 and %d", c.name, version, len(body), len(c.body))
		}
		if c.name == "exact" && cap(body) != 5 {
			t.Errorf("exact: body capacity %d, want one allocation of 5", cap(body))
		}
	}
}
