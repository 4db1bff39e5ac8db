package cluster

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/obs"
)

// TestRestartRecoveryFleet is the end-to-end restart contract: a 3-node
// fleet, node 0 carrying a disk tier, filled past its memory budget so part
// of its population lives only on disk. After a restart with the same cache
// dir, (a) node 0 serves its whole pre-restart population locally without a
// single origin refetch, (b) peers resolve hinted fetches against the
// recovered population, and (c) hint_directory_lag_objects re-converges to
// zero once the recovery republish has flushed.
func TestRestartRecoveryFleet(t *testing.T) {
	const (
		objects    = 20
		objectSize = 1024
	)
	f, err := StartFleet(FleetConfig{
		Nodes:          3,
		ObjectSize:     objectSize,
		UpdateInterval: time.Hour, // hints move only on explicit FlushAll
		// Memory holds 6 objects (a budget this small is one shard, not
		// split); the rest of the population must survive on disk alone.
		CacheBytes: 6 * objectSize,
		CacheDirs:  []string{t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	url := func(i int) string { return fmt.Sprintf("http://example.com/restart/%d", i) }

	// Fill node 0 past its memory budget.
	for i := 0; i < objects; i++ {
		r, err := f.Fetch(0, url(i))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Miss() {
			t.Fatalf("fill fetch %d served %s, want a miss", i, r.How)
		}
	}
	f.Nodes[0].tier.Flush() // all evictions on disk before we measure
	f.FlushAll()            // peers learn node 0's population

	// Pre-restart baseline: the whole population is a local hit (memory
	// or disk) and a peer resolves it cache-to-cache.
	localBefore := 0
	for i := 0; i < objects; i++ {
		r, err := f.Fetch(0, url(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Local() {
			localBefore++
		}
	}
	if localBefore != objects {
		t.Fatalf("pre-restart local hits = %d/%d", localBefore, objects)
	}
	if r, err := f.Fetch(1, url(0)); err != nil || !r.Remote() {
		t.Fatalf("pre-restart peer fetch = %v, %v; want REMOTE", r.How, err)
	}

	originBefore := f.Origin.Fetches()

	// Restart node 0 on the same address and cache dir, and wait out the
	// recovery scan (which republishes the recovered population).
	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	f.Nodes[0].WaitRecovery()
	rec := f.Nodes[0].RecoveryStats()
	if rec.Objects < objects {
		t.Fatalf("recovered %d objects, want >= %d", rec.Objects, objects)
	}
	if rec.Duration <= 0 {
		t.Error("recovery duration not measured")
	}

	// The restarted node serves its entire pre-restart population locally
	// — the >= 90%-of-pre-restart-hit-rate acceptance bar, met at 100% —
	// without touching the origin.
	localAfter, diskServed := 0, 0
	for i := 0; i < objects; i++ {
		r, err := f.Fetch(0, url(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Local() {
			localAfter++
		}
		if r.How == "LOCAL-DISK" {
			diskServed++
		}
	}
	if threshold := (localBefore * 9) / 10; localAfter < threshold {
		t.Fatalf("post-restart local hits = %d/%d, want >= %d (90%% of pre-restart)",
			localAfter, objects, threshold)
	}
	if diskServed == 0 {
		t.Error("no post-restart fetch was served from the disk tier")
	}
	if got := f.Origin.Fetches(); got != originBefore {
		t.Fatalf("origin refetched during recovery: %d fetches, was %d", got, originBefore)
	}

	// Peers resolve hinted fetches against the recovered population. Their
	// hints survived the restart (same machine ID); the republish keeps
	// newly learned peers working too.
	for _, peer := range []int{1, 2} {
		r, err := f.Fetch(peer, url(7+peer))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Remote() {
			t.Errorf("peer %d fetch served %s, want REMOTE from recovered node", peer, r.How)
		}
	}

	// The recovery republish drains: directory lag re-converges to zero
	// after a flush round.
	f.FlushAll()
	p, err := obs.ParseExposition(f.Nodes[0].Metrics().String())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Value("beyondcache_hint_directory_lag_objects"); !ok || v != 0 {
		t.Errorf("hint_directory_lag_objects = %v after flush, want 0", v)
	}
	if v, _ := p.Value("beyondcache_store_recovery_objects"); v < objects {
		t.Errorf("store_recovery_objects = %v, want >= %d", v, objects)
	}
}

// TestRestartRecoveryRepublishReachesNewPeer: a peer whose hint table is
// EMPTY (restarted after node 0 filled, so it never saw the original
// informs) learns the recovered population purely from the boot republish.
func TestRestartRecoveryRepublishReachesNewPeer(t *testing.T) {
	f, err := StartFleet(FleetConfig{
		Nodes:          2,
		ObjectSize:     512,
		UpdateInterval: time.Hour,
		CacheBytes:     1024, // two objects in memory, rest on disk
		CacheDirs:      []string{t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const objects = 8
	const pads = 2 // evict the last measured objects out of memory onto disk
	url := func(i int) string { return fmt.Sprintf("http://example.com/repub/%d", i) }
	for i := 0; i < objects+pads; i++ {
		if _, err := f.Fetch(0, url(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Deliver the fill-time informs to the OLD node 1 now, so the boot
	// republish — not node 0's shutdown flush of a still-pending queue —
	// is what teaches the new node 1 below.
	f.FlushAll()
	// Drop the pre-restart informs on the floor: restart node 1 (memory
	// only, no disk) so its hint table is empty.
	if err := f.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	// Restart node 0; its boot republish re-advertises everything it
	// recovered. One flush round later the fresh node 1 resolves the
	// population cache-to-cache.
	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	f.Nodes[0].WaitRecovery()
	f.FlushAll()

	remote := 0
	for i := 0; i < objects; i++ {
		r, err := f.Fetch(1, url(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Remote() {
			remote++
		}
	}
	if remote != objects {
		t.Fatalf("peer resolved %d/%d recovered objects cache-to-cache", remote, objects)
	}
	if got := f.Origin.Fetches(); got != objects+pads {
		t.Errorf("origin fetches = %d, want %d (fill only; recovery must not refetch)", got, objects+pads)
	}
}

// spillerRunning reports whether any disk tier's write-behind goroutine
// exists in the process, with the goroutine dump that shows it.
func spillerRunning() (dump string, running bool) {
	buf := make([]byte, 1<<20)
	dump = string(buf[:runtime.Stack(buf, true)])
	return dump, strings.Contains(dump, "store.(*Spiller).run")
}

// TestCloseBeforeStart: a node that was built but never started — Start not
// called, or refused its port — still holds a disk tier (its spiller's
// goroutine), an origin link and a peer plane. Close releases them without
// waiting for a batcher or a recovery scan that never began, and the cache
// directory is free for the next node.
func TestCloseBeforeStart(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := NodeConfig{Name: "unstarted", OriginURL: "http://127.0.0.1:1", UpdateInterval: time.Hour, CacheDir: t.TempDir()}
	for _, start := range []bool{false, true} {
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			if err := n.Start(taken.Addr().String()); err == nil {
				t.Fatal("Start on a taken port succeeded")
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- n.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close on a node that never started (Start tried: %v) did not return", start)
		}
		if dump, running := spillerRunning(); running {
			t.Errorf("Close on a node that never started (Start tried: %v) left its spiller running:\n%s", start, dump)
		}
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("reopening the cache directory: %v", err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	n.WaitRecovery()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewNodeRefusedConfigLeaksNothing: a configuration NewNode refuses
// returns no node to Close, so nothing may be running behind the error — in
// particular not a disk tier's spiller, which a node with a CacheDir starts.
func TestNewNodeRefusedConfigLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, cfg := range []NodeConfig{
		{HintReplicas: -1},
		{UseDigests: true, HintReplicas: 2},
	} {
		cfg.Name, cfg.OriginURL, cfg.CacheDir = "refused", "http://127.0.0.1:1", t.TempDir()
		if n, err := NewNode(cfg); err == nil {
			n.Close()
			t.Fatalf("NewNode(%+v) succeeded, want a refusal", cfg)
		}
	}
	goroutinesSettle(t, base, "after two refused NewNode calls")
}

// TestRestartNodeFailedStartReleasesNode: a replacement that cannot get its
// port back is closed, not dropped — nothing of it is left running — and the
// next RestartNode opens the same cache directory and recovers from it.
func TestRestartNodeFailedStartReleasesNode(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{ObjectSize: 256, CacheBytes: 4 * 256, CacheDirs: []string{t.TempDir()}})
	for _, u := range urlsN("reopen", 12) {
		if _, err := f.Fetch(0, u); err != nil {
			t.Fatal(err)
		}
	}
	f.Nodes[0].tier.Flush()
	onDisk := f.Nodes[0].tier.DiskStats().Objects
	if onDisk == 0 {
		t.Fatal("nothing spilled: the restart would recover nothing")
	}
	addr := f.Nodes[0].Addr()
	if err := f.KillNode(0); err != nil {
		t.Fatal(err)
	}
	var squatter net.Listener
	for attempt := 0; ; attempt++ { // the port was closed a moment ago
		var err error
		if squatter, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if attempt == 50 {
			t.Fatalf("could not take %s over: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := f.RestartNode(0); err == nil {
		t.Fatal("RestartNode onto an occupied port succeeded")
	}
	if f.Alive(0) {
		t.Error("a failed restart left its closed node counted as alive")
	}
	// Node 0 is the only one with a disk tier, and it is down.
	if dump, running := spillerRunning(); running {
		t.Errorf("the replacement that could not bind left its spiller running:\n%s", dump)
	}
	squatter.Close()
	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if !f.Alive(0) {
		t.Error("the restarted node is not counted as alive")
	}
	f.Nodes[0].WaitRecovery()
	if got := f.Nodes[0].RecoveryStats().Objects; got != int(onDisk) {
		t.Errorf("recovered %d objects from the reopened directory, want %d", got, onDisk)
	}
}

// TestFleetFetchDuringRestart: load keeps flowing at a slot while
// RestartNode swaps its node, as a scenario's restart event does. The
// fetches read the slot's URL, not the node RestartNode replaces, so -race
// sees no conflict; those that land in the down window may fail, and once
// the restarts are over a fetch succeeds.
func TestFleetFetchDuringRestart(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{ObjectSize: 256})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.Fetch(0, fmt.Sprintf("http://example.com/during-restart/%d", i%8))
		}
	}()
	for r := 0; r < 3; r++ {
		if err := f.RestartNode(0); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
	if _, err := f.Fetch(0, "http://example.com/during-restart/last"); err != nil {
		t.Fatalf("fetch after the restarts: %v", err)
	}
}

// TestFleetLinks: the fleet reaches each node over a link of its own — calls
// one after another reuse one connection, and at most as many stay idle as
// ran at once — and Fetch and Purge keep working across RestartNode and
// KillNode: a killed slot fails both at once, and the slot restarted on its
// own address is reached again.
func TestFleetLinks(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{ObjectSize: 256})
	const url = "http://example.com/links/a"
	idle := func(i int) int {
		f.conns.mu.Lock()
		defer f.conns.mu.Unlock()
		return len(f.links[i].idle)
	}
	fetch := func(i int, want string) {
		t.Helper()
		if res, err := f.Fetch(i, url); err != nil || res.How != want || res.Bytes != 256 {
			t.Fatalf("node %d fetch = %+v, %v; want %s, 256 bytes", i, res, err, want)
		}
	}
	purge := func(i int, want string) {
		t.Helper()
		if err := f.Purge(i, url); fmt.Sprint(err) != want {
			t.Fatalf("node %d purge = %v, want %s", i, err, want)
		}
	}

	fetch(0, "MISS")
	for range 5 {
		fetch(0, "LOCAL")
	}
	purge(0, "<nil>")
	purge(0, "purge: status 404")
	if n := idle(0); n != 1 {
		t.Errorf("eight calls in turn left %d idle connections, want one reused", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := f.Fetch(0, url); err != nil {
					t.Error(err)
				}
				f.Purge(0, url) // 404 when another goroutine's purge came first
			}
		}()
	}
	wg.Wait()
	if n := idle(0); n < 1 || n > 8 {
		t.Errorf("eight callers at once left %d idle connections, want 1 to 8", n)
	}

	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if n := idle(0); n != 0 {
		t.Errorf("%d idle connections to a restarted node, want none", n)
	}
	fetch(0, "MISS")
	purge(0, "<nil>")

	if err := f.KillNode(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := f.Fetch(1, url); err == nil || !strings.HasPrefix(err.Error(), "fetch: ") {
		t.Errorf("fetch from a killed node = %v, want a fetch error", err)
	}
	if err := f.Purge(1, url); err == nil || !strings.HasPrefix(err.Error(), "purge: ") {
		t.Errorf("purge at a killed node = %v, want a purge error", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("a killed node took %v to fail a fetch and a purge", took)
	}
	if err := f.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(1, url); err != nil {
		t.Fatal(err)
	}
	purge(1, "<nil>")
	fetch(0, "MISS")
}
