package cluster

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/overlay"
	"beyondcache/internal/wire"
)

// Partitioned hint directory integration tests (DESIGN.md §14): ownership
// routing over the wire, the ownership admission filter, the hint-home
// consult on the miss path, the footprint bound of R = 2 against R = 0 (every
// member an owner), and re-convergence after killing part of the fleet.

// startPartFleet boots a partitioned fleet with manual flushing and runs
// one empty flush round so every node's membership view converges on the
// full mesh before the test's own traffic starts.
func startPartFleet(t *testing.T, nodes int, tweak func(*FleetConfig)) *Fleet {
	t.Helper()
	cfg := FleetConfig{
		Nodes:          nodes,
		HintPartition:  true,
		UpdateInterval: time.Hour,
		ObjectSize:     512,
	}
	if tweak != nil {
		tweak(&cfg)
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
	f.FlushAll()
	for i, n := range f.Nodes {
		if got := hintsOf(n).overlay.View().Size(); got != nodes {
			t.Fatalf("node %d membership = %d after first sync, want %d", i, got, nodes)
		}
	}
	return f
}

// TestPartitionedRoutingTargetsOwners checks the tentpole's routing
// contract: after one node fills an object and flushes, the hint record
// lands on exactly the object's R owners — nowhere else — and every node
// agrees on who those owners are. An owner that is itself the holder keeps
// no record of itself (every even object is filled at its first owner): a
// non-owner's consult there is answered from the home's own residency and
// still ends REMOTE.
func TestPartitionedRoutingTargetsOwners(t *testing.T) {
	const nodes = 8
	f := startPartFleet(t, nodes, nil)
	index := make(map[uint64]int, nodes)
	for j, n := range f.Nodes {
		index[n.machineID] = j
	}

	for i := 0; i < 12; i++ {
		url := fmt.Sprintf("http://part.example/route-%d", i)
		h := hintcache.HashURL(url)

		var want [overlay.MaxReplicas]uint64
		owners := hintsOf(f.Nodes[0]).overlay.View().Owners(h, want[:0])
		if len(owners) != 2 {
			t.Fatalf("object %d has %d owners, want R=2", i, len(owners))
		}
		for j := 1; j < nodes; j++ {
			var buf [overlay.MaxReplicas]uint64
			got := hintsOf(f.Nodes[j]).overlay.View().Owners(h, buf[:0])
			if len(got) != len(owners) || got[0] != owners[0] || got[1] != owners[1] {
				t.Fatalf("node %d owners(%#x) = %v, node 0 says %v", j, h, got, owners)
			}
		}

		holder := i % nodes
		if i%2 == 0 {
			holder = index[owners[0]]
		}
		if _, err := f.Fetch(holder, url); err != nil {
			t.Fatal(err)
		}
		f.FlushAll()

		ownerSet := map[uint64]bool{owners[0]: true, owners[1]: true}
		for j, n := range f.Nodes {
			machine, ok := n.hints.Lookup(h)
			switch {
			case j == holder && ok:
				t.Errorf("object %d: holder node %d keeps a record (of %#x), want none of itself", i, j, machine)
			case j == holder:
			case ownerSet[n.machineID] && !ok:
				t.Errorf("object %d: owner node %d has no record", i, j)
			case ownerSet[n.machineID] && machine != f.Nodes[holder].machineID:
				t.Errorf("object %d: owner node %d names machine %#x, want holder %d", i, j, machine, holder)
			case !ownerSet[n.machineID] && ok:
				t.Errorf("object %d: non-owner node %d stored a record", i, j)
			}
		}
		if i%2 != 0 {
			continue
		}
		fetcher := (holder + 1) % nodes
		for ownerSet[f.Nodes[fetcher].machineID] {
			fetcher = (fetcher + 1) % nodes
		}
		serves := f.Nodes[holder].Stats().HintHomeServes
		if res, err := f.Fetch(fetcher, url); err != nil || !res.Remote() {
			t.Errorf("object %d: non-owner node %d's fetch = %+v, %v; want REMOTE through the home that holds it", i, fetcher, res, err)
		}
		if got := f.Nodes[holder].Stats().HintHomeServes - serves; got != 1 {
			t.Errorf("object %d: the holding home answered %d consults, want 1 (from its own residency)", i, got)
		}
	}
}

// TestOwnershipFilterRejectsForeignRecords checks the admission side: an
// inform for an object a node does not own, arriving straight over the
// wire, is dropped and counted rather than stored.
func TestOwnershipFilterRejectsForeignRecords(t *testing.T) {
	f := startPartFleet(t, 4, nil)
	n := f.Nodes[0]

	// Find an object node 0 does not own.
	var h uint64
	for i := 0; ; i++ {
		h = hintcache.HashURL(fmt.Sprintf("http://part.example/foreign-%d", i))
		if !hintsOf(n).overlay.View().IsOwner(h, n.machineID) {
			break
		}
	}
	body := hintBatch(hintcache.Update{Action: hintcache.ActionInform, URLHash: h, Machine: f.Nodes[1].machineID})
	if r := dialTestPeer(t, n.URL()).mustCall(wire.PeerHeader{Op: wire.PeerHints}, body); r.Status != http.StatusNoContent {
		t.Fatalf("hint batch = %d, want 204", r.Status)
	}
	if _, ok := n.hints.Lookup(h); ok {
		t.Error("non-owned record was stored")
	}
	if got := n.hints.Stats().FilterRejects; got < 1 {
		t.Errorf("FilterRejects = %d, want >= 1", got)
	}
}

// TestHintHomeConsultResolvesMiss checks the extra metadata hop: a node
// that is not an owner of a missed object consults the object's hint home
// and completes a cache-to-cache transfer, with the consult accounted on
// both ends.
func TestHintHomeConsultResolvesMiss(t *testing.T) {
	const nodes = 8
	f := startPartFleet(t, nodes, nil)

	// Find an object whose owner set excludes both the holder (node 0) and
	// the fetcher (node 1), so the fetch must take the consult path.
	var url string
	var h uint64
	for i := 0; ; i++ {
		url = fmt.Sprintf("http://part.example/consult-%d", i)
		h = hintcache.HashURL(url)
		v := hintsOf(f.Nodes[0]).overlay.View()
		if !v.IsOwner(h, f.Nodes[0].machineID) && !v.IsOwner(h, f.Nodes[1].machineID) {
			break
		}
	}
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()

	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote() {
		t.Fatalf("consult fetch = %+v, want REMOTE", res)
	}
	if got := f.Nodes[1].Stats().HintHomeHits; got != 1 {
		t.Errorf("fetcher HintHomeHits = %d, want 1", got)
	}
	var serves int64
	for _, n := range f.Nodes {
		serves += n.Stats().HintHomeServes
	}
	if serves != 1 {
		t.Errorf("fleet HintHomeServes = %d, want 1", serves)
	}
}

// countHops counts the hops in chain with the given outcome.
func countHops(chain []obs.Hop, outcome string) int {
	n := 0
	for _, hop := range chain {
		if hop.Outcome == outcome {
			n++
		}
	}
	return n
}

// TestHomeServesItsOwnCopy: a non-owner's consult reaches a home that holds
// the object, and the home serves it in its answer — REMOTE in one round
// trip, one PEER hop with the home's PEER-SERVE in it and no HINT-HOME hop,
// one record on the home's breaker. A home that answered "me" was asked a
// second time.
func TestHomeServesItsOwnCopy(t *testing.T) {
	const url = "http://part.example/home-copy"
	f := startPartFleet(t, 6, nil)
	var buf [overlay.MaxReplicas]uint64
	first := hintsOf(f.Nodes[0]).overlay.View().Owners(hintcache.HashURL(url), buf[:0])[0]
	var home *Node
	for i, n := range f.Nodes {
		if n.machineID == first {
			home = n
			if _, err := f.Fetch(i, url); err != nil {
				t.Fatal(err)
			}
		}
	}
	if home == nil {
		t.Fatal("the object's first owner is not in the fleet")
	}
	fi := nonOwners(f, url)[0]
	fetcher := f.Nodes[fi]
	before := home.Stats()
	res, err := f.Fetch(fi, url)
	if err != nil || !res.Remote() {
		t.Fatalf("non-owner's fetch = %+v, %v; want REMOTE", res, err)
	}
	if peer, consult := countHops(res.Hops, "PEER"), countHops(res.Hops, "HINT-HOME"); peer != 1 || consult != 0 {
		t.Errorf("hops %v: %d PEER and %d HINT-HOME, want one PEER and no HINT-HOME", res.Hops, peer, consult)
	}
	after := home.Stats()
	if got := after.PeerServes - before.PeerServes; got != 1 {
		t.Errorf("the home's PeerServes moved by %d, want 1", got)
	}
	if got := after.HintHomeServes - before.HintHomeServes; got != 1 {
		t.Errorf("the home's HintHomeServes moved by %d, want 1", got)
	}
	if st := fetcher.Stats(); st.HintHomeHits != 1 || st.RemoteHits != 1 {
		t.Errorf("fetcher: HintHomeHits=%d RemoteHits=%d, want 1 and 1", st.HintHomeHits, st.RemoteHits)
	}
	if got := peerOf(fetcher, home.URL()).br.Stats(); got.Successes != 1 || got.Failures != 0 {
		t.Errorf("the home's breaker at the fetcher = %+v, want one success recorded", got)
	}
}

// TestConsultRecordsAsker: a consult is its asker's inform. Non-owner A's
// consult is a clean miss and A fills from the origin; with no round in
// between, non-owner B's consult at the same home names A, and B's fetch is
// REMOTE from A. Waiting for A's round left B a clean miss too.
func TestConsultRecordsAsker(t *testing.T) {
	const url = "http://part.example/asker-recorded"
	f := startPartFleet(t, 6, nil)
	ns := nonOwners(f, url)
	a, b := ns[0], ns[1]
	res, err := f.Fetch(a, url)
	if err != nil || !res.Miss() || countHops(res.Hops, "HINT-HOME-MISS") != 1 {
		t.Fatalf("A's fetch = %+v, %v; want MISS behind a clean-miss consult", res, err)
	}
	if res, err := f.Fetch(b, url); err != nil || !res.Remote() {
		t.Fatalf("B's fetch = %+v, %v; want REMOTE from A before any round", res, err)
	}
	if got := f.Nodes[a].Stats().PeerServes; got != 1 {
		t.Errorf("A served %d peers, want 1 (B)", got)
	}
	if got := f.Origin.Fetches(); got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
}

// TestPeerStillFillingIsNotDemoted: B's consult names A while A's own fill
// is still at the origin. A answers B's object call 409, "not yet", and B
// goes to the origin, MISS,STALE-HINT, without demoting A: an invalidate
// routed behind the 409 would delete, at the homes, a record that comes true
// when A's fill lands. Once it has, and after a round, C's fetch is REMOTE
// from A. (B's own copy is purged first, so only A can serve C.)
func TestPeerStillFillingIsNotDemoted(t *testing.T) {
	const url = "http://part.example/still-filling"
	neverHedge(t)
	f := startPartFleet(t, 6, nil)
	ns := nonOwners(f, url)
	ai, b, c := ns[0], ns[1], ns[2]
	a := f.Nodes[ai]
	h := hintcache.HashURL(url)
	f.Origin.SetLatency(500 * time.Millisecond)
	filled := make(chan error, 1)
	go func() {
		res, err := f.Fetch(ai, url)
		if err == nil && !res.Miss() {
			err = fmt.Errorf("A's fetch = %+v, want MISS", res)
		}
		filled <- err
	}()
	waitFor(t, "A's consult to put it on record at the home", func() bool {
		for _, n := range f.Nodes {
			if m, ok := n.hints.Lookup(h); ok && m == a.machineID {
				return true
			}
		}
		return false
	})
	res, err := f.Fetch(b, url)
	if err != nil || res.How != "MISS,STALE-HINT" {
		t.Fatalf("B's fetch = %+v, %v; want MISS,STALE-HINT", res, err)
	}
	if i := slices.IndexFunc(res.Hops, func(hop obs.Hop) bool { return hop.Outcome == "PEER-REJECT" }); i < 0 || res.Hops[i].Node != hostPortOf(a.URL()) {
		t.Errorf("B's hops %v, want a PEER-REJECT at A", res.Hops)
	}
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	f.Origin.SetLatency(0)
	if st := f.Nodes[b].Stats(); st.FalsePositives != 1 {
		t.Errorf("B's FalsePositives = %d, want 1: a 409 is a wasted probe", st.FalsePositives)
	}
	if got := peerOf(f.Nodes[b], a.URL()).br.Stats(); got.Failures != 0 || got.Successes != 1 {
		t.Errorf("A's breaker at B = %+v, want one success: a 409 is a healthy peer", got)
	}
	if err := f.Purge(b, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	serves := a.Stats().PeerServes
	if res, err := f.Fetch(c, url); err != nil || !res.Remote() {
		t.Fatalf("C's fetch = %+v, %v; want REMOTE from A", res, err)
	}
	if got := a.Stats().PeerServes - serves; got != 1 {
		t.Errorf("A served C %d times, want 1", got)
	}
}

// TestHintHomeAbandonedHolderResolvesLikeDirectPath pins the one event the
// direct and the via-home fills used to resolve differently: the home
// answers in time, the holder it names stays silent past the hedge point,
// the origin wins. As on the direct path the abandoned holder feeds its own
// breaker, judged by its own call's silence, and the PEER-ABANDON hop names
// the holder — the slow leg — not the home that answered (which keeps its
// HINT-HOME hop and a healthy breaker).
func TestHintHomeAbandonedHolderResolvesLikeDirectPath(t *testing.T) {
	shorten(t, &hedgeCold, 20*time.Millisecond)
	f := startPartFleet(t, 8, nil)
	holder, fetcher := f.Nodes[0], f.Nodes[1]
	var url string
	for i := 0; ; i++ {
		url = fmt.Sprintf("http://part.example/abandon-%d", i)
		h, v := hintcache.HashURL(url), hintsOf(holder).overlay.View()
		if !v.IsOwner(h, holder.machineID) && !v.IsOwner(h, fetcher.machineID) {
			break
		}
	}
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	// The holder's own silence, the hedge point plus the origin's latency
	// less the consult, must clear hedgeCold by a margin for its abandon to
	// judge it.
	f.Origin.SetLatency(40 * time.Millisecond)
	holderHost := hostPortOf(holder.URL())
	if err := f.SetFaultSpec(holderHost + ":latency=500ms"); err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if res.How != "MISS,HEDGE" || len(res.Hops) < 3 {
		t.Fatalf("fetch past a silent holder = %q %v, want MISS,HEDGE behind a consult and an abandoned probe", res.How, res.Hops)
	}
	consult, abandon := res.Hops[0], res.Hops[1]
	if consult.Outcome != "HINT-HOME" || consult.Node == holderHost {
		t.Errorf("first hop = %+v, want the HINT-HOME consult at the home", consult)
	}
	if abandon.Outcome != "PEER-ABANDON" || abandon.Node != holderHost {
		t.Errorf("second hop = %+v, want PEER-ABANDON at the holder %s", abandon, holderHost)
	}
	if got := peerOf(fetcher, holder.URL()).br.Stats(); got.Failures != 1 {
		t.Errorf("abandoned holder's breaker = %+v, want one failure recorded", got)
	}
	if got := peerOf(fetcher, "http://"+consult.Node).br.Stats(); got.Failures != 0 || got.Successes == 0 {
		t.Errorf("answering home's breaker = %+v, want successes only", got)
	}
	if st := fetcher.Stats(); st.HintHomeHits != 1 || st.HedgeOriginWins != 1 {
		t.Errorf("fetcher stats: HintHomeHits=%d HedgeOriginWins=%d, want 1 and 1", st.HintHomeHits, st.HedgeOriginWins)
	}
}

// partitionFootprint drives the same workload through a 16-node fleet at
// R = 2 (partitioned) or R = 0 and reports the per-node averages the
// acceptance bound is written against: hint wire bytes per flush round and
// occupied hint-directory entries.
func partitionFootprint(t *testing.T, partitioned bool, objects, rounds int) (wireBytesPerRound, entries float64) {
	t.Helper()
	cfg := FleetConfig{
		Nodes:          16,
		HintPartition:  partitioned,
		HintReplicas:   2,
		UpdateInterval: time.Hour,
		ObjectSize:     512,
	}
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	}()
	f.FlushAll() // converge membership before measuring
	for r := 0; r < rounds; r++ {
		for i := 0; i < objects/rounds; i++ {
			obj := r*objects/rounds + i
			url := fmt.Sprintf("http://part.example/bench-%d", obj)
			if _, err := f.Fetch(obj%cfg.Nodes, url); err != nil {
				t.Fatal(err)
			}
		}
		f.FlushAll()
	}
	var bytes, occupied int64
	for _, n := range f.Nodes {
		st := n.Stats()
		if partitioned {
			bytes += st.WireHintBytesPartitioned
		} else {
			bytes += st.WireHintBytes
		}
		occupied += int64(n.hints.Occupied())
	}
	nodes := float64(cfg.Nodes)
	return float64(bytes) / float64(rounds) / nodes, float64(occupied) / nodes
}

// TestPartitionBytesBound is the PR's acceptance bound, enforced in CI: on
// a 16-node fleet at R=2, the partitioned directory must cost each node at
// most 25% of the whole directory every node keeps at R=0 in BOTH hint wire
// bytes per round and stored directory entries (theory: R/(N-1) ~ 13%).
func TestPartitionBytesBound(t *testing.T) {
	const objects, rounds = 96, 2
	wholeBytes, wholeEntries := partitionFootprint(t, false, objects, rounds)
	partBytes, partEntries := partitionFootprint(t, true, objects, rounds)

	t.Logf("per-node wire bytes/round: R=0 %.0f, R=2 %.0f (%.1f%%)",
		wholeBytes, partBytes, 100*partBytes/wholeBytes)
	t.Logf("per-node directory entries: R=0 %.1f, R=2 %.1f (%.1f%%)",
		wholeEntries, partEntries, 100*partEntries/wholeEntries)

	if partBytes > 0.25*wholeBytes {
		t.Errorf("R=2 wire bytes/round %.0f exceeds 25%% of R=0's %.0f", partBytes, wholeBytes)
	}
	if partEntries > 0.25*wholeEntries {
		t.Errorf("R=2 directory entries %.1f exceed 25%% of R=0's %.1f", partEntries, wholeEntries)
	}
}

// TestChaosPartitionedHintsReconverge kills 2 of 16 nodes (12.5% of the
// fleet) and checks the partitioned directory heals itself: survivor
// membership re-converges within a few probe rounds, every object still
// resident on a survivor is reachable cache-to-cache again, and the
// re-homing work each survivor did is proportional to the dead nodes'
// partition share — not to the directory size.
func TestChaosPartitionedHintsReconverge(t *testing.T) {
	const (
		nodes   = 16
		objects = 128
	)
	// Hedging off: a reconverged fetch must succeed through the consult
	// path on its own, not because the origin hedge papered over it.
	neverHedge(t)
	f := startPartFleet(t, nodes, nil)

	urls := make([]string, objects)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://part.example/chaos-%d", i)
		if _, err := f.Fetch(i%nodes, urls[i]); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushAll()
	viewBefore := hintsOf(f.Nodes[0]).overlay.View()

	dead := map[int]bool{5: true, 11: true}
	for i := range dead {
		if err := f.KillNode(i); err != nil {
			t.Fatal(err)
		}
	}

	// Dead peers stop answering probes; two consecutive failed contacts
	// evict them. Survivor flush rounds double as probe rounds.
	reconverged := -1
	for round := 1; round <= 5; round++ {
		f.FlushAll()
		ok := true
		for i, n := range f.Nodes {
			if dead[i] {
				continue
			}
			if hintsOf(n).overlay.View().Size() != nodes-len(dead) {
				ok = false
				break
			}
		}
		if ok {
			reconverged = round
			break
		}
	}
	if reconverged < 0 {
		t.Fatal("survivor membership never re-converged")
	}
	t.Logf("membership re-converged after %d flush rounds", reconverged)
	f.FlushAll() // settle: deliver the re-homed records everywhere

	viewAfter := hintsOf(f.Nodes[0]).overlay.View()
	changedAll, changedSurvivorHeld := 0, 0
	for i, u := range urls {
		if overlay.SameOwners(viewBefore, viewAfter, hintcache.HashURL(u)) {
			continue
		}
		changedAll++
		if !dead[i%nodes] {
			changedSurvivorHeld++
		}
	}
	if changedAll == 0 {
		t.Fatal("no object changed owners after losing 2/16 nodes")
	}

	// Reachability: every survivor-resident object must again land REMOTE
	// from a survivor that is neither its holder nor already caching it.
	for i, u := range urls {
		holder := i % nodes
		if dead[holder] {
			continue // its only replica died with it
		}
		fetcher := (holder + 1) % nodes
		for dead[fetcher] {
			fetcher = (fetcher + 1) % nodes
		}
		res, err := f.Fetch(fetcher, u)
		if err != nil {
			t.Fatalf("object %d from node %d: %v", i, fetcher, err)
		}
		if !res.Remote() {
			t.Errorf("object %d from node %d = %+v, want REMOTE after re-homing", i, fetcher, res)
		}
	}

	// Re-homing work: each changed object is announced once by its
	// surviving holder and forwarded/dropped by at most its R=2 old homes,
	// so the fleet-wide count sits between the survivor-held changed share
	// and a small multiple of all changed objects — never near the full
	// directory size.
	var rehomed int64
	for i, n := range f.Nodes {
		if !dead[i] {
			rehomed += n.Stats().RehomedObjects
		}
	}
	t.Logf("rehomed %d (changed objects: %d total, %d survivor-held, of %d)",
		rehomed, changedAll, changedSurvivorHeld, objects)
	if rehomed < int64(changedSurvivorHeld) {
		t.Errorf("rehomed %d < %d survivor-held changed objects", rehomed, changedSurvivorHeld)
	}
	if max := int64(4*changedAll + 16); rehomed > max {
		t.Errorf("rehomed %d > %d (~4x changed objects): re-home work not proportional to churn", rehomed, max)
	}
}

// TestDepartedHolderRecordsDropped: a departed machine's records all go in
// the re-homing pass, even for an object whose owners did not move. Node 5
// holds one object whose R = 2 homes exclude it and stay its homes once it
// leaves; after node 5 is killed and the survivors have synced, no
// survivor's directory names node 5.
func TestDepartedHolderRecordsDropped(t *testing.T) {
	const nodes = 6
	f := startPartFleet(t, nodes, nil)
	viewOf := func(members int) *overlay.View {
		ov, err := overlay.New(overlayBits, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range f.Nodes[:members] {
			ov.Join(n.machineID, n.URL())
		}
		return ov.View()
	}
	all, survivors := viewOf(nodes), viewOf(nodes-1)
	departed := f.Nodes[nodes-1].machineID
	url := ""
	for i := 0; url == ""; i++ {
		u := fmt.Sprintf("http://part.example/departed-%d", i)
		h := hintcache.HashURL(u)
		if !all.IsOwner(h, departed) && overlay.SameOwners(all, survivors, h) {
			url = u
		}
	}
	if _, err := f.Fetch(nodes-1, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if err := f.KillNode(nodes - 1); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		f.FlushAll()
	}
	for i, n := range f.Nodes[:nodes-1] {
		n.hints.Range(func(r hintcache.Record) bool {
			if r.Machine == departed {
				t.Errorf("node %d still holds a record of %s naming the departed node 5", i, url)
			}
			return true
		})
	}
}

// TestSetupFlushDialsNoPeer: the round a fresh fleet runs at setup —
// StartFleet, then FlushAll — has nothing to say, so no node dials a peer.
// Nothing is held, so no hint batch goes out; and no peer is pinged, because
// FlushAll's pre-pass sync does not advance the membership generation and the
// first round finds every peer freshly added.
func TestSetupFlushDialsNoPeer(t *testing.T) {
	for name, cfg := range map[string]FleetConfig{
		"R=0": {},
		"R=2": {HintPartition: true, HintReplicas: 2},
	} {
		t.Run(name, func(t *testing.T) {
			f := startFleet(t, 4, cfg)
			f.FlushAll()
			for i, n := range f.Nodes {
				n.plane.mu.Lock()
				conns := len(n.plane.conns)
				n.plane.mu.Unlock()
				if conns != 0 {
					t.Errorf("node %d holds %d peer connections after the setup FlushAll, want 0", i, conns)
				}
			}
		})
	}
}

// TestRestartRelearnsDirectory: at R = 0 a node that was killed, dropped
// from its peers' membership and restarted empty is re-taught the whole
// directory by the re-homing its return triggers, so its first fetch of an
// object only a survivor holds is REMOTE. A directory that only new informs
// fill leaves it answering MISS for everything the fleet already held.
func TestRestartRelearnsDirectory(t *testing.T) {
	const nodes, objects = 4, 120
	neverHedge(t)
	f := startFleet(t, nodes, FleetConfig{ObjectSize: 256})
	urls := urlsN("relearn", objects)
	for i, u := range urls {
		if _, err := f.Fetch(1+i%(nodes-1), u); err != nil { // never node 0
			t.Fatal(err)
		}
	}
	f.FlushAll()
	rehomed := make([]int64, nodes)
	for i, n := range f.Nodes {
		rehomed[i] = n.Stats().RehomedObjects
	}
	if err := f.KillNode(0); err != nil {
		t.Fatal(err)
	}
	// Two failed probes drop node 0; each survivor then re-homes.
	for round := 0; round < 5; round++ {
		f.FlushAll()
		done := true
		for i, n := range f.Nodes[1:] {
			done = done && n.Stats().RehomedObjects > rehomed[1+i]
		}
		if done {
			break
		}
	}
	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	f.FlushAll()
	remote := 0
	for _, u := range urls {
		res, err := f.Fetch(0, u)
		if err != nil {
			t.Fatal(err)
		}
		if res.Remote() {
			remote++
		}
	}
	t.Logf("restarted node: %d of %d first fetches REMOTE", remote, objects)
	if remote < objects*95/100 {
		t.Errorf("restarted node fetched %d of %d survivor-held objects REMOTE, want at least 95%%", remote, objects)
	}
}
