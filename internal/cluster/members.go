package cluster

// Partitioned hint directory (DESIGN.md §14).
//
// Broadcast mode replicates the full hint directory on every node: O(total
// objects) memory and O(N) fanout per update. Partition mode instead
// derives a Plaxton embedding over the hashed addresses of the LIVE
// membership (internal/overlay) and routes each object's hint records to
// its owner set — the object's Plaxton root plus R-1 ring successors — so
// each node holds and receives only its O(R/N) share. The price is one
// extra metadata hop on the miss path when the missing node is not itself
// an owner (the HINT-HOME consult), paid under the same breaker and hedge
// discipline as any peer call so it can never slow a miss below the
// straight-to-origin baseline.
//
// Membership is maintained from liveness evidence the node already
// generates — successful hint-batch deliveries, inbound batches, breaker
// state — topped up with cheap GET /ping probes for peers that were silent
// a whole flush round. A membership change re-homes incrementally: only
// objects whose owner set actually moved are re-announced or forwarded,
// with plaxton.TableDiff gating the scan outright when nothing moved.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/overlay"
	"beyondcache/internal/resilience"
)

const (
	// overlayBits is the Plaxton digit width of the hint-routing plane
	// (16-ary trees): at prototype fleet sizes a couple of digit levels
	// resolve every object root.
	overlayBits = 4
	// deadAfterFails marks a peer dead for hint routing after this many
	// consecutive failed contacts. Each failed contact already burned a
	// full delivery retry budget or a probe, so two means a killed node
	// leaves the routing plane within two flush rounds while one unlucky
	// probe never triggers a re-homing storm.
	deadAfterFails = 2
	// pingTimeout bounds one liveness probe; pingFanout bounds how many
	// run concurrently per membership sync.
	pingTimeout = 300 * time.Millisecond
	pingFanout  = 8
)

// membership accumulates per-peer liveness evidence between membership
// syncs. Keys are target base URLs (the same keys the sender and breaker
// tables use). gen counts sync rounds: a peer whose last good contact is
// older than the previous round gets probed.
type membership struct {
	mu      sync.Mutex
	fails   map[string]int    // consecutive failed contacts
	contact map[string]uint64 // sync gen of last good contact
	gen     uint64
}

// partitioned reports whether this node runs the partitioned hint
// directory.
func (n *Node) partitioned() bool { return n.overlay != nil }

// initOverlay seeds the routing plane with the node itself once Start or
// Bind has fixed its machine ID. The first membership sync folds the peer
// table in (and runs the resulting re-homing pass, which is what lets a
// restarted node's boot-recovered residents re-announce to their homes).
func (n *Node) initOverlay() {
	if !n.partitioned() {
		return
	}
	n.overlay.Join(n.machineID, n.URL())
	n.homedView.Store(n.overlay.View())
	// Ownership admission: the directory only stores records for objects
	// this node is currently a home of. Records for everything else are
	// refused at insert (counted in hintcache FilterRejects) — directory
	// memory stays O(R/N) no matter what arrives on the wire.
	n.hints.SetInsertFilter(func(h uint64) bool {
		return n.overlay.View().IsOwner(h, n.machineID)
	})
}

// noteSendOutcome feeds one hint-batch delivery result into the liveness
// tracker: success is contact; failure (after the sender's full retry
// budget) counts toward deadAfterFails.
func (n *Node) noteSendOutcome(target string, ok bool) {
	if !n.partitioned() {
		return
	}
	n.mbr.mu.Lock()
	if ok {
		n.mbr.fails[target] = 0
		n.mbr.contact[target] = n.mbr.gen
	} else {
		n.mbr.fails[target]++
	}
	n.mbr.mu.Unlock()
}

// noteInboundContact records an inbound sign of life from a peer — a
// restarted or healed node re-announces itself by flushing to us, which
// must revive it even if our own probes to it still fail.
func (n *Node) noteInboundContact(fromURL string) {
	if !n.partitioned() || fromURL == "" {
		return
	}
	n.mbr.mu.Lock()
	n.mbr.fails[fromURL] = 0
	n.mbr.contact[fromURL] = n.mbr.gen
	n.mbr.mu.Unlock()
}

// handlePing answers liveness probes: GET /ping -> 204. It goes through
// the node's inbound fault middleware, so a blackholed or stalled node
// fails its peers' probes exactly as it fails their real traffic.
func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNoContent)
}

// ping performs one liveness probe through the node's (fault-injected)
// client.
func (n *Node) ping(baseURL string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/ping", nil)
	if err != nil {
		return false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}

// syncMembership runs at the top of each partition-mode flush round: fold
// the round's liveness evidence into the overlay and re-home against the
// resulting view before any records are routed. Peers with recent contact
// are alive for free; the rest get one bounded-concurrency probe. A peer
// is dead when its consecutive failures reach deadAfterFails or its
// breaker is open (breaker-detected peer death); dead peers keep being
// probed, so revival is symmetric.
func (n *Node) syncMembership() {
	type peerRef struct {
		id  uint64
		url string
	}
	n.peerMu.RLock()
	peers := make([]peerRef, 0, len(n.peerOrder))
	for _, id := range n.peerOrder {
		peers = append(peers, peerRef{id: id, url: n.peers[id]})
	}
	n.peerMu.RUnlock()

	n.mbr.mu.Lock()
	n.mbr.gen++
	gen := n.mbr.gen
	probe := peers[:0:0]
	for _, p := range peers {
		if n.mbr.contact[p.url]+1 >= gen {
			continue // heard from it this round or the last
		}
		probe = append(probe, p)
	}
	n.mbr.mu.Unlock()

	alive := make([]bool, len(probe))
	var wg sync.WaitGroup
	sem := make(chan struct{}, pingFanout)
	for i, p := range probe {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, url string) {
			defer wg.Done()
			defer func() { <-sem }()
			alive[i] = n.ping(url)
		}(i, p.url)
	}
	wg.Wait()

	n.mbr.mu.Lock()
	for i, p := range probe {
		if alive[i] {
			n.mbr.fails[p.url] = 0
			n.mbr.contact[p.url] = gen
		} else {
			n.mbr.fails[p.url]++
		}
	}
	dead := make(map[uint64]bool, len(peers))
	for _, p := range peers {
		dead[p.id] = n.mbr.fails[p.url] >= deadAfterFails
	}
	n.mbr.mu.Unlock()

	for _, p := range peers {
		if !dead[p.id] && n.breakers.Get(p.url).State() == resilience.Open {
			dead[p.id] = true
		}
		if dead[p.id] {
			n.overlay.Leave(p.id)
		} else {
			n.overlay.Join(p.id, p.url)
		}
	}

	view := n.overlay.View()
	old := n.homedView.Load()
	if old != nil && old.Version() == view.Version() {
		return
	}
	n.homedView.Store(view)
	n.rehome(old, view)
}

// rehome is the incremental re-homing pass after a membership change:
// re-announce every locally resident object whose owner set moved (ground
// truth — this is what repopulates a partition whose homes all died),
// forward directory records likewise, and drop records this node no
// longer owns or whose holder died. Work is proportional to ownership
// churn — plaxton.TableDiff gates the whole pass when the embeddings
// agree — never to directory size: objects with unmoved owners produce
// nothing.
func (n *Node) rehome(old, cur *overlay.View) {
	if old == nil || old.Size() == 0 {
		return
	}
	if changed, total := overlay.Diff(old, cur); total > 0 && changed == 0 {
		return
	}
	var count int64
	announce := func(id uint64) {
		if overlay.SameOwners(old, cur, id) {
			return
		}
		count++
		n.enqueueLocal(hintcache.Update{
			Action:  hintcache.ActionInform,
			URLHash: id,
			Machine: n.machineID,
		})
	}
	for _, o := range n.data.Objects() {
		announce(o.ID)
	}
	if n.tier != nil {
		for _, id := range n.tier.DiskIDs() {
			announce(id)
		}
	}
	// Directory records held as a home: forward moved records to their
	// new owners (the pending queue coalesces duplicates with the
	// residency announcements above), then drop what no longer belongs
	// here. Records naming a machine that left the membership are dropped
	// outright — a dead holder's hints must not outlive it.
	var drop []hintcache.Record
	n.hints.Range(func(r hintcache.Record) bool {
		if overlay.SameOwners(old, cur, r.URLHash) {
			return true
		}
		count++
		if r.Machine != n.machineID && !cur.Contains(r.Machine) {
			drop = append(drop, r)
			return true
		}
		n.enqueueLocal(hintcache.Update{
			Action:  hintcache.ActionInform,
			URLHash: r.URLHash,
			Machine: r.Machine,
		})
		if !cur.IsOwner(r.URLHash, n.machineID) {
			drop = append(drop, r)
		}
		return true
	})
	for _, r := range drop {
		n.hints.Delete(r.URLHash, r.Machine)
	}
	if count > 0 {
		n.stats.rehomeObjects.Add(count)
	}
}

// distributePartitioned routes one drained batch to owner sets: records
// this node owns apply straight to the local directory, the rest group
// into per-owner minibatches on the same senders and KindHintBatch frames
// the broadcast path uses. Every known sender contributes a generation to
// the returned barrier, so Flush keeps its delivery contract in both
// modes.
func (n *Node) distributePartitioned(batch []hintcache.Update, stampNs int64) (senders []*peerSender, seqs []int64, records int) {
	view := n.overlay.View()
	var owners [overlay.MaxReplicas]uint64
	var local []hintcache.Update
	var routed map[*peerSender][]hintcache.Update

	n.peerMu.RLock()
	for _, u := range batch {
		for _, m := range view.Owners(u.URLHash, owners[:0]) {
			if m == n.machineID {
				local = append(local, u)
				continue
			}
			s, ok := n.senders[n.peers[m]]
			if !ok {
				continue // owner not in the peer table (yet)
			}
			if routed == nil {
				routed = make(map[*peerSender][]hintcache.Update, len(owners))
			}
			routed[s] = append(routed[s], u)
		}
	}
	senders = make([]*peerSender, 0, len(n.senders))
	for _, s := range n.senders {
		senders = append(senders, s)
	}
	n.peerMu.RUnlock()

	seqs = make([]int64, len(senders))
	for i, s := range senders {
		if mb := routed[s]; len(mb) > 0 {
			seqs[i] = s.enqueue(mb, stampNs)
		} else {
			seqs[i] = s.currentSeq()
		}
	}
	if len(local) > 0 {
		_ = n.hints.ApplyBatch(local)
	}
	return senders, seqs, len(batch)
}

// errHintHomeMiss distinguishes a definitive "no holder" answer (or a
// holder this node cannot use) from a failed consult (errHintHomeFail);
// the two resolve a lost race differently — a clean miss is the home
// working as designed, a failed consult feeds the home's breaker.
var (
	errHintHomeMiss = errors.New("hint home: no holder")
	errHintHomeFail = errors.New("hint home unavailable")
)

// hintHomeFor picks the hint home to consult for object h: the first of
// its owners, in ring order, that is a known peer whose breaker admits the
// call. Empty when this node is itself an owner (the local directory was
// already authoritative — its miss is the answer) or when no owner is
// usable.
func (n *Node) hintHomeFor(h uint64) string {
	var buf [overlay.MaxReplicas]uint64
	owners := n.homedView.Load().Owners(h, buf[:0])
	for _, m := range owners {
		if m == n.machineID {
			return ""
		}
	}
	var home string
	skipped := false
	n.peerMu.RLock()
	for _, m := range owners {
		u, ok := n.peers[m]
		if !ok {
			continue
		}
		if !n.breakers.Get(u).Allow() {
			skipped = true
			continue
		}
		home = u
		break
	}
	n.peerMu.RUnlock()
	if home == "" && skipped {
		// Owners exist but every one was breaker-refused: straight to
		// the origin, same accounting as a breaker-skipped peer probe.
		n.stats.breakerSkips.Add(1)
	}
	return home
}

// queryHintHome asks a hint home which machine holds h: GET
// /hinthome?h=<hex>. 200 carries the holder's hex machine ID; 404 is a
// definitive miss (machine 0, nil error); anything else is a consult
// failure.
func (n *Node) queryHintHome(ctx context.Context, homeURL string, h uint64, reqID string, sampled bool) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, homeURL+"/hinthome?h="+strconv.FormatUint(h, 16), nil)
	if err != nil {
		return 0, err
	}
	if sampled {
		req.Header[headerRequestID] = []string{reqID}
		req.Header[headerTraceSampled] = []string{"1"}
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64))
	if err != nil {
		return 0, err
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return 0, nil
	case http.StatusOK:
		machine, err := strconv.ParseUint(strings.TrimSpace(string(body)), 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad holder id: %w", err)
		}
		return machine, nil
	default:
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
}

// handleHintHome serves this node's directory partition to peers. The
// node's own residency counts (a home may itself hold the object); a
// record naming a machine the current view considers dead is dropped
// lazily instead of served, and a stale self-record with no backing
// residency likewise.
func (n *Node) handleHintHome(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	hv := r.URL.Query().Get("h")
	h, err := strconv.ParseUint(hv, 16, 64)
	if err != nil || h == 0 {
		http.Error(w, "bad h parameter", http.StatusBadRequest)
		return
	}
	start := time.Now()
	machine, ok := n.hints.Lookup(h)
	if ok && n.partitioned() {
		switch {
		case machine == n.machineID:
			if !n.residesLocally(h) {
				n.hints.Delete(h, machine)
				machine, ok = 0, false
			}
		case !n.overlay.View().Contains(machine):
			n.hints.Delete(h, machine)
			machine, ok = 0, false
		}
	}
	if !ok && n.residesLocally(h) {
		machine, ok = n.machineID, true
	}
	elapsed := time.Since(start)
	if !ok {
		n.stats.hintHomeServeMisses.Add(1)
		n.recordPeerSpan(r, "HINT-MISS", elapsed)
		http.Error(w, "no hint", http.StatusNotFound)
		return
	}
	n.stats.hintHomeServes.Add(1)
	n.recordPeerSpan(r, "HINT-SERVE", elapsed)
	w.Header().Set(headerTraceHop,
		obs.Hop{Node: n.label(), Outcome: "HINT-SERVE", Elapsed: elapsed}.Segment())
	io.WriteString(w, strconv.FormatUint(machine, 16))
}

// residesLocally reports residency in either local tier without touching
// recency or promoting.
func (n *Node) residesLocally(h uint64) bool {
	if n.data.Contains(h) {
		return true
	}
	return n.tier != nil && n.tier.Contains(h)
}

// fillViaHome resolves a partition-mode miss through the object's hint
// home. The primary leg performs the directory consult (the HINT-HOME
// hop, under the metadata timeout) and then the cache-to-cache transfer
// it names; the origin is the hedged fallback under the same budget as
// any peer race — a slow or dead home can never make the miss slower than
// going straight to the origin (the paper's principle 1 applied to the
// extra metadata hop).
func (n *Node) fillViaHome(h uint64, url, reqID, homeURL string, sampled bool) fetchOutcome {
	homeHost := hostPortOf(homeURL)
	homeBr := n.breakers.Get(homeURL)
	probeStart := time.Now()
	// Written by the primary goroutine, read at resolution (atomics cover
	// the abandoned-primary case; see fillRaced).
	var probeNS, consultNS atomic.Int64
	var holderMach atomic.Uint64

	primary := func(ctx context.Context) (fetched, error) {
		cctx, cancel := context.WithTimeout(ctx, metadataTimeout)
		machine, err := n.queryHintHome(cctx, homeURL, h, reqID, sampled)
		cancel()
		consult := time.Since(probeStart)
		consultNS.Store(int64(consult))
		probeNS.Store(int64(consult))
		if err != nil {
			return fetched{}, fmt.Errorf("%w: %v", errHintHomeFail, err)
		}
		if machine == 0 || machine == n.machineID {
			// 404, or the home thinks WE hold it — we just checked both
			// tiers, so that record is stale; treat as a miss.
			return fetched{}, errHintHomeMiss
		}
		n.peerMu.RLock()
		holderURL := n.peers[machine]
		n.peerMu.RUnlock()
		if holderURL == "" {
			return fetched{}, errHintHomeMiss
		}
		holderBr := n.breakers.Get(holderURL)
		if !holderBr.Allow() {
			n.stats.breakerSkips.Add(1)
			return fetched{}, errHintHomeMiss
		}
		holderMach.Store(machine)
		pctx, pcancel := context.WithTimeout(ctx, n.peerTimeout)
		defer pcancel()
		got, err := n.fetchPeer(pctx, holderURL, url, reqID, sampled)
		probeNS.Store(int64(time.Since(probeStart)))
		if err != nil {
			if ctx.Err() == nil { // not our own abandonment
				holderBr.Record(false)
			}
			return fetched{}, err
		}
		holderBr.Record(true)
		got.hops = append([]obs.Hop{{Node: homeHost, Outcome: "HINT-HOME", Elapsed: consult}}, got.hops...)
		return got, nil
	}
	fallback := func(ctx context.Context) (fetched, error) {
		octx, cancel := context.WithTimeout(ctx, n.originTimeout)
		defer cancel()
		return n.fetchOrigin(octx, url, reqID, sampled)
	}
	r := resilience.Race(context.Background(), n.hedgeBudget, primary, fallback)
	if r.Hedged {
		n.stats.hedgesStarted.Add(1)
	}
	switch r.Winner {
	case resilience.PrimaryWon:
		homeBr.Record(true)
		n.stats.hintHomeHits.Add(1)
		if r.Hedged {
			n.stats.hedgePeerWins.Add(1)
		}
		n.store(h, r.Value.version, r.Value.body)
		n.stats.remoteHits.Add(1)
		return fetchOutcome{how: "REMOTE", version: r.Value.version, body: r.Value.body, hops: r.Value.hops}

	case resilience.FallbackWon:
		// The consult-then-transfer leg never finished inside the budget.
		n.stats.hedgeOriginWins.Add(1)
		probe := time.Since(probeStart)
		n.hist.falsePositive.Observe(probe)
		if holder := holderMach.Load(); holder != 0 {
			// The home answered in time; the named holder was the slow
			// leg. Demote its record, keep the home healthy.
			homeBr.Record(true)
			n.stats.hintHomeHits.Add(1)
			n.demoteHint(h, holder)
		} else {
			homeBr.Record(false)
			n.stats.hintHomeErrors.Add(1)
		}
		hops := append([]obs.Hop{{Node: homeHost, Outcome: "PEER-ABANDON", Elapsed: probe}}, r.Value.hops...)
		n.store(h, r.Value.version, r.Value.body)
		n.stats.misses.Add(1)
		return fetchOutcome{how: "MISS,HEDGE", version: r.Value.version, body: r.Value.body, hops: hops}

	case resilience.FallbackAfterPrimary:
		if r.Hedged {
			n.stats.hedgeOriginWins.Add(1)
		}
		probe := time.Duration(probeNS.Load())
		var hops []obs.Hop
		how := "MISS"
		switch {
		case errors.Is(r.PrimaryErr, errHintHomeMiss):
			// Clean directory miss: nobody in the fleet holds it. One
			// cheap extra hop, then the origin — working as designed.
			homeBr.Record(true)
			n.stats.hintHomeMisses.Add(1)
			hops = append([]obs.Hop{{Node: homeHost, Outcome: "HINT-HOME-MISS", Elapsed: time.Duration(consultNS.Load())}}, r.Value.hops...)
		case errors.Is(r.PrimaryErr, errHintHomeFail):
			homeBr.Record(false)
			n.stats.hintHomeErrors.Add(1)
			n.hist.falsePositive.Observe(probe)
			hops = append([]obs.Hop{{Node: homeHost, Outcome: "HINT-HOME-FAIL", Elapsed: probe}}, r.Value.hops...)
		default:
			// The home answered, the named holder rejected or errored: a
			// stale record. Pay the wasted probe, demote at the home,
			// never search further (Section 3.1.1).
			homeBr.Record(true)
			n.stats.hintHomeHits.Add(1)
			n.stats.falsePositives.Add(1)
			n.hist.falsePositive.Observe(probe)
			if holder := holderMach.Load(); holder != 0 {
				n.demoteHint(h, holder)
			}
			hops = append([]obs.Hop{
				{Node: homeHost, Outcome: "HINT-HOME", Elapsed: time.Duration(consultNS.Load())},
				{Node: n.holderHost(holderMach.Load()), Outcome: "PEER-REJECT", Elapsed: probe},
			}, r.Value.hops...)
			how = "MISS,STALE-HINT"
		}
		n.store(h, r.Value.version, r.Value.body)
		n.stats.misses.Add(1)
		return fetchOutcome{how: how, version: r.Value.version, body: r.Value.body, hops: hops}

	default: // BothFailed
		homeBr.Record(false)
		n.stats.hintHomeErrors.Add(1)
		return fetchOutcome{err: fmt.Errorf("hint home: %v; origin: %w", r.PrimaryErr, r.Err)}
	}
}

// holderHost resolves a machine ID to its host:port for hop labels
// ("unknown-holder" when the peer table no longer has it).
func (n *Node) holderHost(machine uint64) string {
	n.peerMu.RLock()
	u := n.peers[machine]
	n.peerMu.RUnlock()
	if u == "" {
		return "unknown-holder"
	}
	return hostPortOf(u)
}
