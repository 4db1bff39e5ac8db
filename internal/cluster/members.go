package cluster

// The hint locator (DESIGN.md §14): the paper's exact location hints, kept in
// a hint directory over a Plaxton embedding of the live membership
// (internal/overlay).
//
// Every residency transition becomes a 20-byte hint record, and each round
// routes the coalesced records to their object's owner set: the object's
// Plaxton root plus R-1 ring successors, or with R = 0 every live member —
// the paper's prototype, a whole directory on every node. A miss consults
// the local directory first. Its miss is the answer when this node owns the
// object (always, at R = 0); otherwise it asks the object's hint home, one
// extra metadata hop paid under the same breaker and hedge discipline as any
// peer call, so it can never slow a miss below the straight-to-origin
// baseline. A home that holds the object answers with it, and every consult
// records its asker as a holder at the home. At R > 0 each node holds and
// receives only its O(R/N) share.
//
// Membership is a metadata-plane decision, maintained from liveness evidence
// the node already generates — hint-batch deliveries and inbound batches —
// topped up with cheap ping calls for peers that were silent a whole flush
// round, and for dead ones. A peer's breaker gates requests and consults
// and nothing else, and hears only the calls it admits: each transfer and
// each consult gives its own verdict (judge). A membership change re-homes
// incrementally: only objects whose owner set actually moved are
// re-announced or forwarded, and every record naming a departed machine
// goes.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/overlay"
	"beyondcache/internal/resilience"
	"beyondcache/internal/wire"
)

// hintLocator is the hint directory: the pending queue that feeds the peer
// records' senders (sender.go), the routing overlay and the membership that
// feeds it.
type hintLocator struct {
	n *Node
	// pend is the bounded coalescing queue of hint updates awaiting the
	// next round (at most one record per machine's copy; see pendq).
	pend *pendq
	// wire counts the batch bytes delivered: Stats.WireHintBytes at R = 0,
	// WireHintBytesPartitioned at R > 0, so the two settings' wire costs
	// stay separately comparable.
	wire *int64
	// overlay is the live routing plane, changed only by sync, which runs
	// one incremental re-homing pass per version step; mbr tracks the
	// per-peer liveness evidence that feeds it.
	overlay *overlay.Overlay
	mbr     membership
}

// newHintLocator builds the locator for an owner-set size of replicas (0:
// every live member; capped at overlay.MaxReplicas).
func newHintLocator(n *Node, replicas int) (*hintLocator, error) {
	if replicas > overlay.MaxReplicas {
		replicas = overlay.MaxReplicas
	}
	ov, err := overlay.New(overlayBits, replicas)
	if err != nil {
		return nil, err
	}
	delivered := &n.stats.WireHintBytes
	if replicas > 0 {
		delivered = &n.stats.WireHintBytesPartitioned
	}
	return &hintLocator{n: n, pend: newPendq(hintQueueCap), wire: delivered, overlay: ov}, nil
}

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
	// pingTimeout bounds one liveness probe; a membership sync runs each
	// probe on a goroutine of its own.
	pingTimeout = 300 * time.Millisecond
)

// membership accumulates per-peer liveness evidence between membership
// syncs: mu guards gen and every peer record's fails and contact. gen counts
// rounds, not syncs: a peer whose last good contact is older than the
// previous round gets probed.
type membership struct {
	mu  sync.Mutex
	gen uint64
}

// contact feeds one piece of liveness evidence into the tracker. A
// delivered hint batch is contact; a delivery that burned the sender's full
// retry budget counts toward deadAfterFails. An inbound batch spares a live
// peer this round's ping but revives no dead one: under a one-way partition
// it arrives while every call to its sender fails. Only a ping or a
// delivery that succeeds revives a peer.
func (l *hintLocator) contact(p *peer, sent, ok bool) {
	if p == nil {
		return
	}
	l.mbr.mu.Lock()
	switch {
	case !sent:
		p.contact = l.mbr.gen
	case ok:
		p.fails, p.contact = 0, l.mbr.gen
	default:
		p.fails++
	}
	l.mbr.mu.Unlock()
}

// ping performs one liveness probe: a ping call, judged by both ends' fault
// injectors like any other, so a blackholed or stalled node fails its peers'
// probes exactly as it fails their real traffic.
func (n *Node) ping(p *peer) bool {
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	r, err := n.call(ctx, p, wire.PeerHeader{Op: wire.PeerPing}, nil)
	return err == nil && r.Status == http.StatusNoContent
}

// sync runs at the top of each round, and in Fleet.FlushAll's pre-pass:
// fold the round's liveness evidence into the overlay and re-home against
// the resulting view before any records are routed. Live peers with recent
// contact are alive for free; the rest, dead ones too, get one probe each.
// A peer is dead when its consecutive failed contacts (deliveries and
// pings) reach deadAfterFails; dead peers keep being probed, so revival is
// symmetric. An open breaker is a data-path verdict and moves no member.
//
// The first call, from Start, only seeds the routing plane with the
// node itself, now that its machine ID is fixed. The first real sync folds
// the peer table in (and runs the resulting re-homing pass, which is what
// lets a restarted node's boot-recovered residents re-announce to their
// homes).
func (l *hintLocator) sync() {
	n := l.n
	old := l.overlay.View()
	if old.Size() == 0 {
		l.overlay.Join(n.machineID, n.URL())
		// Ownership admission: the directory only stores records for
		// objects this node is currently a home of. Records for everything
		// else are refused at insert (counted in hintcache FilterRejects) —
		// at R > 0 directory memory stays O(R/N) no matter what arrives on
		// the wire.
		n.hints.SetInsertFilter(func(h uint64) bool {
			return l.overlay.View().IsOwner(h, n.machineID)
		})
		return
	}
	peers := n.peerList()
	l.mbr.mu.Lock()
	gen := l.mbr.gen
	probe := peers[:0:0]
	for _, p := range peers {
		if p.contact+1 >= gen && p.fails < deadAfterFails {
			continue // alive, and heard from this round or the last
		}
		probe = append(probe, p)
	}
	l.mbr.mu.Unlock()

	alive := make([]bool, len(probe))
	var wg sync.WaitGroup
	for i, p := range probe {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alive[i] = n.ping(p)
		}()
	}
	wg.Wait()

	l.mbr.mu.Lock()
	for i, p := range probe {
		if alive[i] {
			p.fails, p.contact = 0, gen
		} else {
			p.fails++
		}
	}
	dead := make([]bool, len(peers))
	for i, p := range peers {
		dead[i] = p.fails >= deadAfterFails
	}
	l.mbr.mu.Unlock()

	for i, p := range peers {
		if dead[i] {
			l.overlay.Leave(p.id)
		} else {
			l.overlay.Join(p.id, p.url)
		}
	}

	if view := l.overlay.View(); view.Version() != old.Version() {
		l.rehome(old, view)
	}
}

// rehome is the incremental re-homing pass after a membership change:
// re-announce every locally resident object whose owner set moved (ground
// truth — this is what repopulates a partition whose homes all died),
// forward directory records likewise, and drop records this node no
// longer owns or whose holder left. It is the one place a departed
// holder's records go, moved owners or not. The pass walks the resident set and
// the directory (empty stripes cost nothing), but its work is proportional
// to ownership churn: objects with unmoved owners produce nothing. Owner
// sets are ring positions over the sorted members, so a join or a leave
// moves them even when no routing-table entry changes: there is no cheaper
// test than SameOwners, object by object.
func (l *hintLocator) rehome(old, cur *overlay.View) {
	n := l.n
	var count int64
	announce := func(id uint64) {
		if overlay.SameOwners(old, cur, id) {
			return
		}
		count++
		l.publish(id, true)
	}
	for _, o := range n.data.Objects() {
		announce(o.ID)
	}
	if n.tier != nil {
		for _, id := range n.tier.DiskIDs() {
			announce(id)
		}
	}
	// Directory records held as a home: records naming a machine that left
	// the membership are dropped outright, whether or not their object's
	// owners moved — a dead holder's hints must not outlive it. Moved
	// records are forwarded to their new owners (the pending queue
	// coalesces duplicates with the residency announcements above), then
	// dropped if they no longer belong here.
	var drop []hintcache.Record
	n.hints.Range(func(r hintcache.Record) bool {
		if !cur.Contains(r.Machine) {
			count++
			drop = append(drop, r)
			return true
		}
		if overlay.SameOwners(old, cur, r.URLHash) {
			return true
		}
		count++
		l.enqueue(hintcache.Update{Action: hintcache.ActionInform, URLHash: r.URLHash, Machine: r.Machine})
		if !cur.IsOwner(r.URLHash, n.machineID) {
			drop = append(drop, r)
		}
		return true
	})
	for _, r := range drop {
		n.hints.Delete(r.URLHash, r.Machine)
	}
	if count > 0 {
		atomic.AddInt64(&n.stats.RehomedObjects, count)
	}
}

// round advances the membership generation and syncs, so any re-homing
// informs the sync enqueues ride this same round, then hands the pending
// records to their owners. Only a round advances the generation: a sync
// outside one (Fleet.FlushAll's pre-pass) probes no peer a round has not
// yet found silent.
func (l *hintLocator) round(wait bool) {
	l.mbr.mu.Lock()
	l.mbr.gen++
	l.mbr.mu.Unlock()
	l.sync()
	l.flush(wait)
}

// flush drains the pending queue and hands each peer's sender its share of
// the batch, as route assigns it. A waited flush then returns only once
// every sender has gone idle, so each target's share, and anything an
// earlier round left in flight, has been delivered or abandoned; tests rely
// on that to avoid sleeping. The periodic round hands over without waiting
// — a target burning its retry budget never delays the next round, so
// healthy peers keep receiving hints at the configured interval. The
// fan-out is concurrent, one drain per target, so a round costs the slowest
// target, not the sum; rounds that send something are timed into the flush
// histogram (empty rounds would swamp it with no-ops), up to the moment the
// senders are idle again.
func (l *hintLocator) flush(wait bool) {
	start := time.Now()
	batch, stampNs := l.pend.drain(nil)
	routed := l.route(batch)
	peers := l.n.peerList()
	for _, target := range peers {
		if share := routed[target.id]; len(share) > 0 {
			target.sender.enqueue(l, share, stampNs)
		}
	}
	timed := len(batch) > 0 && len(peers) > 0
	await := func() {
		for _, target := range peers {
			target.sender.wait()
		}
		if timed {
			l.n.hist.flush.Observe(time.Since(start))
		}
	}
	if wait {
		await()
	} else if timed {
		go await()
	}
}

// route splits one drained batch by owner: records for objects this node
// owns apply straight to the local directory (applyHint: never a record
// naming this node), the rest group into per-owner minibatches keyed by
// machine ID (an owner not in the peer table yet gets nothing). One owner
// scratch per round, sized to the view, holds any owner set.
func (l *hintLocator) route(batch []hintcache.Update) map[uint64][]hintcache.Update {
	n := l.n
	view := l.overlay.View()
	owners := make([]uint64, 0, view.Size())
	routed := make(map[uint64][]hintcache.Update)
	for _, u := range batch {
		for _, m := range view.Owners(u.URLHash, owners) {
			if m == n.machineID {
				n.applyHint(u)
			} else {
				routed[m] = append(routed[m], u)
			}
		}
	}
	return routed
}

func (l *hintLocator) publish(h uint64, present bool) {
	action := hintcache.ActionInvalidate
	if present {
		action = hintcache.ActionInform
	}
	l.enqueue(hintcache.Update{Action: action, URLHash: h, Machine: l.n.machineID})
}

// enqueue folds one update into the pending queue, counting coalesces and
// bound-overflow drops.
func (l *hintLocator) enqueue(u hintcache.Update) {
	coalesced, dropped := l.pend.add(u)
	if coalesced {
		atomic.AddInt64(&l.n.stats.Coalesced, 1)
	}
	if dropped {
		atomic.AddInt64(&l.n.stats.PendingDropped, 1)
	}
}

// lookup consults the local directory: the most recent holder on record
// other than this node (which has just missed in both tiers, so a record
// naming it is stale). No record is the answer when this node is one of
// the object's owners (always, at R = 0); otherwise the candidate names the
// home to ask.
func (l *hintLocator) lookup(h uint64) candidate {
	n := l.n
	if machine, ok := n.hints.LookupExcept(h, n.machineID); ok {
		return candidate{peer: n.peerByID(machine)}
	}
	return candidate{home: l.hintHomeFor(h)}
}

// demote drops the local record naming the holder that was probed, and
// routes a machine-matched invalidate to the object's owners so the stale
// record leaves its hint homes too — machine-matched, here and there, so
// the object's other holder stays on record.
func (l *hintLocator) demote(h, holder uint64) {
	l.n.hints.Delete(h, holder)
	l.enqueue(hintcache.Update{Action: hintcache.ActionInvalidate, URLHash: h, Machine: holder})
}

// serveDigest: the hint locator serves no digest.
func (l *hintLocator) serveDigest(_ uint64, resp *wire.PeerHeader) []byte {
	resp.Status = http.StatusNotFound
	return nil
}

func (l *hintLocator) collect() locatorGauges {
	return locatorGauges{
		pending:          l.pend.len(),
		partitionObjects: l.n.hints.Occupied(),
		overlayMembers:   l.overlay.View().Size(),
	}
}

// hintHomeFor picks the hint home to consult for object h: the first of
// its owners, in ring order, that is a known peer whose breaker admits the
// call. Nil when this node is itself an owner (the local directory was
// already authoritative — its miss is the answer) or when no owner is
// usable.
func (l *hintLocator) hintHomeFor(h uint64) *peer {
	n := l.n
	view := l.overlay.View()
	if view.IsOwner(h, n.machineID) {
		return nil
	}
	var buf [overlay.MaxReplicas]uint64
	skipped := false
	for _, m := range view.Owners(h, buf[:0]) {
		p := n.peerByID(m)
		if p == nil {
			continue
		}
		if p.br.Allow() {
			return p
		}
		skipped = true
	}
	if skipped {
		// Owners exist but every one was breaker-refused: straight to
		// the origin, same accounting as a breaker-skipped peer probe.
		atomic.AddInt64(&n.stats.BreakerSkips, 1)
	}
	return nil
}

// queryHintHome asks a hint home for h: one holder call, which gives the
// home's breaker its verdict. A 200 carries the machine ID of a holder other
// than this node, or the home's own and its copy of the object; a 404 is a
// definitive miss. Any other status is a consult failure.
func (n *Node) queryHintHome(ctx context.Context, home *peer, h uint64, reqID string, sampled bool) (peerReply, error) {
	start := time.Now()
	req := sampledCall(wire.PeerHolder, reqID, sampled)
	req.B, req.C = h, n.machineID
	r, err := n.call(ctx, home, req, nil)
	if err == nil && r.Status != http.StatusOK && r.Status != http.StatusNotFound {
		err = fmt.Errorf("status %d", r.Status)
	}
	judge(ctx, home, start, err == nil)
	return r, err
}

// answerHolder answers a peer's consult (hash in h.B, the asker's machine ID
// in h.C). A home that holds the object serves it, as an object call would:
// its own machine ID in A, the version in C, the object as the body.
// Otherwise the locator names a holder other than the asker, or none (404).
//
// Whatever the answer, the asker has just missed in both tiers and is about
// to hold the object — from the holder named, from this answer, or from the
// origin — so the consult is also its inform: recorded here at once, the
// next consult from a third node names it without waiting for its round.
// The answer is computed first, so the asker's record cannot displace the
// holder it names.
func (n *Node) answerHolder(resp *wire.PeerHeader, h wire.PeerHeader, start time.Time) []byte {
	version, body, ok := n.serveCopy(resp, h, start)
	if ok {
		atomic.AddInt64(&n.stats.HintHomeServes, 1)
		resp.A, resp.C = n.machineID, uint64(version)
	} else if machine, named := n.loc.holder(h.B, h.C); named {
		elapsed := time.Since(start)
		atomic.AddInt64(&n.stats.HintHomeServes, 1)
		n.recordPeerSpan(h, "HINT-SERVE", elapsed)
		resp.A, resp.B = machine, uint64(elapsed)
	} else {
		atomic.AddInt64(&n.stats.HintHomeServeMisses, 1)
		n.recordPeerSpan(h, "HINT-MISS", time.Since(start))
		resp.Status = http.StatusNotFound
	}
	if h.C != 0 {
		n.applyHint(hintcache.Update{Action: hintcache.ActionInform, URLHash: h.B, Machine: h.C})
	}
	return body
}

// holder serves this node's directory partition to peers: the most recent
// holder on record other than the asker. A departed holder's records go in
// the re-homing pass (rehome); one that arrives later, from a peer yet to
// see the departure, is demoted by the first asker whose probe of it fails.
// No record names this node (applyHint): its own copy is served in the
// answer instead (answerHolder).
func (l *hintLocator) holder(h, asker uint64) (uint64, bool) {
	return l.n.hints.LookupExcept(h, asker)
}

// consultHome is the optional first step of a raced fill's primary leg: ask
// the hint home for h, under the peer-call timeout (the answer may carry
// the object). A home that holds h serves it in its answer, and
// consultHome returns that as the transfer, with no peer to probe: one
// round trip where asking the home again took two. Otherwise it turns the
// holder the home names into a peer to probe, admitted by its breaker: the
// transfer that follows gives that breaker its verdict, as the consult gave
// the home's. errHintHomeMiss covers every definitive "nobody you can use" —
// no record of a holder other than this node (the home passes over a record
// naming the asker: it just checked both tiers, so that record is stale),
// an unknown machine, a holder whose breaker refuses the probe.
func (n *Node) consultHome(ctx context.Context, home *peer, h uint64, reqID string, sampled bool) (*peer, fetched, error) {
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, metadataTimeout)
	r, err := n.queryHintHome(cctx, home, h, reqID, sampled)
	cancel()
	switch {
	case err != nil:
		return nil, fetched{}, fmt.Errorf("%w: %v", errHintHomeFail, err)
	case r.Status == http.StatusNotFound:
		return nil, fetched{}, errHintHomeMiss
	case r.A == home.id:
		return nil, servedBy(home, r, int64(r.C), start), nil
	}
	holder := n.peerByID(r.A)
	if r.A == n.machineID || holder == nil {
		return nil, fetched{}, errHintHomeMiss
	}
	if !holder.br.Allow() {
		atomic.AddInt64(&n.stats.BreakerSkips, 1)
		return nil, fetched{}, errHintHomeMiss
	}
	return holder, fetched{}, nil
}

// settleConsult counts one resolved hint-home consult in the hint_home_hops
// counters (the home's breaker had its verdict when the consult ended):
// named says the home answered with a holder this node went on to probe. A
// primary win is a hit as well: the home served its own copy, or named the
// holder that did.
func (n *Node) settleConsult(winner resilience.Winner, primaryErr error, named bool) {
	// Otherwise the consult failed, or was still running when the origin won.
	count := &n.stats.HintHomeErrors
	switch {
	case winner == resilience.BothFailed:
	case named || winner == resilience.PrimaryWon:
		count = &n.stats.HintHomeHits
	case errors.Is(primaryErr, errHintHomeMiss):
		count = &n.stats.HintHomeMisses
	}
	atomic.AddInt64(count, 1)
}
