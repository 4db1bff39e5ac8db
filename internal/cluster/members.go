package cluster

// Partitioned hint directory (DESIGN.md §14).
//
// The broadcast locator replicates the full hint directory on every node:
// O(total objects) memory and O(N) fanout per update. The partitioned
// locator instead derives a Plaxton embedding over the hashed addresses of
// the LIVE membership (internal/overlay) and routes each object's hint
// records to its owner set — the object's Plaxton root plus R-1 ring
// successors — so each node holds and receives only its O(R/N) share. The
// price is one extra metadata hop on the miss path when the missing node is
// not itself an owner (the HINT-HOME consult), paid under the same breaker
// and hedge discipline as any peer call so it can never slow a miss below
// the straight-to-origin baseline.
//
// Membership is maintained from liveness evidence the node already
// generates — successful hint-batch deliveries, inbound batches, breaker
// state — topped up with cheap ping calls for peers that were silent
// a whole flush round. A membership change re-homes incrementally: only
// objects whose owner set actually moved are re-announced or forwarded,
// with plaxton.TableDiff gating the scan outright when nothing moved.

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

// partitionLocator is the partitioned hint directory: the broadcast
// locator's queue, senders and records, routed to owner sets over a live
// membership instead of to every peer.
type partitionLocator struct {
	*hintPlane
	// overlay is the live routing plane; mbr tracks the per-peer liveness
	// evidence that feeds it; homedView is the membership view the
	// directory was last re-homed against — sync compares it to the
	// overlay's current view and runs one incremental re-homing pass per
	// version step.
	overlay   *overlay.Overlay
	mbr       membership
	homedView atomic.Pointer[overlay.View]
}

// newPartitionLocator builds the locator for an owner-set size of replicas
// (capped at overlay.MaxReplicas).
func newPartitionLocator(n *Node, replicas int) (*partitionLocator, error) {
	if replicas > overlay.MaxReplicas {
		replicas = overlay.MaxReplicas
	}
	ov, err := overlay.New(overlayBits, replicas)
	if err != nil {
		return nil, err
	}
	return &partitionLocator{hintPlane: newHintPlane(n, &n.stats.wireHintBytesPart), overlay: ov}, nil
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
	// pingTimeout bounds one liveness probe; pingFanout bounds how many
	// run concurrently per membership sync.
	pingTimeout = 300 * time.Millisecond
	pingFanout  = 8
)

// membership accumulates per-peer liveness evidence between membership
// syncs: mu guards gen and every peer record's fails and contact. gen counts
// sync rounds: a peer whose last good contact is older than the previous
// round gets probed.
type membership struct {
	mu  sync.Mutex
	gen uint64
}

// contact feeds one piece of liveness evidence into the tracker. A
// delivered hint batch is contact; a delivery that burned the sender's full
// retry budget counts toward deadAfterFails; an inbound batch is contact
// too — a restarted or healed node re-announces itself by flushing to us,
// which must revive it even if our own probes to it still fail.
func (l *partitionLocator) contact(p *peer, ok bool) {
	if p == nil {
		return
	}
	l.mbr.mu.Lock()
	if ok {
		p.fails, p.contact = 0, l.mbr.gen
	} else {
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

// sync runs at the top of each round: fold the round's liveness evidence
// into the overlay and re-home against the resulting view before any
// records are routed. Peers with recent contact are alive for free; the
// rest get one bounded-concurrency probe. A peer is dead when its
// consecutive failures reach deadAfterFails or its breaker is open
// (breaker-detected peer death); dead peers keep being probed, so revival
// is symmetric.
//
// The first call, from Start, only seeds the routing plane with the
// node itself, now that its machine ID is fixed. The first real sync folds
// the peer table in (and runs the resulting re-homing pass, which is what
// lets a restarted node's boot-recovered residents re-announce to their
// homes).
func (l *partitionLocator) sync() {
	n := l.n
	if l.homedView.Load() == nil {
		l.overlay.Join(n.machineID, n.URL())
		l.homedView.Store(l.overlay.View())
		// Ownership admission: the directory only stores records for
		// objects this node is currently a home of. Records for everything
		// else are refused at insert (counted in hintcache FilterRejects) —
		// directory memory stays O(R/N) no matter what arrives on the wire.
		n.hints.SetInsertFilter(func(h uint64) bool {
			return l.overlay.View().IsOwner(h, n.machineID)
		})
		return
	}
	peers := n.peerList()
	l.mbr.mu.Lock()
	l.mbr.gen++
	gen := l.mbr.gen
	probe := peers[:0:0]
	for _, p := range peers {
		if p.contact+1 >= gen {
			continue // heard from it this round or the last
		}
		probe = append(probe, p)
	}
	l.mbr.mu.Unlock()

	alive := make([]bool, len(probe))
	var wg sync.WaitGroup
	sem := make(chan struct{}, pingFanout)
	for i, p := range probe {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *peer) {
			defer wg.Done()
			defer func() { <-sem }()
			alive[i] = n.ping(p)
		}(i, p)
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
		if dead[i] || p.br.State() == resilience.Open {
			l.overlay.Leave(p.id)
		} else {
			l.overlay.Join(p.id, p.url)
		}
	}

	view := l.overlay.View()
	old := l.homedView.Load()
	if old != nil && old.Version() == view.Version() {
		return
	}
	l.homedView.Store(view)
	l.rehome(old, view)
}

// rehome is the incremental re-homing pass after a membership change:
// re-announce every locally resident object whose owner set moved (ground
// truth — this is what repopulates a partition whose homes all died),
// forward directory records likewise, and drop records this node no
// longer owns or whose holder died. Work is proportional to ownership
// churn — plaxton.TableDiff gates the whole pass when the embeddings
// agree — never to directory size: objects with unmoved owners produce
// nothing.
func (l *partitionLocator) rehome(old, cur *overlay.View) {
	n := l.n
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
		n.stats.rehomeObjects.Add(count)
	}
}

// round syncs the membership first, so any re-homing informs it enqueues
// ride this same round, then routes the pending records to their owner
// sets over the senders and KindHintBatch frames the broadcast locator uses.
func (l *partitionLocator) round(wait bool) {
	l.sync()
	l.flush(wait, l.route)
}

// route splits one drained batch by owner: records this node owns apply
// straight to the local directory, the rest group into per-owner
// minibatches (an owner not in the peer table yet gets nothing).
func (l *partitionLocator) route(batch []hintcache.Update) map[*peer][]hintcache.Update {
	n := l.n
	view := l.overlay.View()
	var owners [overlay.MaxReplicas]uint64
	var local []hintcache.Update
	routed := make(map[*peer][]hintcache.Update)
	for _, u := range batch {
		for _, m := range view.Owners(u.URLHash, owners[:0]) {
			if m == n.machineID {
				local = append(local, u)
			} else if target := n.peerByID(m); target != nil {
				routed[target] = append(routed[target], u)
			}
		}
	}
	if len(local) > 0 {
		_ = n.hints.ApplyBatch(local)
	}
	return routed
}

// lookup consults the local directory first. Its miss is only
// authoritative when this node is one of the object's hint homes;
// otherwise the candidate names the home to ask.
func (l *partitionLocator) lookup(h uint64) candidate {
	c, ok := l.directory(h)
	if !ok {
		c.home = l.hintHomeFor(h)
	}
	return c
}

// demote drops the local record; the authoritative one lives at the
// object's hint homes, so a routed machine-matched invalidate withdraws the
// stale record there too — machine-matched, here and there, so the object's
// other holder stays on record.
func (l *partitionLocator) demote(h, holder uint64) {
	l.hintPlane.demote(h, holder)
	l.enqueue(hintcache.Update{Action: hintcache.ActionInvalidate, URLHash: h, Machine: holder})
}

func (l *partitionLocator) collect() locatorGauges {
	g := l.hintPlane.collect()
	g.partitionObjects = l.n.hints.Occupied()
	g.overlayMembers = l.overlay.View().Size()
	return g
}

// hintHomeFor picks the hint home to consult for object h: the first of
// its owners, in ring order, that is a known peer whose breaker admits the
// call. Nil when this node is itself an owner (the local directory was
// already authoritative — its miss is the answer) or when no owner is
// usable.
func (l *partitionLocator) hintHomeFor(h uint64) *peer {
	n := l.n
	var buf [overlay.MaxReplicas]uint64
	owners := l.homedView.Load().Owners(h, buf[:0])
	for _, m := range owners {
		if m == n.machineID {
			return nil
		}
	}
	skipped := false
	for _, m := range owners {
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
		n.stats.breakerSkips.Add(1)
	}
	return nil
}

// queryHintHome asks a hint home which machine other than this one holds h:
// one holder call. 200 carries the holder's machine ID; 404 is a definitive
// miss (machine 0, nil error); anything else is a consult failure.
func (n *Node) queryHintHome(ctx context.Context, home *peer, h uint64, reqID string, sampled bool) (uint64, error) {
	req := sampledCall(wire.PeerHolder, reqID, sampled)
	req.B, req.C = h, n.machineID
	r, err := n.call(ctx, home, req, nil)
	switch {
	case err != nil:
		return 0, err
	case r.Status == http.StatusNotFound:
		return 0, nil
	case r.Status == http.StatusOK:
		return r.A, nil
	}
	return 0, fmt.Errorf("status %d", r.Status)
}

// answerHolder answers a peer's consult (hash in h.B, the asker's machine ID
// in h.C) from the locator's local knowledge. The node's own residency
// counts (a home may itself hold the object).
func (n *Node) answerHolder(resp *wire.PeerHeader, h wire.PeerHeader, start time.Time) {
	machine, ok := n.loc.holder(h.B, h.C)
	if !ok && n.residesLocally(h.B) {
		machine, ok = n.machineID, true
	}
	elapsed := time.Since(start)
	if !ok {
		n.stats.hintHomeServeMisses.Add(1)
		n.recordPeerSpan(h, "HINT-MISS", elapsed)
		resp.Status = http.StatusNotFound
		return
	}
	n.stats.hintHomeServes.Add(1)
	n.recordPeerSpan(h, "HINT-SERVE", elapsed)
	resp.A, resp.B = machine, uint64(elapsed)
}

// holder serves this node's directory partition to peers: the most recent
// holder on record other than the asker. A record naming a machine the
// current view considers dead is dropped lazily instead of served, and a
// stale self-record with no backing residency likewise; the object's next
// record, if it has one, is then the answer.
func (l *partitionLocator) holder(h, asker uint64) (uint64, bool) {
	for {
		machine, ok := l.n.hints.LookupExcept(h, asker)
		if !ok {
			return 0, false
		}
		stale := !l.overlay.View().Contains(machine)
		if machine == l.n.machineID {
			stale = !l.n.residesLocally(h)
		}
		if !stale {
			return machine, true
		}
		l.n.hints.Delete(h, machine)
	}
}

// residesLocally reports residency in either local tier without touching
// recency or promoting.
func (n *Node) residesLocally(h uint64) bool {
	if n.data.Contains(h) {
		return true
	}
	return n.tier != nil && n.tier.Contains(h)
}

// consultHome is the optional first step of a raced fill's primary leg: ask
// the hint home who holds h (under the metadata timeout) and turn the
// answer into a peer to probe. errHintHomeMiss covers every definitive
// "nobody you can use" — no record of a holder other than this node (the
// home passes over a record naming the asker: it just checked both tiers,
// so that record is stale), an unknown machine, a holder whose breaker
// refuses the probe.
func (n *Node) consultHome(ctx context.Context, home *peer, h uint64, reqID string, sampled bool) (*peer, error) {
	cctx, cancel := context.WithTimeout(ctx, metadataTimeout)
	machine, err := n.queryHintHome(cctx, home, h, reqID, sampled)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errHintHomeFail, err)
	}
	holder := n.peerByID(machine)
	if machine == n.machineID || holder == nil {
		return nil, errHintHomeMiss
	}
	if ctx.Err() != nil {
		// Abandoned while the home answered: ask no breaker for a probe
		// the resolution will never record.
		return nil, fmt.Errorf("%w: %v", errHintHomeFail, ctx.Err())
	}
	if !holder.br.Allow() {
		n.stats.breakerSkips.Add(1)
		return nil, errHintHomeMiss
	}
	return holder, nil
}

// settleConsult accounts one resolved hint-home consult on the home's
// breaker and the hint_home_hops counters: named says the home answered
// with a holder this node went on to probe.
func (n *Node) settleConsult(home *peer, winner resilience.Winner, primaryErr error, named bool) {
	br := home.br
	switch {
	case winner == resilience.BothFailed:
		br.Record(false)
		n.stats.hintHomeErrors.Add(1)
	case named:
		br.Record(true)
		n.stats.hintHomeHits.Add(1)
	case errors.Is(primaryErr, errHintHomeMiss):
		br.Record(true)
		n.stats.hintHomeMisses.Add(1)
	default: // the consult failed, or was still running when the origin won
		br.Record(false)
		n.stats.hintHomeErrors.Add(1)
	}
}
