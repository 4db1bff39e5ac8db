package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"beyondcache/internal/obs"
	"beyondcache/internal/resilience"
	"beyondcache/internal/wire"
)

// locator is the node's metadata path: how it learns where copies live and
// tells the fleet about its own. The paper keeps it apart from the data
// path, behind a local find-nearest lookup that must never slow a miss.
// NewNode picks one of two implementations — hint records routed to their
// objects' owners (members.go, over the per-peer senders of sender.go), with
// every member an owner at R = 0, or pulled digests (digests.go) — and
// nothing outside those files asks which. Each owns its state, what it keeps
// per peer being fields of the peer record (peers.go); the hint table, the
// peer table, the breakers and the counters stay the node's. None runs a
// goroutine between rounds, so there is nothing to stop when the node closes.
type locator interface {
	// sync brings the mechanism's picture of the fleet up to date: once the
	// machine ID is fixed (Start), at the top of every round, and in
	// Fleet.FlushAll on every node before any node's round.
	sync()
	// lookup is the local find-nearest, no network hop: where to probe for h.
	lookup(h uint64) candidate
	// holder answers a peer asking who holds h (a holder call): a machine
	// other than the asker, which has just missed locally (0: nobody to
	// pass over).
	holder(h, asker uint64) (machine uint64, ok bool)
	// publish feeds in one residency transition of a local object: present
	// after a fill or a boot recovery, absent once it left every tier.
	publish(h uint64, present bool)
	// demote withdraws a location a probe just proved wrong; holder is the
	// machine that was probed.
	demote(h, holder uint64)
	// contact is liveness evidence about a peer (nil: a machine this node
	// does not know): a hint batch arrived from it (sent false), or a
	// delivery to it succeeded (ok) or burned its retry budget.
	contact(p *peer, sent, ok bool)
	// round runs one metadata exchange. The periodic one (wait false) does
	// not wait for what it pushes to arrive; a waited one returns once
	// every peer's share has been delivered or abandoned.
	round(wait bool)
	// serveDigest answers a peer's digest pull from cursor since: it
	// returns the answer's body and fills in its status and fixed fields
	// (or a 404 status: this mechanism serves none). collect reports the
	// gauges for /metrics.
	serveDigest(since uint64, resp *wire.PeerHeader) []byte
	collect() locatorGauges
}

// candidate is a lookup's answer: at most one place to try before the
// origin. The zero value means the object is not known to be anywhere.
type candidate struct {
	// peer is believed to hold the object.
	peer *peer
	// home is a hint home to ask for the holder first: the local directory
	// had no record and is not authoritative for the object.
	home *peer
}

// locatorGauges is what a locator reports into /metrics; every family is
// emitted whatever the mechanism, at zero where it has no such state.
// pending is the records queued for the next round, partitionObjects the
// directory records held as a hint home and overlayMembers the live routing
// membership.
type locatorGauges struct {
	pending, partitionObjects, overlayMembers int
}

// fill resolves a cache miss as the singleflight leader: peer transfer if
// the locator points somewhere (raced against the origin past the hedge
// point), origin otherwise. Leader-side stats are counted here so waiters
// sharing the outcome do not double-count them.
func (n *Node) fill(h uint64, url, reqID string, sampled bool) fetchOutcome {
	// Re-check the cache: the object may have been filled between the
	// caller's miss and winning flight leadership.
	if obj, body, ok := n.data.Get(h); ok {
		atomic.AddInt64(&n.stats.LocalHits, 1)
		return fetchOutcome{how: "LOCAL", version: obj.Version, body: body}
	}

	// Disk tier: a spilled object is still a local hit — promoted back
	// into memory by the read — just a slower one. Probing here keeps
	// the memory-tier hot path (handleFetch) untouched: only flight
	// leaders, already off the fast path, pay the disk lookup.
	if n.tier != nil {
		if obj, body, ok := n.tier.Get(h); ok {
			atomic.AddInt64(&n.stats.LocalHits, 1)
			atomic.AddInt64(&n.stats.DiskHits, 1)
			return fetchOutcome{how: "LOCAL-DISK", version: obj.Version, body: body}
		}
	}

	// Local metadata lookup (the find-nearest command). A miss is detected
	// locally — no candidate means go straight to the origin — except where
	// the locator names a hint home to consult: one extra hop, hedged
	// against the origin so it can never slow the miss down.
	c := n.loc.lookup(h)
	var hops []obs.Hop
	switch {
	case c.home != nil:
		return n.fillRaced(h, url, reqID, c, sampled)
	case c.peer != nil && c.peer.br.Allow():
		return n.fillRaced(h, url, reqID, c, sampled)
	case c.peer != nil:
		// The peer's breaker is open: a known-bad peer must not cost
		// this request anything. Straight to the origin, hint kept —
		// the half-open probe will revalidate the peer later.
		atomic.AddInt64(&n.stats.BreakerSkips, 1)
		hops = append(hops, obs.Hop{Node: c.peer.host, Outcome: "BREAKER-SKIP"})
	}

	got, err := n.fetchOrigin(context.Background(), url)
	if err != nil {
		return fetchOutcome{err: err}
	}
	hops = append(hops, got.hops...)
	n.store(h, got.version, got.body)
	atomic.AddInt64(&n.stats.Misses, 1)
	return fetchOutcome{how: "MISS", version: got.version, body: got.body, hops: hops}
}

// The hedge point is measured, not configured (DESIGN.md §8): hedgeCold (a
// variable so tests can pin it) until a window holds hedgeWindow REMOTEs.
var hedgeCold = 50 * time.Millisecond

const hedgeWindow = 8

// deriveHedge runs at the top of each periodic round: once the REMOTEs
// since the last derivation number hedgeWindow, their p99, rounded up to
// its histogram bucket's upper bound, is the new point and the next window
// opens. Until then the point stands.
func (n *Node) deriveHedge() {
	now := n.hist.remote.Snapshot()
	win, _ := now.Diff(n.hedgeBase) // one histogram: the bounds match
	if win.Count() >= hedgeWindow {
		i, _ := slices.BinarySearch(win.Bounds, win.Quantile(0.99))
		n.hedgeAt.Store(int64(win.Bounds[i]))
		n.hedgeBase = now
	}
}

// errHintHomeMiss distinguishes a definitive "no holder" answer (or a
// holder this node cannot use) from a failed consult (errHintHomeFail);
// the two resolve a lost race differently — a clean miss is the home
// working as designed, a failed consult feeds the home's breaker.
var (
	errHintHomeMiss = errors.New("hint home: no holder")
	errHintHomeFail = errors.New("hint home unavailable")
)

// fillRaced resolves a miss the locator had a candidate for. The primary
// leg asks the hint home who holds the object, if the candidate names one
// (the HINT-HOME hop; a home that holds the object serves it in its answer,
// and that is the transfer), then runs the
// cache-to-cache transfer under its own deadline; if the leg stays silent
// past the hedge point the origin fetch starts in parallel and the first
// success wins. Either way a peer that did not serve is demoted. The
// consult and the transfer each give their own peer's breaker its verdict
// (judge), so a dead peer or a dead home stops costing anything — the
// paper's principles 1–2 enforced under faults: neither a stale hint nor
// the extra metadata hop may make a request slower than going straight to
// the origin.
func (n *Node) fillRaced(h uint64, url, reqID string, c candidate, sampled bool) fetchOutcome {
	start := time.Now()
	// What the primary leg learned and took, read once the race is over:
	// Race returns only after the leg has, abandoned or not. peer — the one
	// the transfer is asked of, its breaker having admitted the probe —
	// stays nil until a holder is known: from the start on the direct path,
	// once the home has named a usable one otherwise — and for good when the
	// home served the object itself.
	var leg struct {
		probe, consult time.Duration
		peer           *peer
	}
	leg.peer = c.peer // nil when there is a home to ask first
	primary := func(ctx context.Context) (fetched, error) {
		var chain []obs.Hop
		if c.home != nil {
			p, got, err := n.consultHome(ctx, c.home, h, reqID, sampled)
			leg.consult = time.Since(start)
			leg.probe = leg.consult
			if err != nil || p == nil {
				return got, err
			}
			leg.peer = p
			chain = []obs.Hop{{Node: c.home.host, Outcome: "HINT-HOME", Elapsed: leg.consult}}
		}
		pctx, cancel := context.WithTimeout(ctx, metadataTimeout)
		defer cancel()
		got, err := n.fetchPeer(pctx, leg.peer, url, reqID, sampled)
		leg.probe = time.Since(start)
		if chain != nil {
			got.hops = append(chain, got.hops...)
		}
		return got, err
	}
	fallback := func(ctx context.Context) (fetched, error) { return n.fetchOrigin(ctx, url) }
	r := resilience.Race(context.Background(), time.Duration(n.hedgeAt.Load()), primary, fallback)
	p, probe, consult := leg.peer, leg.probe, leg.consult
	if r.Hedged {
		atomic.AddInt64(&n.stats.HedgesStarted, 1)
	}
	if c.home != nil {
		n.settleConsult(r.Winner, r.PrimaryErr, p != nil)
	}
	switch r.Winner {
	case resilience.PrimaryWon:
		if r.Hedged {
			atomic.AddInt64(&n.stats.HedgePeerWins, 1)
		}
		n.store(h, r.Value.version, r.Value.body)
		atomic.AddInt64(&n.stats.RemoteHits, 1)
		return fetchOutcome{how: "REMOTE", version: r.Value.version, body: r.Value.body, hops: r.Value.hops}
	case resilience.BothFailed:
		return fetchOutcome{err: fmt.Errorf("peer: %v; %w", r.PrimaryErr, r.Err)}
	}

	// The origin served. What the primary leg cost, and what it says about
	// the hint, depends on how far it got.
	if r.Hedged {
		atomic.AddInt64(&n.stats.HedgeOriginWins, 1)
	}
	abandoned := r.Winner == resilience.FallbackWon
	var hops []obs.Hop
	how, wasted := "MISS", true // wasted: the probe time bought nothing
	switch {
	case p != nil && abandoned:
		// The named peer was still silent when the hedged origin fetch
		// answered: abandon the transfer, demote the hint; the call's own
		// verdict (judge) feeds the breaker that gates later requests.
		n.loc.demote(h, p.id)
		how = "MISS,HEDGE"
		hops = append(hops, obs.Hop{Node: p.host, Outcome: "PEER-ABANDON", Elapsed: probe})
	case p != nil:
		// Stale hint or digest false positive: the peer definitively
		// rejected (or errored) and the origin served. Pay the wasted
		// probe, drop the hint (at its home too, if it has one), never
		// search further (Section 3.1.1). A peer still filling keeps its
		// hint: an invalidate routed now would reach the homes after its
		// fill, and delete a record that had come true.
		if !errors.Is(r.PrimaryErr, errPeerFilling) {
			n.loc.demote(h, p.id)
		}
		atomic.AddInt64(&n.stats.FalsePositives, 1)
		how = "MISS,STALE-HINT"
		hops = append(hops, obs.Hop{Node: p.host, Outcome: "PEER-REJECT", Elapsed: probe})
	case abandoned:
		// The consult itself never finished before the origin did.
		how = "MISS,HEDGE"
		hops = append(hops, obs.Hop{Node: c.home.host, Outcome: "PEER-ABANDON", Elapsed: probe})
	case errors.Is(r.PrimaryErr, errHintHomeMiss):
		// Clean directory miss: nobody in the fleet holds it. One cheap
		// extra hop, then the origin — working as designed.
		wasted = false
		hops = append(hops, obs.Hop{Node: c.home.host, Outcome: "HINT-HOME-MISS", Elapsed: consult})
	default:
		hops = append(hops, obs.Hop{Node: c.home.host, Outcome: "HINT-HOME-FAIL", Elapsed: probe})
	}
	if p != nil && c.home != nil {
		hops = append([]obs.Hop{{Node: c.home.host, Outcome: "HINT-HOME", Elapsed: consult}}, hops...)
	}
	if wasted {
		n.hist.falsePositive.Observe(probe)
	}
	hops = append(hops, r.Value.hops...)
	n.store(h, r.Value.version, r.Value.body)
	atomic.AddInt64(&n.stats.Misses, 1)
	return fetchOutcome{how: how, version: r.Value.version, body: r.Value.body, hops: hops}
}
