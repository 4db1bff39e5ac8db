package hints

import (
	"fmt"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// digestState implements the Summary-Cache / Cache-Digests alternative to
// the paper's exact hint records: every node summarizes its contents in a
// Bloom filter that peers consult on a miss. Insertions enter a digest
// immediately; deletions only disappear when the digest is periodically
// rebuilt from the cache's true contents — the scheme's defining staleness,
// on top of its hash false positives. The filters are the node's
// digest.Counting, never sent a Remove, so a nonzero counter is a plain
// filter's set bit.
type digestState struct {
	filters   []*digest.Counting
	rebuiltAt []time.Duration
	interval  time.Duration

	rebuilds int64
}

// newDigestState sizes one filter per node for entriesPerNode objects at
// bitsPerEntry bits.
func newDigestState(nodes int, entriesPerNode int, bitsPerEntry float64, interval time.Duration) (*digestState, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("hints: digest rebuild interval must be positive")
	}
	ds := &digestState{
		filters:   make([]*digest.Counting, nodes),
		rebuiltAt: make([]time.Duration, nodes),
		interval:  interval,
	}
	for i := range ds.filters {
		f, err := digest.NewCountingForCapacity(entriesPerNode, bitsPerEntry)
		if err != nil {
			return nil, fmt.Errorf("hints: digest: %w", err)
		}
		ds.filters[i] = f
		// Stagger rebuild phases so the fleet doesn't rebuild in
		// lockstep.
		ds.rebuiltAt[i] = -time.Duration(float64(interval) * float64(i) / float64(nodes))
	}
	return ds, nil
}

// add records an insertion at node.
func (ds *digestState) add(node int, object uint64) {
	ds.filters[node].Add(object)
}

// maybeRebuild refreshes any digests whose rebuild interval has elapsed,
// using contents to enumerate each node's true cache contents.
func (ds *digestState) maybeRebuild(now time.Duration, contents func(node int) []uint64) {
	for n, f := range ds.filters {
		if now-ds.rebuiltAt[n] < ds.interval {
			continue
		}
		f.Reset()
		for _, id := range contents(n) {
			f.Add(id)
		}
		ds.rebuiltAt[n] = now
		ds.rebuilds++
	}
}

// SizePerNode returns one digest's size in bytes: the plain bit vector a
// Summary Cache peer ships, one bit per counter.
func (ds *digestState) SizePerNode() int64 {
	if len(ds.filters) == 0 {
		return 0
	}
	return int64(ds.filters[0].Bits() / 8)
}

// processDigests handles an L1 miss under ModeDigests: scan peers'
// digests near-first, probe the first positive one, fall through to the
// origin on a false positive (never keep searching — same rule as hints).
func (s *Simulator) processDigests(req trace.Request, n, reqS2 int) {
	s.digests.maybeRebuild(s.clock.Now(), func(node int) []uint64 {
		objs := s.l1[node].Objects()
		ids := make([]uint64, len(objs))
		for i, o := range objs {
			ids[i] = o.ID
		}
		return ids
	})

	candidate, near, found := s.scanDigests(req.Object, n, reqS2)
	if !found {
		s.miss(req, n, sim.OutcomeMiss, 0)
		return
	}
	if s.HasCopy(candidate, req.Object, req.Version) {
		s.remoteHit(req, n, lookupResult{found: true, genuine: true, node: int32(candidate), near: near})
		return
	}
	class := netmodel.L3
	if near {
		class = netmodel.L2
	}
	s.digestFalsePos++
	s.miss(req, n, sim.OutcomeFalsePos, s.model.FalsePositive(class))
}

// scanDigests finds the first digest-positive peer, preferring the
// requester's own L2 subtree.
func (s *Simulator) scanDigests(object uint64, requester, reqS2 int) (node int, near, found bool) {
	group := reqS2 * s.topo.L1PerL2
	for p := group; p < group+s.topo.L1PerL2; p++ {
		if p != requester && s.digests.filters[p].MayContain(object) {
			return p, true, true
		}
	}
	for p := 0; p < s.topo.NumL1; p++ {
		if s.topo.L2OfL1(p) == reqS2 || p == requester {
			continue
		}
		if s.digests.filters[p].MayContain(object) {
			return p, false, true
		}
	}
	return 0, false, false
}

// DigestSizePerNode returns the per-node digest size in bytes (0 when
// digests are not in use).
func (s *Simulator) DigestSizePerNode() int64 {
	if s.digests == nil {
		return 0
	}
	return s.digests.SizePerNode()
}
