// Package hints implements the paper's primary contribution (Section 3):
// a distributed cache that separates data paths from metadata paths. Data
// lives only in the leaf (L1) proxy caches; a metadata hierarchy propagates
// compact location hints so that an L1 miss is resolved locally — either
// into a direct cache-to-cache transfer from the nearest holder, or into a
// direct fetch from the origin server. The simulator models bounded
// set-associative hint tables (Figure 5), hint-propagation delay and the
// false positives/negatives it causes (Figure 6), the update-filtering
// metadata hierarchy versus a centralized directory (Table 5), and hosts
// the push-caching hooks of Section 4.
package hints

import (
	"fmt"
	"time"

	"beyondcache/internal/cache"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/metrics"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// Mode selects how L1 misses locate remote copies.
type Mode int

// Modes.
const (
	// ModeHints uses per-proxy location-hint caches fed by the metadata
	// hierarchy (the paper's basic design, Figure 4a).
	ModeHints Mode = iota + 1
	// ModeCentralDirectory uses an always-accurate centralized directory
	// (CRISP-style): no stale hints, but every L1 miss pays a directory
	// round trip before going anywhere.
	ModeCentralDirectory
	// ModeClientHints is the alternate configuration of Figure 4b: the
	// metadata hierarchy extends to the clients, so remote accesses skip
	// the L1 proxy hop (direct rather than via-L1 paths) — but the
	// client hint tables are typically smaller, and a false negative
	// sends the request straight to the server even when a nearby cache
	// has the data (the Section 3.3 trade-off).
	ModeClientHints
	// ModeDigests replaces the exact hint records with Bloom-filter
	// cache digests (Summary Cache / Squid Cache Digests): compact but
	// subject to hash false positives and rebuild-interval staleness.
	ModeDigests
)

// Pusher receives the events push-caching algorithms act on (Section 4).
// All callbacks run synchronously during Process.
type Pusher interface {
	// OnRemoteHit fires after requester fetched the object from holder
	// via a cache-to-cache transfer. near reports whether they share an
	// L2 subtree.
	OnRemoteHit(requester, holder int, req trace.Request, near bool)
	// OnVersionChange fires when a new version of an object is fetched,
	// with the nodes that held the previous version.
	OnVersionChange(prevHolders []int, req trace.Request)
	// OnLocalHit fires when a node hits in its own cache.
	OnLocalHit(node int, req trace.Request)
	// OnEvict fires when a node's cache evicts an object for space.
	OnEvict(node int, object uint64)
	// OnMiss fires after node fetched the object from the origin server
	// (nothing in the cache system had it). Prefetching extensions hook
	// here; the paper's push algorithms ignore it.
	OnMiss(node int, req trace.Request)
}

// Config parameterizes the simulator.
type Config struct {
	// Topology is the 3-level layout; zero value means sim.Default().
	// Its L2 grouping defines network distance classes and the metadata
	// hierarchy; data is cached only at L1 (Figure 4a).
	Topology sim.Topology

	// Model prices each access path.
	Model netmodel.Model

	// L1Capacity bounds each leaf data cache in bytes; <= 0 is infinite.
	L1Capacity int64

	// HintEntries bounds each node's hint table (total entries in the
	// k-way set-associative array); 0 means unbounded (a perfect index).
	HintEntries int
	// HintWays is the hint-table associativity; 0 means 4 (the
	// prototype's choice, Section 3.2.1).
	HintWays int

	// PropagationDelay is how long a hint add/remove takes to become
	// visible at other nodes (Figure 6). Zero means instantaneous.
	PropagationDelay time.Duration

	// Mode selects hint caches or a centralized directory.
	Mode Mode

	// IdealPush, when true, applies the push-ideal bound of Section
	// 4.1.1: every remote (L2/L3-distance) hit is charged as a local hit.
	IdealPush bool

	// Warmup discards statistics for requests before this virtual time.
	Warmup time.Duration

	// Pusher, if non-nil, receives push events.
	Pusher Pusher

	// MetaRouterBits, when non-zero, additionally routes every hint
	// update over Plaxton virtual trees of the given digit width and
	// records per-node metadata load (Section 3.1.3's self-configuring
	// hierarchy). Purely observational: response times still use the
	// fixed metadata hierarchy's accounting.
	MetaRouterBits uint

	// DigestBitsPerEntry and DigestEntries size each node's Bloom-filter
	// digest for ModeDigests (defaults: 8 bits/entry, 4096 entries).
	// DigestRebuild is the periodic rebuild interval that flushes
	// deleted entries out of the filters (default: 10 minutes of virtual
	// time, Squid rebuilds on the order of an hour).
	DigestBitsPerEntry float64
	DigestEntries      int
	DigestRebuild      time.Duration
}

// Simulator replays a trace against the hint architecture.
type Simulator struct {
	cfg   Config
	topo  sim.Topology
	model netmodel.Model

	l1  []*cache.LRU
	dir *directory

	// hintIndex models the bounded, shared-content hint table each node
	// keeps (nil when unbounded): the table a cluster node runs, with one
	// lock, since its stripe count changes nothing it holds. Because
	// updates are broadcast to every node, all nodes' tables converge to
	// the same contents, so one structure stands in for all of them.
	hintIndex *hintcache.Striped

	// metaRouter, when configured, mirrors update traffic onto Plaxton
	// virtual trees for load measurement.
	metaRouter *MetaRouter

	// digests holds the per-node Bloom filters of ModeDigests.
	digests        *digestState
	digestFalsePos int64

	stats *metrics.Response
	bw    *metrics.Bandwidth
	clock sim.Clock

	falseNegatives int64
	firstTime      time.Duration
	lastTime       time.Duration
	sawRequest     bool

	// staleScratch is the per-request buffer holdersOlderThan appends
	// into; reused across requests so the consistency sweep on the hot
	// path never allocates.
	staleScratch []int32
}

var _ sim.Processor = (*Simulator)(nil)

// New builds the simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Topology == (sim.Topology{}) {
		cfg.Topology = sim.Default()
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("hints: nil cost model")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeHints
	}
	if cfg.Topology.NumL2() > 64 {
		return nil, fmt.Errorf("hints: at most 64 L2 subtrees supported, got %d", cfg.Topology.NumL2())
	}
	if cfg.HintWays == 0 {
		cfg.HintWays = 4
	}

	s := &Simulator{
		cfg:   cfg,
		topo:  cfg.Topology,
		model: cfg.Model,
		l1:    make([]*cache.LRU, cfg.Topology.NumL1),
		dir:   newDirectory(cfg.Topology.NumL2()),
		stats: metrics.NewResponse(),
		bw:    metrics.NewBandwidth(),
	}
	if cfg.HintEntries > 0 {
		s.hintIndex = hintcache.NewStriped(cfg.HintEntries, cfg.HintWays, 1)
	}
	if cfg.MetaRouterBits > 0 {
		mr, err := NewMetaRouter(s, cfg.MetaRouterBits)
		if err != nil {
			return nil, err
		}
		s.metaRouter = mr
	}
	if cfg.Mode == ModeDigests {
		if cfg.DigestBitsPerEntry <= 0 {
			cfg.DigestBitsPerEntry = 8
		}
		if cfg.DigestEntries <= 0 {
			cfg.DigestEntries = 4096
		}
		if cfg.DigestRebuild <= 0 {
			cfg.DigestRebuild = 10 * time.Minute
		}
		s.cfg = cfg
		ds, err := newDigestState(cfg.Topology.NumL1, cfg.DigestEntries,
			cfg.DigestBitsPerEntry, cfg.DigestRebuild)
		if err != nil {
			return nil, err
		}
		s.digests = ds
	}
	for i := range s.l1 {
		node := i
		// Trace object IDs are dense popularity ranks, so the paged
		// dense index replaces per-request map hashing.
		c := cache.NewDenseLRU(cfg.L1Capacity)
		c.OnEvict(func(o cache.Object) {
			s.noteRemoved(node, o.ID)
			if s.cfg.Pusher != nil {
				s.cfg.Pusher.OnEvict(node, o.ID)
			}
		})
		s.l1[i] = c
	}
	return s, nil
}

// machineOf encodes a node index as a non-zero hint machine ID.
func machineOf(node int) uint64 { return uint64(node) + 1 }

// noteAdded records a new copy in the directory and the hint index.
func (s *Simulator) noteAdded(node int, object uint64, version int64) {
	s.dir.addCopy(object, int32(node), s.topo.L2OfL1(node), version, s.clock.Now())
	if s.hintIndex != nil {
		_ = s.hintIndex.Insert(object, machineOf(node)) // never fails
	}
	if s.metaRouter != nil {
		s.metaRouter.Add(node, object)
	}
	if s.digests != nil {
		s.digests.add(node, object)
	}
}

// noteRemoved records a removed copy, repointing the hint index at a
// surviving holder when one exists.
func (s *Simulator) noteRemoved(node int, object uint64) {
	s.dir.removeCopy(object, int32(node), s.topo.L2OfL1(node), s.clock.Now())
	if s.hintIndex != nil {
		if s.hintIndex.Delete(object, machineOf(node)) {
			if other := s.dir.anyHolder(object); other >= 0 {
				_ = s.hintIndex.Insert(object, machineOf(int(other)))
			}
		}
	}
	if s.metaRouter != nil {
		s.metaRouter.Remove(node, object)
	}
}

// InjectCopy places a copy of the request's object at node without charging
// any response time: the mechanism push algorithms use. When pinned is true
// the copy consumes no cache space (the push-ideal accounting). It reports
// whether the copy was cached, and charges the transfer to the "push"
// bandwidth flow.
func (s *Simulator) InjectCopy(node int, req trace.Request, pinned bool) bool {
	if s.l1[node].Contains(req.Object) {
		if _, ok := s.l1[node].GetVersion(req.Object, req.Version); ok {
			return false // already has a current copy; nothing pushed
		}
		// Stale copy was invalidated by GetVersion's side effect; its
		// eviction callback already ran.
	}
	obj := cache.Object{ID: req.Object, Size: req.Size, Version: req.Version}
	var ok bool
	if pinned {
		ok = s.l1[node].PutPinned(obj)
	} else {
		// Pushed copies are speculative: they fill slack space and are
		// evicted before demand-fetched data, converting to demand on
		// first reference.
		ok = s.l1[node].PutSpeculative(obj)
	}
	if ok {
		s.bw.Add("push", req.Size)
		s.noteAdded(node, req.Object, req.Version)
	}
	return ok
}

// InjectRefresh places a demand-standing copy of the request's object at
// node: the update-push path, where the node had already demonstrated
// interest by caching the previous version. It reports whether the copy was
// cached and charges the transfer to the "push" flow.
func (s *Simulator) InjectRefresh(node int, req trace.Request) bool {
	if s.HasCopy(node, req.Object, req.Version) {
		return false
	}
	obj := cache.Object{ID: req.Object, Size: req.Size, Version: req.Version}
	if !s.l1[node].Put(obj) {
		return false
	}
	s.bw.Add("push", req.Size)
	s.noteAdded(node, req.Object, req.Version)
	return true
}

// SetEvictDemandFirst disables the speculative-second-class eviction
// preference on every leaf cache, treating pushed copies as ordinary LRU
// entries. Exposed for the ablation benchmarks.
func (s *Simulator) SetEvictDemandFirst(v bool) {
	for _, c := range s.l1 {
		c.EvictDemandFirst = v
	}
}

// AgeObject demotes node's copy of object toward eviction without removing
// it. The update-push algorithm ages pushed updates so that objects updated
// many times without being read fall out of the cache (Section 4.1.2).
func (s *Simulator) AgeObject(node int, object uint64) {
	s.l1[node].Age(object)
}

// HasCopy reports whether node currently caches a current-or-newer version.
func (s *Simulator) HasCopy(node int, object uint64, version int64) bool {
	o, ok := s.l1[node].Peek(object)
	return ok && o.Version >= version
}

// Process implements sim.Processor.
func (s *Simulator) Process(req trace.Request) {
	if !req.Cachable() {
		return
	}
	s.clock.Advance(req.Time)
	if !s.sawRequest {
		s.firstTime = req.Time
		s.sawRequest = true
	}
	s.lastTime = req.Time

	n := s.topo.L1OfClient(req.Client)
	reqS2 := s.topo.L2OfL1(n)

	// Strong consistency: a version bump invalidates every cached copy
	// of the previous version (Section 2.2.1).
	s.staleScratch = s.dir.holdersOlderThan(req.Object, req.Version, s.staleScratch[:0])
	if staleHolders := s.staleScratch; len(staleHolders) > 0 {
		var prev []int
		if s.cfg.Pusher != nil {
			prev = make([]int, len(staleHolders))
		}
		for i, h := range staleHolders {
			if prev != nil {
				prev[i] = int(h)
			}
			s.l1[h].RemoveQuiet(req.Object)
			s.noteRemoved(int(h), req.Object)
		}
		if s.cfg.Pusher != nil {
			defer func() { s.cfg.Pusher.OnVersionChange(prev, req) }()
		}
	}

	// In the client-hints configuration (Figure 4b) the client consults
	// its own hint table before contacting ANY cache: a false negative
	// sends the request straight to the server even when the client's
	// own L1 proxy holds the data — the Section 3.3 trade-off.
	if s.cfg.Mode == ModeClientHints && s.hintIndex != nil {
		if _, ok := s.hintIndex.Lookup(req.Object); !ok {
			if s.dir.anyHolder(req.Object) >= 0 {
				s.falseNegatives++
			}
			s.miss(req, n, sim.OutcomeMiss, 0)
			return
		}
	}

	// Local hit?
	if _, ok := s.l1[n].GetVersion(req.Object, req.Version); ok {
		s.record(req, sim.OutcomeLocal, s.model.ViaL1Hit(netmodel.L1, req.Size))
		if s.cfg.Pusher != nil {
			s.cfg.Pusher.OnLocalHit(n, req)
		}
		return
	}

	if s.cfg.Mode == ModeCentralDirectory {
		s.processCentral(req, n, reqS2)
		return
	}
	if s.cfg.Mode == ModeDigests {
		s.processDigests(req, n, reqS2)
		return
	}

	// Bounded proxy hint table: an evicted hint entry means the node
	// cannot know about remote copies — a false negative sends it
	// straight to the server (the design never searches further on a
	// hint miss, Section 3.1.1).
	if s.cfg.Mode == ModeHints && s.hintIndex != nil {
		if _, ok := s.hintIndex.Lookup(req.Object); !ok {
			if s.dir.anyHolder(req.Object) >= 0 {
				s.falseNegatives++
			}
			s.miss(req, n, sim.OutcomeMiss, 0)
			return
		}
	}

	res := s.dir.lookup(req.Object, int32(n), reqS2, func(nd int32) int {
		return s.topo.L2OfL1(int(nd))
	}, s.clock.Now(), s.cfg.PropagationDelay)

	switch {
	case !res.found:
		s.miss(req, n, sim.OutcomeMiss, 0)
	case res.genuine:
		s.remoteHit(req, n, res)
	default:
		// False positive: one wasted round trip, then the server.
		class := netmodel.L3
		if res.near {
			class = netmodel.L2
		}
		s.miss(req, n, sim.OutcomeFalsePos, s.model.FalsePositive(class))
	}
}

// processCentral handles an L1 miss in centralized-directory mode: a
// directory round trip, then either a direct cache-to-cache transfer or a
// server fetch. The directory is always accurate.
func (s *Simulator) processCentral(req trace.Request, n, reqS2 int) {
	dirCost := s.model.FalsePositive(netmodel.L2) // one metadata round trip

	res := s.dir.lookup(req.Object, int32(n), reqS2, func(nd int32) int {
		return s.topo.L2OfL1(int(nd))
	}, s.clock.Now(), 0)
	if res.found && res.genuine {
		s.remoteHitExtra(req, n, res, dirCost)
		return
	}
	s.miss(req, n, sim.OutcomeMiss, dirCost)
}

// remoteHit completes a cache-to-cache transfer.
func (s *Simulator) remoteHit(req trace.Request, n int, res lookupResult) {
	s.remoteHitExtra(req, n, res, 0)
}

func (s *Simulator) remoteHitExtra(req trace.Request, n int, res lookupResult, extra time.Duration) {
	class := netmodel.L3
	outcome := sim.OutcomeFar
	if res.near {
		class = netmodel.L2
		outcome = sim.OutcomeNear
	}
	cost := s.remoteCost(class, req.Size) + extra
	if s.cfg.IdealPush {
		// Push-ideal bound: the copy would already have been local.
		cost = s.model.ViaL1Hit(netmodel.L1, req.Size) + extra
		outcome = sim.OutcomeLocal
	}
	// Serving promotes the copy at the holder.
	s.l1[res.node].Get(req.Object)
	s.bw.Add("demand", req.Size)
	s.fill(n, req)
	s.record(req, outcome, cost)
	if s.cfg.Pusher != nil {
		s.cfg.Pusher.OnRemoteHit(n, int(res.node), req, res.near)
	}
}

// remoteCost prices a cache-to-cache hit: through the L1 proxy in the basic
// configuration, or direct from the client in the Figure 4b configuration.
func (s *Simulator) remoteCost(class netmodel.Level, size int64) time.Duration {
	if s.cfg.Mode == ModeClientHints {
		return s.model.DirectHit(class, size)
	}
	return s.model.ViaL1Hit(class, size)
}

// missCostOf prices a server fetch under the configured mode.
func (s *Simulator) missCostOf(size int64) time.Duration {
	if s.cfg.Mode == ModeClientHints {
		return s.model.DirectMiss(size)
	}
	return s.model.ViaL1Miss(size)
}

// miss completes a server fetch, with an optional wasted-probe penalty.
func (s *Simulator) miss(req trace.Request, n int, outcome string, penalty time.Duration) {
	cost := s.missCostOf(req.Size) + penalty
	s.bw.Add("demand", req.Size)
	s.fill(n, req)
	s.record(req, outcome, cost)
	if s.cfg.Pusher != nil {
		s.cfg.Pusher.OnMiss(n, req)
	}
}

// fill caches the fetched object at the requesting node.
func (s *Simulator) fill(n int, req trace.Request) {
	obj := cache.Object{ID: req.Object, Size: req.Size, Version: req.Version}
	if s.l1[n].Put(obj) {
		s.noteAdded(n, req.Object, req.Version)
	}
}

func (s *Simulator) record(req trace.Request, outcome string, cost time.Duration) {
	if req.Time >= s.cfg.Warmup {
		s.stats.Add(outcome, cost, req.Size)
	}
}

// Stats returns the post-warmup response statistics.
func (s *Simulator) Stats() *metrics.Response { return s.stats }

// Bandwidth returns the byte-flow counters ("demand", "push").
func (s *Simulator) Bandwidth() *metrics.Bandwidth { return s.bw }

// MeanResponse returns the mean response time over recorded requests.
func (s *Simulator) MeanResponse() time.Duration { return s.stats.Mean() }

// HitRatio returns the fraction of recorded requests served from some cache
// in the system (local or remote).
func (s *Simulator) HitRatio() float64 {
	return s.stats.FracAny(sim.OutcomeLocal, sim.OutcomeNear, sim.OutcomeFar)
}

// LocalHitRatio returns the fraction served from the requester's own L1.
func (s *Simulator) LocalHitRatio() float64 { return s.stats.Frac(sim.OutcomeLocal) }

// FalseNegatives returns how many requests missed only because the bounded
// hint table had evicted the entry.
func (s *Simulator) FalseNegatives() int64 { return s.falseNegatives }

// FalsePositives returns how many requests wasted a probe on a stale hint.
func (s *Simulator) FalsePositives() int64 { return s.stats.Count(sim.OutcomeFalsePos) }

// Span returns the virtual time covered by processed requests.
func (s *Simulator) Span() time.Duration {
	if !s.sawRequest {
		return 0
	}
	return s.lastTime - s.firstTime
}

// RootUpdates returns the number of hint updates that reached the root of
// the filtering metadata hierarchy (Table 5).
func (s *Simulator) RootUpdates() int64 { return s.dir.rootUpdates }

// CentralUpdates returns the number a centralized directory would have
// received (every add and remove from every leaf).
func (s *Simulator) CentralUpdates() int64 { return s.dir.centralUpdates }

// LeafUpdates returns the number of updates leaf caches emitted.
func (s *Simulator) LeafUpdates() int64 { return s.dir.leafUpdates }

// UpdateRate converts an update count to updates/second of virtual time.
func (s *Simulator) UpdateRate(count int64) float64 {
	span := s.Span()
	if span <= 0 {
		return 0
	}
	return float64(count) / span.Seconds()
}

// Topology returns the simulator's topology.
func (s *Simulator) Topology() sim.Topology { return s.topo }

// MetaLoad returns the Plaxton metadata-load summary, or false when no
// meta router was configured.
func (s *Simulator) MetaLoad() (MetaLoad, bool) {
	if s.metaRouter == nil {
		return MetaLoad{}, false
	}
	return s.metaRouter.Load(), true
}
