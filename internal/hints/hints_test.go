package hints

import (
	"testing"
	"time"

	"beyondcache/internal/netmodel"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// smallTopo: 4 L1s, 2 per L2 (two subtrees), 2 clients per L1.
// Clients map round-robin: client c -> L1 c%4.
func smallTopo() sim.Topology {
	return sim.Topology{NumL1: 4, ClientsPerL1: 2, L1PerL2: 2}
}

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = netmodel.NewRousskovMin()
	}
	if cfg.Topology == (sim.Topology{}) {
		cfg.Topology = smallTopo()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func req(seq int64, client int, object uint64, size int64) trace.Request {
	return trace.Request{
		Seq: seq, Time: time.Duration(seq) * time.Second,
		Client: client, Object: object, Size: size, Version: 1,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(Config{Model: netmodel.NewTestbed(),
		Topology: sim.Topology{NumL1: 3, ClientsPerL1: 1, L1PerL2: 2}}); err == nil {
		t.Error("invalid topology accepted")
	}
	if _, err := New(Config{Model: netmodel.NewTestbed(),
		Topology: sim.Topology{NumL1: 130, ClientsPerL1: 1, L1PerL2: 1}}); err == nil {
		t.Error("more than 64 L2 subtrees accepted")
	}
}

func TestMissThenLocalHit(t *testing.T) {
	s := mustSim(t, Config{})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 0, 1, 100))
	if got := s.Stats().Count(sim.OutcomeMiss); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := s.Stats().Count(sim.OutcomeLocal); got != 1 {
		t.Errorf("local hits = %d, want 1", got)
	}
}

func TestRemoteHitNearAndFar(t *testing.T) {
	m := netmodel.NewRousskovMin()
	s := mustSim(t, Config{Model: m})
	// Client 0 -> L1 0 fetches object 1.
	s.Process(req(0, 0, 1, 100))
	// Client 1 -> L1 1 shares L2 subtree {0,1}: near cache-to-cache hit.
	s.Process(req(1, 1, 1, 100))
	if got := s.Stats().Count(sim.OutcomeNear); got != 1 {
		t.Fatalf("near hits = %d, want 1 (outcomes %v)", got, s.Stats().Outcomes())
	}
	if got := s.Stats().MeanOf(sim.OutcomeNear); got != m.ViaL1Hit(netmodel.L2, 100) {
		t.Errorf("near cost = %v, want ViaL1Hit(L2)", got)
	}
	// Client 2 -> L1 2 in the other subtree: far hit.
	s.Process(req(2, 2, 1, 100))
	if got := s.Stats().Count(sim.OutcomeFar); got != 1 {
		t.Fatalf("far hits = %d, want 1", got)
	}
	if got := s.Stats().MeanOf(sim.OutcomeFar); got != m.ViaL1Hit(netmodel.L3, 100) {
		t.Errorf("far cost = %v, want ViaL1Hit(L3)", got)
	}
	// The fetches replicate: client 3 -> L1 3 shares subtree with L1 2,
	// so now it sees a near copy.
	s.Process(req(3, 3, 1, 100))
	if got := s.Stats().Count(sim.OutcomeNear); got != 2 {
		t.Errorf("near hits = %d, want 2", got)
	}
}

func TestMissUsesDirectServerPath(t *testing.T) {
	m := netmodel.NewRousskovMin()
	s := mustSim(t, Config{Model: m})
	s.Process(req(0, 0, 1, 100))
	if got := s.Stats().MeanOf(sim.OutcomeMiss); got != m.ViaL1Miss(100) {
		t.Errorf("miss cost = %v, want ViaL1Miss = %v (do not slow down misses)", got, m.ViaL1Miss(100))
	}
}

func TestVersionChangeInvalidatesEverywhere(t *testing.T) {
	s := mustSim(t, Config{})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 1, 1, 100)) // near hit; two copies now
	r := req(2, 2, 1, 100)
	r.Version = 2
	s.Process(r) // version bump: both copies invalid -> server miss
	if got := s.Stats().Count(sim.OutcomeMiss); got != 2 {
		t.Errorf("misses = %d, want 2 (stale remote copies must not serve)", got)
	}
	// Old holders must be gone from the directory.
	for _, n := range s.dir.holderNodes(1) {
		if !s.HasCopy(int(n), 1, 2) {
			t.Errorf("node %d holds a stale copy per directory", n)
		}
	}
}

func TestPropagationDelayCausesFalseNegatives(t *testing.T) {
	// With a huge delay, node 1 cannot learn about node 0's copy.
	s := mustSim(t, Config{PropagationDelay: time.Hour})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 1, 1, 100)) // 1s later: hint not yet visible
	if got := s.Stats().Count(sim.OutcomeMiss); got != 2 {
		t.Errorf("misses = %d, want 2 (hint invisible within delay)", got)
	}
	// After the delay has passed, hints work.
	late := req(2, 2, 1, 100)
	late.Time = 2 * time.Hour
	s.Process(late)
	if got := s.Stats().FracAny(sim.OutcomeNear, sim.OutcomeFar); got == 0 {
		t.Error("no remote hit even after the delay elapsed")
	}
}

func TestStaleHintCausesFalsePositive(t *testing.T) {
	m := netmodel.NewRousskovMin()
	// Tiny data caches: node 0's copy of object 1 is evicted by object 2.
	s := mustSim(t, Config{Model: m, L1Capacity: 150, PropagationDelay: time.Minute})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 0, 2, 100)) // evicts object 1 at node 0
	// 1s later node 1 still sees the stale hint (delay 1min): false
	// positive -> wasted probe + server fetch.
	s.Process(req(2, 1, 1, 100))
	if got := s.Stats().Count(sim.OutcomeFalsePos); got != 1 {
		t.Fatalf("false positives = %d, want 1 (outcomes %v)", got, s.Stats().Outcomes())
	}
	want := m.ViaL1Miss(100) + m.FalsePositive(netmodel.L2)
	if got := s.Stats().MeanOf(sim.OutcomeFalsePos); got != want {
		t.Errorf("false-positive cost = %v, want %v", got, want)
	}
	if s.FalsePositives() != 1 {
		t.Errorf("FalsePositives() = %d, want 1", s.FalsePositives())
	}
}

func TestBoundedHintTableFalseNegatives(t *testing.T) {
	// A 4-entry hint table over many objects loses most entries.
	topo := sim.Topology{NumL1: 8, ClientsPerL1: 2, L1PerL2: 4}
	s := mustSim(t, Config{Topology: topo, HintEntries: 4, HintWays: 2})
	// Node 0 (client 0) fetches 50 objects.
	for i := int64(0); i < 50; i++ {
		s.Process(req(i, 0, uint64(i+1), 100))
	}
	// Client 1 -> node 1 re-requests them; most hints were evicted.
	var before = s.FalseNegatives()
	for i := int64(0); i < 50; i++ {
		s.Process(req(100+i, 1, uint64(i+1), 100))
	}
	if got := s.FalseNegatives() - before; got < 30 {
		t.Errorf("false negatives = %d, want most of 50 with a 4-entry table", got)
	}

	// Unbounded table: same scenario, no false negatives.
	s2 := mustSim(t, Config{Topology: topo})
	for i := int64(0); i < 50; i++ {
		s2.Process(req(i, 0, uint64(i+1), 100))
	}
	for i := int64(0); i < 50; i++ {
		s2.Process(req(100+i, 1, uint64(i+1), 100))
	}
	if s2.FalseNegatives() != 0 {
		t.Errorf("unbounded table produced %d false negatives", s2.FalseNegatives())
	}
	if got := s2.Stats().FracAny(sim.OutcomeNear, sim.OutcomeFar); got < 0.4 {
		t.Errorf("unbounded remote-hit fraction = %.3f, want ~0.5", got)
	}
}

func TestCentralDirectoryMode(t *testing.T) {
	m := netmodel.NewRousskovMin()
	s := mustSim(t, Config{Model: m, Mode: ModeCentralDirectory})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 1, 1, 100)) // near remote hit + directory RTT
	wantHit := m.ViaL1Hit(netmodel.L2, 100) + m.FalsePositive(netmodel.L2)
	if got := s.Stats().MeanOf(sim.OutcomeNear); got != wantHit {
		t.Errorf("central-directory hit cost = %v, want %v", got, wantHit)
	}
	wantMiss := m.ViaL1Miss(100) + m.FalsePositive(netmodel.L2)
	if got := s.Stats().MeanOf(sim.OutcomeMiss); got != wantMiss {
		t.Errorf("central-directory miss cost = %v, want %v", got, wantMiss)
	}
	// Local hits pay no directory cost.
	s.Process(req(2, 1, 1, 100))
	if got := s.Stats().MeanOf(sim.OutcomeLocal); got != m.ViaL1Hit(netmodel.L1, 100) {
		t.Errorf("central-directory local hit cost = %v", got)
	}
}

func TestIdealPushChargesLocal(t *testing.T) {
	m := netmodel.NewRousskovMin()
	s := mustSim(t, Config{Model: m, IdealPush: true})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 2, 1, 100)) // would be a far hit; charged local
	if got := s.Stats().Count(sim.OutcomeLocal); got != 1 {
		t.Fatalf("ideal-push local hits = %d, want 1", got)
	}
	if got := s.Stats().MeanOf(sim.OutcomeLocal); got != m.ViaL1Hit(netmodel.L1, 100) {
		t.Errorf("ideal-push hit cost = %v, want local cost", got)
	}
}

func TestTable5FilteringReducesRootLoad(t *testing.T) {
	p := trace.DECProfile(trace.ScaleSmall)
	p.Requests = 40_000
	p.DistinctURLs = 8_000
	g := trace.MustGenerator(p)
	s := mustSim(t, Config{Topology: sim.Default(), L1Capacity: 4 << 20})
	if _, err := sim.Run(g, s); err != nil {
		t.Fatal(err)
	}
	root := s.RootUpdates()
	central := s.CentralUpdates()
	if root == 0 || central == 0 {
		t.Fatalf("no update traffic recorded (root %d, central %d)", root, central)
	}
	if root >= central {
		t.Errorf("filtered root load (%d) not below centralized load (%d)", root, central)
	}
	// Table 5 reports roughly a 3x reduction; accept 1.5x-20x.
	ratio := float64(central) / float64(root)
	if ratio < 1.5 {
		t.Errorf("central/root ratio = %.2f, want >= 1.5 (paper: ~3)", ratio)
	}
	if s.UpdateRate(root) <= 0 {
		t.Error("UpdateRate returned 0 for a nonzero count")
	}
}

func TestInjectCopyCreatesLocalHit(t *testing.T) {
	s := mustSim(t, Config{})
	r := req(0, 0, 1, 100)
	s.Process(r) // node 0 has it
	// Push a copy to node 3 (client 3's L1).
	if !s.InjectCopy(3, r, false) {
		t.Fatal("InjectCopy failed")
	}
	if got := s.Bandwidth().Bytes("push"); got != 100 {
		t.Errorf("push bytes = %d, want 100", got)
	}
	s.Process(req(1, 3, 1, 100))
	if got := s.Stats().Count(sim.OutcomeLocal); got != 1 {
		t.Errorf("local hits after push = %d, want 1", got)
	}
	// Injecting again is a no-op (already current).
	if s.InjectCopy(3, r, false) {
		t.Error("duplicate InjectCopy succeeded")
	}
}

func TestInjectPinnedDoesNotChargeSpace(t *testing.T) {
	s := mustSim(t, Config{L1Capacity: 150})
	r := req(0, 0, 1, 100)
	s.Process(r)
	if !s.InjectCopy(3, r, true) {
		t.Fatal("pinned InjectCopy failed")
	}
	// Node 3 can still cache another object without evicting the pinned
	// replica.
	s.Process(req(1, 3, 2, 100))
	if !s.HasCopy(3, 1, 1) || !s.HasCopy(3, 2, 1) {
		t.Error("pinned copy charged capacity")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	s := mustSim(t, Config{Warmup: time.Hour})
	early := req(0, 0, 1, 100)
	early.Time = time.Minute
	s.Process(early)
	if s.Stats().N() != 0 {
		t.Error("warmup request recorded")
	}
	late := req(1, 0, 1, 100)
	late.Time = 2 * time.Hour
	s.Process(late)
	if s.Stats().Count(sim.OutcomeLocal) != 1 {
		t.Error("cache not warm after warmup")
	}
}

func TestHintsBeatHierarchyOnDECTrace(t *testing.T) {
	// The headline result (Figure 8 / Table 6): hints outperform the
	// traditional data hierarchy for every cost model.
	p := trace.DECProfile(trace.ScaleSmall)
	p.Requests = 60_000
	p.DistinctURLs = 12_000

	for _, m := range netmodel.Models() {
		g := trace.MustGenerator(p)
		hs := mustSim(t, Config{Topology: sim.Default(), Model: m, Warmup: p.Warmup()})
		if _, err := sim.Run(g, hs); err != nil {
			t.Fatal(err)
		}
		hintMean := hs.MeanResponse()

		g2 := trace.MustGenerator(p)
		hier := newHierarchyForTest(t, m, p.Warmup())
		if _, err := sim.Run(g2, hier); err != nil {
			t.Fatal(err)
		}
		hierMean := hier.MeanResponse()

		speedup := float64(hierMean) / float64(hintMean)
		if speedup < 1.1 {
			t.Errorf("%s: hierarchy/hints speedup = %.2f, want > 1.1 (paper: 1.28-2.79)",
				m.Name(), speedup)
		}
		if speedup > 5 {
			t.Errorf("%s: speedup = %.2f implausibly high", m.Name(), speedup)
		}
	}
}

func TestSpanTracksVirtualTime(t *testing.T) {
	s := mustSim(t, Config{})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(10, 0, 2, 100))
	if got := s.Span(); got != 10*time.Second {
		t.Errorf("Span = %v, want 10s", got)
	}
}
