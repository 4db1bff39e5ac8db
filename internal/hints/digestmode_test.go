package hints

import (
	"testing"
	"time"

	"beyondcache/internal/netmodel"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

func TestDigestModeRemoteHit(t *testing.T) {
	s := mustSim(t, Config{Mode: ModeDigests})
	s.Process(req(0, 0, 1, 100))
	// Node 1 consults node 0's digest: positive, genuine -> remote hit.
	s.Process(req(1, 1, 1, 100))
	if got := s.Stats().Count(sim.OutcomeNear); got != 1 {
		t.Fatalf("near hits = %d, want 1 (outcomes %v)", got, s.Stats().Outcomes())
	}
	// And a far hit from the other subtree.
	s.Process(req(2, 2, 1, 100))
	if got := s.Stats().Count(sim.OutcomeFar); got != 1 {
		t.Fatalf("far hits = %d, want 1", got)
	}
}

func TestDigestStalenessCausesFalsePositives(t *testing.T) {
	m := netmodel.NewRousskovMin()
	// Tiny caches and an hour-long rebuild interval: evictions leave
	// dangling digest bits.
	s := mustSim(t, Config{
		Mode:          ModeDigests,
		Model:         m,
		L1Capacity:    150,
		DigestRebuild: time.Hour,
	})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 0, 2, 100)) // evicts object 1 at node 0
	// Node 1 still sees object 1 in node 0's digest: false positive.
	s.Process(req(2, 1, 1, 100))
	if got := s.Stats().Count(sim.OutcomeFalsePos); got != 1 {
		t.Fatalf("false positives = %d, want 1 (outcomes %v)", got, s.Stats().Outcomes())
	}
	want := m.ViaL1Miss(100) + m.FalsePositive(netmodel.L2)
	if got := s.Stats().MeanOf(sim.OutcomeFalsePos); got != want {
		t.Errorf("false-positive cost = %v, want %v", got, want)
	}
}

func TestDigestRebuildClearsStaleEntries(t *testing.T) {
	s := mustSim(t, Config{
		Mode:          ModeDigests,
		L1Capacity:    150,
		DigestRebuild: time.Minute,
	})
	s.Process(req(0, 0, 1, 100))
	s.Process(req(1, 0, 2, 100)) // evicts object 1 at node 0
	// Two minutes later every digest has been rebuilt: clean miss, no
	// wasted probe.
	late := req(2, 1, 1, 100)
	late.Time = 2 * time.Minute
	s.Process(late)
	if got := s.Stats().Count(sim.OutcomeFalsePos); got != 0 {
		t.Errorf("false positives = %d after rebuild, want 0", got)
	}
	if s.digests.rebuilds == 0 {
		t.Error("no rebuilds recorded")
	}
}

func TestDigestSizing(t *testing.T) {
	s := mustSim(t, Config{
		Mode:               ModeDigests,
		DigestEntries:      1000,
		DigestBitsPerEntry: 8,
	})
	// 1000 entries x 8 bits = ~1 KB per node.
	if got := s.DigestSizePerNode(); got < 1000 || got > 1100 {
		t.Errorf("digest size = %d bytes, want ~1000", got)
	}
	// Non-digest simulators report zero.
	plain := mustSim(t, Config{})
	if plain.DigestSizePerNode() != 0 || plain.digests != nil {
		t.Error("plain simulator reports digest stats")
	}
}

func TestDigestModeComparableHitRatio(t *testing.T) {
	// With generous digests, the digest scheme should find nearly the
	// same remote copies as exact hints.
	p := trace.DECProfile(trace.ScaleSmall)
	p.Requests = 30_000
	p.DistinctURLs = 6_000

	run := func(mode Mode) float64 {
		cfg := Config{
			Topology: sim.Default(),
			Model:    netmodel.NewTestbed(),
			Mode:     mode,
			Warmup:   p.Warmup(),
		}
		if mode == ModeDigests {
			cfg.DigestEntries = 8192
			cfg.DigestBitsPerEntry = 10
			cfg.DigestRebuild = time.Minute
		}
		s := mustSim(t, cfg)
		if _, err := sim.Run(trace.MustGenerator(p), s); err != nil {
			t.Fatal(err)
		}
		return s.HitRatio()
	}
	exact := run(ModeHints)
	digests := run(ModeDigests)
	if d := exact - digests; d > 0.05 || d < -0.05 {
		t.Errorf("hit ratios diverge: exact %.3f vs digests %.3f", exact, digests)
	}
}
