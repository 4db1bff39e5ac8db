package loadgen

import (
	"strings"
	"testing"
	"time"

	"beyondcache/internal/obs"
)

// smokeScenario is the CI load-smoke configuration: the flash-crowd shape
// shortened and slowed so it finishes in ~4s on one core under -race, with
// the same acceptance structure as the shipped scenario.
const smokeScenario = `
name flash-crowd-smoke
profile DEC
nodes 3
seed 42
warmup 100
origin-latency 10ms

phase steady 1500ms rate=60
phase spike 1s rate=200 hotset=32 hotalpha=1.1 hotfrac=0.9
phase recover 1s rate=60

accept error_rate <= 0.05
accept hit_rate >= 0.05
accept p99 <= 2s
`

// TestLoadSmokeFlashCrowd boots a 3-node in-process fleet and drives the
// shortened flash crowd end to end — the CI smoke. It asserts the run's
// acceptance bounds hold and that the spike phase spikes.
func TestLoadSmokeFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping live-fleet smoke in -short mode")
	}
	sc := mustParse(t, smokeScenario)
	rep, err := Run(sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Overall.Requests == 0 {
		t.Fatal("smoke issued no requests")
	}
	if len(rep.Bounds) != 3 {
		t.Fatalf("evaluated %d bounds, want 3", len(rep.Bounds))
	}
	for _, b := range rep.Bounds {
		if !b.Pass {
			t.Errorf("bound %q failed: actual %g", b.Bound.Expr(), b.Actual)
		}
	}
	if !rep.Pass {
		t.Fatal("smoke run failed its acceptance bounds")
	}
	// The spike phase must actually spike: more arrivals than steady
	// despite being shorter.
	phases := rep.Result.Phases
	if len(phases) != 3 || phases[1].Requests <= phases[0].Requests {
		t.Fatalf("spike did not spike: %+v", phases)
	}
}

// TestRunnerAppliesEventTimeline runs a compressed scenario exercising all
// three event kinds — a partition that heals, an origin latency step, and a
// mass invalidation — and checks the run completes with the fault plane's
// effects visible (errors stay bounded because hedged origin fallback
// absorbs the partition).
func TestRunnerAppliesEventTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping live-fleet test in -short mode")
	}
	sc := mustParse(t, `
name events
profile DEC
nodes 2
seed 5
warmup 50
origin-latency 5ms

phase a 1s rate=50 hotset=16
phase b 1s rate=50 hotset=16
phase c 1s rate=50 hotset=16

fault 1s node-1:partition
heal 2s
origin-at 1s 40ms
origin-at 2s 5ms
invalidate 2s 16

accept error_rate <= 0.2
`)
	rep, err := Run(sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Overall.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if !rep.Pass {
		t.Fatalf("error bound failed: %+v", rep.Bounds)
	}
}

func TestEvalBoundMetrics(t *testing.T) {
	sc := mustParse(t, `
name eb
profile DEC
nodes 1
phase a 1s rate=10
phase b 1s rate=10
`)
	mk := func(lat time.Duration, n int) PhaseResult {
		p := PhaseResult{Requests: int64(n), Local: int64(n)}
		h := obs.NewHistogram(nil)
		for i := 0; i < n; i++ {
			h.Observe(lat)
		}
		p.Hist = h.Snapshot()
		return p
	}
	res := &Result{
		Phases: []PhaseResult{mk(2*time.Millisecond, 100), mk(64*time.Millisecond, 100)},
	}
	res.Overall = mk(2*time.Millisecond, 200)

	cases := []struct {
		expr string
		lo   float64
		hi   float64
	}{
		{"p99 a <= 1s", 0.001, 0.01},       // ~2ms, bucketed
		{"p99 b <= 1s", 0.03, 0.2},         // ~64ms, bucketed
		{"p99_ratio b a <= 100", 5, 100},   // ~32x
		{"hit_rate a >= 0", 0.99, 1.01},    // all local
		{"error_rate b <= 1", -0.01, 0.01}, // none
		{"reqps a >= 0", 99, 101},          // 100 over 1s
	}
	for _, c := range cases {
		b, err := parseBound(strings.Fields(c.expr))
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		got, err := evalBound(sc, res, b)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got < c.lo || got > c.hi {
			t.Errorf("%s: actual %g outside [%g, %g]", c.expr, got, c.lo, c.hi)
		}
	}

	// Unknown phase in a bound must error, not panic.
	bad, err := parseBound(strings.Fields("p99 zz <= 1s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalBound(sc, res, bad); err == nil {
		t.Fatal("evalBound accepted an unknown phase")
	}
}
