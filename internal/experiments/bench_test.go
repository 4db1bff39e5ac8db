package experiments

import (
	"fmt"
	"testing"

	"beyondcache/internal/core"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/trace"
)

// BenchmarkAllPoliciesCell measures one grand-comparison cell — the hint
// architecture on the DEC trace under the testbed model — end to end,
// including allocations. This is the unit of work the parallel scheduler
// distributes (DESIGN.md §9 has its before and after).
func BenchmarkAllPoliciesCell(b *testing.B) {
	p := trace.DECProfile(trace.Scale(0.005))
	if _, err := trace.MaterializedFor(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.Config{
			Policy: core.PolicyHints,
			Model:  netmodel.NewTestbed(),
			Warmup: p.Warmup(),
			Seed:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		g, err := traceFor(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentParallel runs the full 24-cell grand comparison at
// 1/2/4 workers. On a multi-core machine the scaling shows up directly; on
// one core the three sub-benchmarks should match, confirming the scheduler
// adds no serial overhead.
func BenchmarkExperimentParallel(b *testing.B) {
	scale := trace.Scale(0.002)
	if _, err := trace.MaterializedFor(trace.DECProfile(scale)); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := Options{Scale: scale, Parallel: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AllPolicies(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
