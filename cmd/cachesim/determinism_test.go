package main

import (
	"runtime"
	"sync"
	"testing"

	"beyondcache/internal/experiments"
	"beyondcache/internal/trace"
)

// The simulators are seeded and must stay deterministic: the same
// seed/scale yields byte-identical Render() output run after run, whether
// experiments execute serially or concurrently (the -parallel path). This
// guards the simulators against nondeterminism leaking in from the
// concurrent structures: their object caches are the single-threaded
// cache.LRU, and their bounded hint table is the node's hintcache.Striped,
// whose records do not depend on its stripe count.

// determinismIDs is a cheap cross-section: trace-driven simulation, hint
// tables, ICP extension, and workload characterization.
var determinismIDs = []string{"table4", "fig3", "fig5", "icp"}

func determinismOpts() experiments.Options {
	return experiments.Options{Scale: trace.Scale(0.001)}
}

// renderOnce runs one experiment and returns its rendered report.
func renderOnce(t *testing.T, id string) string {
	t.Helper()
	return renderWith(t, id, determinismOpts())
}

func renderWith(t *testing.T, id string, o experiments.Options) string {
	t.Helper()
	res, err := experiments.Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res.Render()
}

func TestExperimentsDeterministicSerial(t *testing.T) {
	for _, id := range determinismIDs {
		first := renderOnce(t, id)
		second := renderOnce(t, id)
		if first != second {
			t.Errorf("%s: two serial runs with the same seed/scale differ:\n--- first\n%s\n--- second\n%s",
				id, first, second)
		}
	}
}

func TestExperimentsDeterministicParallel(t *testing.T) {
	// Serial goldens first.
	golden := make(map[string]string, len(determinismIDs))
	for _, id := range determinismIDs {
		golden[id] = renderOnce(t, id)
	}

	// Now the cachesim -parallel execution shape: every experiment on its
	// own goroutine, gated by a GOMAXPROCS-sized semaphore, twice over to
	// catch scheduling-order sensitivity.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, id := range determinismIDs {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if got := renderOnce(t, id); got != golden[id] {
					t.Errorf("%s: concurrent run differs from serial golden", id)
				}
			}(id)
		}
	}
	wg.Wait()
}

// TestExperimentsParallelCellsByteIdentical pins the -parallel contract:
// running an experiment's cells on one worker or many must render the same
// bytes, because results merge in enumeration order.
func TestExperimentsParallelCellsByteIdentical(t *testing.T) {
	ids := append([]string{"fig8", "fig4", "load", "allpolicies"}, determinismIDs...)
	for _, id := range ids {
		serial := determinismOpts()
		serial.Parallel = 1
		wide := determinismOpts()
		wide.Parallel = 8
		if a, b := renderWith(t, id, serial), renderWith(t, id, wide); a != b {
			t.Errorf("%s: -parallel 1 and -parallel 8 outputs differ:\n--- serial\n%s\n--- parallel\n%s", id, a, b)
		}
	}
}
