//go:build goexperiment.synctest

package cluster_test

// The shipped scenario matrix on fake time: each scenario's fleet runs on
// the in-memory network inside a synctest bubble, so its nine or ten
// seconds of schedule take a fraction of a second, and every accept bound
// is checked as written. Latency bounds there measure modeled delay — origin
// latency, injected faults, peer hops, hedges — not CPU: fake time stands
// still while goroutines run. Run with
//
//	GOEXPERIMENT=synctest go test -run TestSim ./internal/cluster
//
// (sim_test.go's //go:debug line covers this file too; a second one breaks
// the build.)

import (
	"testing"
	"testing/synctest"

	"beyondcache/internal/cluster"
	"beyondcache/internal/loadgen"
)

// TestSimScenarios runs every shipped scenario end to end and fails on any
// bound that does not hold.
func TestSimScenarios(t *testing.T) {
	scenarios, err := loadgen.Builtins()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no shipped scenarios")
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			sched, err := loadgen.BuildSchedule(sc)
			if err != nil {
				t.Fatal(err)
			}
			var rep *loadgen.RunReport
			synctest.Run(func() {
				rep, err = loadgen.Run(sc, loadgen.RunOptions{StartFleet: cluster.StartMemFleet, Logf: t.Logf})
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Result.Overall.Requests; got != int64(sched.Len()) {
				t.Errorf("issued %d requests, the schedule has %d", got, sched.Len())
			}
			if len(rep.Bounds) != len(sc.Bounds) {
				t.Errorf("evaluated %d bounds, the scenario has %d", len(rep.Bounds), len(sc.Bounds))
			}
			for _, b := range rep.Bounds {
				if !b.Pass {
					t.Errorf("bound %q does not hold: actual %.4g", b.Bound.Expr(), b.Actual)
				}
			}
			for i, p := range rep.Result.Phases {
				t.Logf("phase %s: %d requests, hit rate %.3f, error rate %.3f, p50 %v, p99 %v",
					sc.Phases[i].Name, p.Requests, p.HitRate(), p.ErrorRate(), p.Hist.Quantile(0.5), p.Hist.Quantile(0.99))
			}
			for _, r := range rep.Restarts {
				t.Logf("restart of node %d at %v: %d objects (%d bytes) recovered", r.Node, r.At, r.Objects, r.Bytes)
			}
			if len(sc.Restarts) > 0 && (len(rep.Restarts) == 0 || rep.Restarts[0].Objects == 0) {
				t.Errorf("restarts %+v: the restarted node recovered nothing from its disk tier", rep.Restarts)
			}
		})
	}
}
