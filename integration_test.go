// Integration tests of the simulators through the core facade: every policy
// on one synthetic workload, in the order the paper predicts. The check that
// the networked prototype agrees with the hint simulator is
// internal/cluster's TestSimOracle, on fake time: request by request, LOCAL
// and MISS must match, and the one disagreement allowed is a simulated
// REMOTE served live as a MISS within 1.5 update intervals of the holder's
// fill. Over loopback TCP, loadgen's TestMeasuredVsSimulatedDEC compares the
// two hit rates in aggregate.
package beyondcache_test

import (
	"testing"
	"time"

	"beyondcache/internal/core"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/trace"
)

// TestAllPoliciesEndToEnd runs every policy through the core facade on a
// shared workload and sanity-checks the full ordering the paper predicts.
func TestAllPoliciesEndToEnd(t *testing.T) {
	p := trace.DECProfile(trace.ScaleSmall)
	p.Requests = 30_000
	p.DistinctURLs = 6_000
	m := netmodel.NewTestbed()

	means := make(map[core.Policy]time.Duration)
	for _, pol := range []core.Policy{
		core.PolicyHierarchy, core.PolicyHierarchyICP, core.PolicyDirectory,
		core.PolicyHints, core.PolicyHintsIdeal,
	} {
		sys, err := core.NewSystem(core.Config{Policy: pol, Model: m, Warmup: p.Warmup()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(trace.MustGenerator(p))
		if err != nil {
			t.Fatal(err)
		}
		means[pol] = rep.MeanResponse
	}

	// The paper's ordering: ideal <= hints <= directory <= hierarchy;
	// ICP sits near the hierarchy (query tax vs sibling wins).
	if !(means[core.PolicyHintsIdeal] <= means[core.PolicyHints]) {
		t.Errorf("ideal (%v) > hints (%v)", means[core.PolicyHintsIdeal], means[core.PolicyHints])
	}
	if !(means[core.PolicyHints] < means[core.PolicyDirectory]) {
		t.Errorf("hints (%v) >= directory (%v)", means[core.PolicyHints], means[core.PolicyDirectory])
	}
	if !(means[core.PolicyDirectory] < means[core.PolicyHierarchy]) {
		t.Errorf("directory (%v) >= hierarchy (%v)", means[core.PolicyDirectory], means[core.PolicyHierarchy])
	}
	if !(means[core.PolicyHints] < means[core.PolicyHierarchyICP]) {
		t.Errorf("hints (%v) >= ICP (%v)", means[core.PolicyHints], means[core.PolicyHierarchyICP])
	}
}
