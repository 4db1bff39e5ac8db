package loadgen

import (
	"math"
	"testing"

	"beyondcache/internal/core"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// simRequests reconstructs the exact request stream the driver issues —
// same objects, clients, sizes, and versions in the same order — as a
// trace the simulator can consume. Building it from the Schedule rather
// than re-reading the profile guarantees both sides see identical input
// even though the schedule skips uncachable requests.
func simRequests(sched *Schedule) []trace.Request {
	reqs := make([]trace.Request, sched.Len())
	for i := range reqs {
		reqs[i] = trace.Request{
			Seq:     int64(i),
			Time:    sched.Offsets[i],
			Client:  int(sched.Clients[i]),
			Object:  sched.Objects[i],
			Size:    sched.Sizes[i],
			Version: sched.Versions[i],
		}
	}
	return reqs
}

// TestMeasuredVsSimulatedDEC is the validation experiment: replay the DEC
// profile, trace-paced and strongly consistent, against a live 3-node
// fleet, and run the identical request stream through the hint-policy
// simulator with a matching 3-L1 topology (both map client→cache as
// client mod 3). The live hit rate must land inside a tolerance band of
// the simulator's prediction — the wire-level prototype and the
// discrete simulator describe the same system.
func TestMeasuredVsSimulatedDEC(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping live-fleet validation in -short mode")
	}
	sc := mustParse(t, `
name dec-validate
profile DEC
nodes 3
seed 17
pacing trace
duration 4s
requests 900
strong-consistency true
origin-latency 2ms
update-interval 25ms
`)
	sched := mustSchedule(t, sc)

	// Simulator side: same stream, same client→L1 mapping.
	sys, err := core.NewSystem(core.Config{
		Policy:   core.PolicyHints,
		Topology: sim.Topology{NumL1: sc.Nodes, ClientsPerL1: 256, L1PerL2: sc.Nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := sys.Run(trace.NewSliceReader(simRequests(sched)))
	if err != nil {
		t.Fatal(err)
	}

	// Live side.
	liveRep, err := Run(sc, RunOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	live := liveRep.Result.Overall
	if live.Errors != 0 {
		t.Fatalf("live run had %d errors", live.Errors)
	}
	if live.Requests != int64(sched.Len()) {
		t.Fatalf("live run issued %d of %d requests", live.Requests, sched.Len())
	}

	liveHit := live.HitRate()
	simHit := simRep.HitRatio
	t.Logf("hit rate: live %.4f (local %d, remote %d, miss %d) vs simulated %.4f",
		liveHit, live.Local, live.Remote, live.Miss, simHit)

	// Tolerance: the simulator's hint plane propagates instantly and its
	// caches are unbounded, while the live fleet pays real metadata
	// latency — so the live rate may trail the prediction, but the two
	// must clearly describe the same system. The stream's simulated hit
	// rate is ~0.28 and the observed live gap is ~0.01; a band of ±0.12
	// catches a wiring error (wrong client mapping, broken invalidation,
	// dead metadata plane) while tolerating the propagation gap.
	const tolerance = 0.12
	if diff := math.Abs(liveHit - simHit); diff > tolerance {
		t.Fatalf("live hit rate %.4f vs simulated %.4f: |diff| %.4f exceeds tolerance %.2f",
			liveHit, simHit, diff, tolerance)
	}

	// Local hit rates must agree too: both sides shard clients the same
	// way, so a mismatch here means the mapping diverged even if the
	// overall rates happen to align.
	liveLocal := float64(live.Local) / float64(live.Local+live.Remote+live.Miss)
	t.Logf("local hit rate: live %.4f vs simulated %.4f", liveLocal, simRep.LocalHitRatio)
	if diff := math.Abs(liveLocal - simRep.LocalHitRatio); diff > tolerance {
		t.Fatalf("local hit rate diverged: live %.4f vs simulated %.4f", liveLocal, simRep.LocalHitRatio)
	}
}
