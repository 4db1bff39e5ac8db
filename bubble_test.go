// The fleet in a bubble, as part of every `go test ./...`: the bubble's
// tests carry the goexperiment.synctest build tag, so a plain run never
// builds them; this test runs them in a go command of their own.
package beyondcache_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestFleetBubble runs `go test -run TestSim ./internal/cluster` with
// GOEXPERIMENT=synctest, and under -race with -race too, failing with the
// run's output when it fails. A go command that cannot be found fails the
// test: a skip would drop the gate without a word.
//
// The bubble is a fleet on testing/synctest's fake clock over an in-memory
// network (internal/cluster/sim_test.go). A goroutine left ticking after
// Close spins the fake clock instead of panicking, so the timeout is the
// leak check. What runs in it:
//   - TestSimFleet: a fill, a REMOTE, an hour of idle timeouts, and a
//     partitioned holder, under hints at R = 0 and R = 2 and digests;
//   - TestSimScenarios (scenario_sim_test.go): the seven shipped load
//     scenarios with all their accept bounds, each one's nine or ten
//     seconds of schedule in a fraction of a real second, and zero failed
//     requests from each that neither kills nor restarts a node;
//   - TestSimScenarioEveryEventKind: one timeline with every event kind on
//     the one walker, with and without strong consistency;
//   - TestSimBodilessAnswerThenReuse: a 204 then a fetch on one link (a
//     zero-length write stalls a net.Pipe);
//   - TestSimOracle: the hint simulator as a per-request judge. A DEC
//     stream goes through the scenario runner (the one live replay driver)
//     and through the simulator, under hints at R = 0, R = 2 and digests,
//     on ten seeds at 25 ms and seed 17 at 250 ms and 1 s. LOCAL and MISS
//     must agree request by request; the one disagreement allowed is a
//     simulated REMOTE served live as a MISS within 1.5 update intervals of
//     the holder's fill (the hint still in flight). Each run fetches from
//     the origin once per live MISS and fails no request;
//   - TestSimHedgedMissLatency, TestSimOriginStuckNeverOutlivesItsContext
//     and TestSimPeerStuckPeerNeverSlowsHedgedMiss: a dead or stuck peer
//     never slows a miss, and a stuck origin never outlives its context,
//     each latency exact;
//   - TestSimHedgePointDerived, TestSimHedgePointDoesNotRatchetDown and
//     TestSimShortAbandonJudgesNoBreaker: the measured hedge point;
//   - TestSimEarlyAbandonedProbeFreesBreaker: a half-open probe (a
//     transfer, and at R = 1 a consult) the origin beats before hedgeCold
//     gives no verdict, and one cooldown later the healed peer serves a
//     REMOTE and closes its breaker;
//   - TestSimOneWayPartitionHoldsMembership: regional-partition's fault
//     moves node 1's membership view twice, not once a round;
//   - TestSimLadder: testdata/ladder.golden compared row by row, exactly,
//     each moved row named with its golden and new value and the first with
//     the host's GOMAXPROCS. The golden pins every scenario phase's
//     requests, errors, LOCAL/REMOTE/MISS and modeled p50/p99/mean; each
//     run's origin fetches, network bytes and metadata counters; the three
//     locators at 25 ms, 250 ms and 1 s over 30 s of fake time; the same
//     stream at the paper's testbed distances (R = 0 and R = 2, each node's
//     final hedge point); and the DEC twin's rates.
//
// Each bubble run in the ladder and the oracle is independent, so they run
// as parallel subtests. On 2 vCPU the run takes 14–25 s plain and 122–148 s
// under -race; the timeouts keep about 2.4x and 1.6x headroom.
func TestFleetBubble(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to run the bubble with: %v", err)
	}
	args := []string{"test", "-count=1", "-timeout", "60s", "-run", "TestSim", "./internal/cluster"}
	if raceEnabled {
		args = []string{"test", "-race", "-count=1", "-timeout", "240s", "-run", "TestSim", "./internal/cluster"}
	}
	cmd := exec.Command(goCmd, args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}
