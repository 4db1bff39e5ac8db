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
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/core"
	"beyondcache/internal/hints"
	"beyondcache/internal/loadgen"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// memRun is a finished run on an in-memory fleet: the report, the fleet
// (closed by then), and the bytes its network carried.
type memRun struct {
	*loadgen.RunReport
	fleet *cluster.Fleet
	wired int64
}

// runMem runs sc on a fresh in-memory fleet inside a bubble, with set (when
// non-nil) reshaping the fleet's configuration first.
func runMem(t *testing.T, sc *loadgen.Scenario, set func(*cluster.FleetConfig), logf func(string, ...any)) memRun {
	t.Helper()
	return runMemOn(t, sc, set, nil, logf)
}

// runMemOn is runMem with ready (when non-nil) given the fleet the moment
// it has started, before the runner sends it anything.
func runMemOn(t *testing.T, sc *loadgen.Scenario, set func(*cluster.FleetConfig), ready func(*cluster.Fleet) error, logf func(string, ...any)) memRun {
	t.Helper()
	var run memRun
	var wired func() int64
	start := func(cfg cluster.FleetConfig) (f *cluster.Fleet, err error) {
		if set != nil {
			set(&cfg)
		}
		f, wired, err = cluster.StartMemFleet(cfg)
		run.fleet = f
		if err == nil && ready != nil {
			if err = ready(f); err != nil {
				f.Close()
			}
		}
		return f, err
	}
	var err error
	synctest.Run(func() {
		run.RunReport, err = loadgen.Run(sc, loadgen.RunOptions{StartFleet: start, Logf: logf})
	})
	if err != nil {
		t.Fatal(err)
	}
	run.wired = wired()
	return run
}

// locators are the ways a node locates a copy: hints with every node an
// owner (R = 0), a partitioned hint directory (R = 2), and digests.
var locators = []struct {
	name string
	set  func(*cluster.FleetConfig)
}{
	{"R=0", func(*cluster.FleetConfig) {}},
	{"R=2", func(c *cluster.FleetConfig) { c.HintPartition, c.HintReplicas = true, 2 }},
	{"digests", func(c *cluster.FleetConfig) { c.UseDigests = true }},
}

// TestSimScenarios runs every shipped scenario end to end and fails on any
// bound that does not hold. A scenario that neither kills nor restarts a
// node takes none down, so none of its requests may fail.
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
			rep := runMem(t, sc, nil, t.Logf)
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
			restarts, kills := 0, 0
			for _, e := range sc.Events {
				switch e.Kind {
				case "restart":
					restarts++
				case "kill":
					kills++
				}
			}
			if restarts > 0 && (len(rep.Restarts) != restarts || rep.Restarts[0].Objects == 0) {
				t.Errorf("restarts %+v for %d restart events: each must report, and the first recover objects from its disk tier", rep.Restarts, restarts)
			}
			if got := rep.Result.Overall.Errors; restarts+kills == 0 && got != 0 {
				t.Errorf("%d requests failed, and no node was taken down", got)
			}
		})
	}
}

// TestSimOneWayPartitionHoldsMembership runs regional-partition, whose fault
// fails every call to nodes 2 and 3 while their own calls still arrive, and
// counts the membership views node 1 goes through while the fault holds:
// two, one eviction each. A hint batch from a node this one cannot reach is
// no proof that it is alive; when it re-admitted the node, node 1's view
// went through 18 versions in 1.8 s of fake time, each running a full
// re-homing pass.
func TestSimOneWayPartitionHoldsMembership(t *testing.T) {
	sc, err := loadgen.Builtin("regional-partition")
	if err != nil {
		t.Fatal(err)
	}
	var fleet *cluster.Fleet
	var versions []uint64 // node 1's, as the fault and the heal are applied
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		for _, e := range sc.Events {
			if line == sc.Name+": "+e.String() {
				versions = append(versions, fleet.Nodes[1].ViewVersion())
			}
		}
	}
	runMemOn(t, sc, nil, func(f *cluster.Fleet) error { fleet = f; return nil }, logf)
	t.Logf("node 1's view versions at the fault and at the heal: %v", versions)
	if len(versions) != 2 || versions[1]-versions[0] > 2 {
		t.Errorf("node 1's view versions at the fault and at the heal: %v; want at most 2 apart", versions)
	}
}

// everyEventKind writes each event kind into one timeline, with events that
// share an offset in an order a sort by kind would change (the kill before
// the restart): node 1 restarts under its partition and is born holding it,
// and node 2 is killed and brought back.
const everyEventKind = `
name every-event-kind
profile DEC
nodes 3
seed 7
warmup 100
origin-latency 10ms

phase a 1s rate=100 hotset=32
phase b 1s rate=100 hotset=32
phase c 1s rate=100 hotset=32

fault 500ms node-1:partition
origin-at 500ms 40ms
invalidate 1s 32
kill 1500ms 2
restart 1500ms 1
heal 2s
origin-at 2s 10ms
restart 2500ms 2

accept error_rate <= 0.25
`

// TestSimScenarioEveryEventKind runs one timeline holding every event kind,
// with and without strong consistency, whose purges run beside the kills and
// restarts. The walker applies the events one at a time in offset order,
// those at one offset in the file's order, and each restart reports.
func TestSimScenarioEveryEventKind(t *testing.T) {
	for _, strong := range []bool{false, true} {
		t.Run(fmt.Sprintf("strong=%v", strong), func(t *testing.T) {
			text := everyEventKind
			if strong {
				text += "strong-consistency true\n"
			}
			sc, err := loadgen.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{
				"fault 500ms node-1:partition", "origin-at 500ms 40ms", "invalidate 1s 32",
				"kill 1.5s 2", "restart 1.5s 1", "heal 2s", "origin-at 2s 10ms", "restart 2.5s 2",
			}
			var mu sync.Mutex
			var applied []string
			logf := func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				if ev, ok := strings.CutPrefix(line, sc.Name+": "); ok && slices.Contains(want, ev) {
					mu.Lock()
					applied = append(applied, ev)
					mu.Unlock()
				}
				t.Log(line)
			}
			rep := runMem(t, sc, nil, logf)
			if !reflect.DeepEqual(applied, want) {
				t.Errorf("events applied in the order %q, want %q", applied, want)
			}
			if len(rep.Restarts) != 2 || rep.Restarts[0].Node != 1 || rep.Restarts[1].Node != 2 {
				t.Errorf("restarts %+v, want node 1 then node 2", rep.Restarts)
			}
			if !rep.Pass {
				t.Errorf("bounds do not hold: %+v", rep.Bounds)
			}
		})
	}
}

// replayStream is a DEC request stream, trace-paced and strongly consistent:
// the runner bumps the origin and purges every node's copy each time an
// object's version advances.
const replayStream = `
name replay
profile DEC
nodes 4
seed 17
pacing trace
duration 4s
requests 1500
strong-consistency true
update-interval 25ms
`

// oracle is the hint simulator's verdict on each request of one stream,
// recorded through its push hooks as the simulator processes the stream in
// order: the outcome, and for a REMOTE the holder and when it last filled
// the object.
type oracle struct {
	verdicts []verdict
	filled   map[[2]uint64]time.Duration // (node, object): the node's last fill
}

type verdict struct {
	how    string // LOCAL, REMOTE or MISS
	holder int
	fill   time.Duration // when holder filled the object (REMOTE only)
}

func (o *oracle) OnLocalHit(node int, req trace.Request) {
	o.verdicts[req.Seq] = verdict{how: "LOCAL"}
}

func (o *oracle) OnRemoteHit(requester, holder int, req trace.Request, near bool) {
	o.verdicts[req.Seq] = verdict{how: "REMOTE", holder: holder, fill: o.filled[[2]uint64{uint64(holder), req.Object}]}
	o.filled[[2]uint64{uint64(requester), req.Object}] = req.Time
}

func (o *oracle) OnMiss(node int, req trace.Request) {
	o.verdicts[req.Seq] = verdict{how: "MISS"}
	o.filled[[2]uint64{uint64(node), req.Object}] = req.Time
}

func (o *oracle) OnVersionChange([]int, trace.Request) {}
func (o *oracle) OnEvict(int, uint64)                  {}

// judge runs sched through the hint simulator, one L1 per node (both map a
// client to client mod nodes), and returns its verdict on every request.
func judge(t *testing.T, sched *loadgen.Schedule, nodes int) []verdict {
	t.Helper()
	o := &oracle{verdicts: make([]verdict, sched.Len()), filled: make(map[[2]uint64]time.Duration)}
	s, err := hints.New(hints.Config{
		Topology: sim.Topology{NumL1: nodes, ClientsPerL1: 256, L1PerL2: nodes},
		Model:    netmodel.NewTestbed(),
		Pusher:   o,
		// The node's table: what the simulator forgets, a node forgets.
		HintEntries: cluster.HintEntries,
		HintWays:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range scheduleRequests(sched) {
		s.Process(req)
	}
	return o.verdicts
}

// liveClass is a live answer's class: LOCAL (a disk or coalesced hit
// included), REMOTE or MISS (a stale hint or a hedge included), or ERROR.
func liveClass(o loadgen.Outcome) string {
	r := cluster.FetchResult{How: o.How}
	switch {
	case o.Err != nil:
		return "ERROR"
	case r.Local():
		return "LOCAL"
	case r.Remote():
		return "REMOTE"
	case r.Miss():
		return "MISS"
	}
	return o.How
}

// TestSimOracle replays replayStream through a live fleet and through the
// hint simulator, and compares the two request by request. The simulator
// sees a fill the moment it happens; a live node learns of a peer's fill
// with the next hint batch (or digest pull), which leaves within 1.5 update
// intervals (the jitter bound). So exactly one disagreement is allowed: the
// simulator finds a copy at a peer (REMOTE) that the live node does not
// know of yet (MISS), within that window of the holder's fill. LOCAL and
// MISS agree exactly, each live MISS is one origin fetch, and no request
// fails. The cells are each locator on ten seeds at 25 ms, and on seed 17 at
// 250 ms and 1 s.
func TestSimOracle(t *testing.T) {
	base, err := loadgen.Parse(replayStream)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		interval time.Duration
		seeds    []int64
	}
	cells := []cell{
		{25 * time.Millisecond, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 17}},
		{250 * time.Millisecond, []int64{17}},
		{time.Second, []int64{17}},
	}
	for _, loc := range locators {
		for _, c := range cells {
			for _, seed := range c.seeds {
				sc := *base
				sc.UpdateInterval, sc.Seed = c.interval, seed
				t.Run(fmt.Sprintf("%s/%v/seed=%d", loc.name, c.interval, seed), func(t *testing.T) {
					t.Parallel() // each run is a bubble of its own
					oracleRun(t, &sc, loc.set)
				})
			}
		}
	}
}

// oracleRun judges one live run of sc against the simulator.
func oracleRun(t *testing.T, sc *loadgen.Scenario, set func(*cluster.FleetConfig)) {
	sched, err := loadgen.BuildSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := judge(t, sched, sc.Nodes)
	run := runMem(t, sc, set, nil)
	window := sc.UpdateInterval * 3 / 2
	pairs := make(map[string]int)
	var maxGap time.Duration
	var liveMiss int64
	for i, o := range run.Result.Outcomes {
		v, live := want[i], liveClass(o)
		if live == "MISS" {
			liveMiss++
		}
		gap := sched.Offsets[i] - v.fill
		switch {
		case v.how == live:
		case v.how == "REMOTE" && live == "MISS" && gap <= window:
			maxGap = max(maxGap, gap)
		default:
			simulated, served := v.how, o.How
			if v.how == "REMOTE" {
				simulated += fmt.Sprintf(" (node %d filled it %v before)", v.holder, gap)
			}
			if o.Err != nil {
				served = "error: " + o.Err.Error()
			}
			t.Errorf("request %d (node %d, %s at %v): simulator %s, live %s",
				i, int(sched.Clients[i])%sc.Nodes, sched.URL(i), sched.Offsets[i], simulated, served)
		}
		pairs[v.how+"/"+live]++
	}
	t.Logf("%d requests (simulator/live): %v; max fill gap of simulator REMOTE/live MISS %v, window %v",
		len(run.Result.Outcomes), pairs, maxGap, window)
	if got := run.fleet.Origin.Fetches(); got != liveMiss {
		t.Errorf("origin fetches %d, live misses %d: want one origin fetch per miss", got, liveMiss)
	}
}

// decValidate is loadgen's TestMeasuredVsSimulatedDEC stream.
const decValidate = `
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
`

// localRate is the share of a run's successful requests served LOCAL.
func localRate(p loadgen.PhaseResult) float64 {
	return float64(p.Local) / float64(p.Local+p.Remote+p.Miss)
}

// decTwin runs decValidate through a live fleet in a bubble and through the
// simulator, and returns the live run's totals and the simulator's report.
func decTwin(t *testing.T) (loadgen.PhaseResult, core.Report) {
	t.Helper()
	sc, err := loadgen.Parse(decValidate)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.BuildSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Policy:   core.PolicyHints,
		Topology: sim.Topology{NumL1: sc.Nodes, ClientsPerL1: 256, L1PerL2: sc.Nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := sys.Run(trace.NewSliceReader(scheduleRequests(sched)))
	if err != nil {
		t.Fatal(err)
	}
	return runMem(t, sc, nil, nil).Result.Overall, simulated
}

// scheduleRequests is sched as the simulators read it: request i is Seq i,
// at its intended arrival.
func scheduleRequests(sched *loadgen.Schedule) []trace.Request {
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
