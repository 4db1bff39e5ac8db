//go:build goexperiment.synctest

package cluster_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/core"
	"beyondcache/internal/loadgen"
	"beyondcache/internal/netmodel"
)

// ladderGolden is the fake-time ladder: what the bubble measures exactly,
// one row per line, name then value.
const ladderGolden = "testdata/ladder.golden"

const ladderHeader = `# The fake-time ladder: what a fleet in a synctest bubble measures exactly.
# Compared row by row by TestSimLadder; regenerate with
#
#	GOEXPERIMENT=synctest go test -run TestSimLadder ./internal/cluster -update
#
# and name every moved row, its old value and its new value in the change.
#
# scenario/<name>/<phase>/...  each shipped scenario's phases, from the
#     runner's PhaseResult: requests, errors, LOCAL (LOCAL-DISK included),
#     REMOTE, MISS, and modeled latency (p50, p99, mean) in ns.
# scenario/<name>/fleet/...    the origin's fetches; the bytes written on the
#     in-memory network, every door, peer and origin exchange; and Stats
#     fields summed over the nodes alive at the end. All are read once the
#     fleet has closed (its last metadata round included), and the warm-up's
#     fetches count. A killed node's Stats are not counted; a restarted
#     slot's Stats count from its restart.
# locator/<locator>/<interval>/...  one DEC stream (4 nodes, seed 17, 11250
#     trace-paced requests over 30 s, origin 20 ms, strong consistency) under
#     hints at R = 0, hints at R = 2 and digests, at three update intervals:
#     the same phase and fleet rows.
# testbed/<locator>/...  the locator stream at the paper's distances, hints
#     at R = 0 and R = 2 with a 1 s update interval: every call a node makes
#     to a peer pays netmodel.Testbed's direct cache-to-cache access (the
#     directL2 link, 180 ms) and every origin fetch its direct server access
#     (directSrv, 290 ms), both at size 0 (memNet carries no bandwidth). The
#     same phase and fleet rows, and: the fleet's mean REMOTE and MISS
#     latency from the nodes' own histograms; each node's hedge point at the
#     end (hedge_point_ns) and MISS p50 (miss_p50_ns).
# dec-twin/...  one DEC stream (3 nodes, seed 17, 900 trace-paced requests
#     over 4 s, origin 2 ms, strong consistency) through a live fleet and
#     through the hint simulator: each side's hit and local rates.
#     TestSimOracle compares live and simulated request by request, on
#     streams of its own; these rows pin one stream's totals.
`

// ladderFleetRows are the fleet rows: Stats fields summed over live nodes.
var ladderFleetRows = []struct {
	name string
	of   func(cluster.Stats) int64
}{
	{"disk_hits", func(s cluster.Stats) int64 { return s.DiskHits }},
	{"hedges_started", func(s cluster.Stats) int64 { return s.HedgesStarted }},
	{"false_positives", func(s cluster.Stats) int64 { return s.FalsePositives }},
	{"hint_home_hits", func(s cluster.Stats) int64 { return s.HintHomeHits }},
	{"hint_home_misses", func(s cluster.Stats) int64 { return s.HintHomeMisses }},
	{"wire_hint_bytes", func(s cluster.Stats) int64 { return s.WireHintBytes }},
	{"wire_hint_bytes_partitioned", func(s cluster.Stats) int64 { return s.WireHintBytesPartitioned }},
	{"digest_serve_bytes_full", func(s cluster.Stats) int64 { return s.DigestServeBytesFull }},
	{"digest_serve_bytes_delta", func(s cluster.Stats) int64 { return s.DigestServeBytesDelta }},
}

// testbedInterval is the testbed block's update interval.
const testbedInterval = time.Second

// atTestbedDistance puts every peer of the fleet at the testbed's direct
// cache-to-cache access time: one latency rule per node, in every node's
// outbound injector (a node never calls itself).
func atTestbedDistance(f *cluster.Fleet) error {
	d := netmodel.NewTestbed().DirectHit(netmodel.L2, 0)
	var rules []string
	for _, u := range f.NodeURLs() {
		rules = append(rules, strings.TrimPrefix(u, "http://")+":latency="+d.String())
	}
	return f.SetFaultSpec(strings.Join(rules, ";"))
}

// addTestbed adds a testbed run's rows beyond addRun's: latency by class
// from the nodes' own histograms, and each node's final hedge point and
// MISS p50.
func (l *ladder) addTestbed(prefix string, run memRun) {
	var remoteSum, missSum time.Duration
	var remotes, misses int64
	for i, n := range run.fleet.Nodes {
		remote, miss := n.FetchHists()
		remoteSum, remotes = remoteSum+remote.Sum, remotes+remote.Count()
		missSum, misses = missSum+miss.Sum, misses+miss.Count()
		l.add(fmt.Sprintf("%s/node%d/hedge_point_ns", prefix, i), int64(n.HedgePoint()))
		l.add(fmt.Sprintf("%s/node%d/miss_p50_ns", prefix, i), int64(miss.Quantile(0.5)))
	}
	// Both runs serve REMOTEs and MISSes, so neither count is zero.
	l.add(prefix+"/fleet/remote_mean_ns", int64(remoteSum)/remotes)
	l.add(prefix+"/fleet/miss_mean_ns", int64(missSum)/misses)
}

// locatorStream is the locator table's stream; each cell sets its interval.
const locatorStream = `
name locators
profile DEC
nodes 4
seed 17
pacing trace
duration 30s
requests 11250
strong-consistency true
origin-latency 20ms
`

// ladderRow is one golden line: a name and a value.
type ladderRow struct{ name, value string }

type ladder []ladderRow

func (l *ladder) add(name string, v int64) {
	*l = append(*l, ladderRow{name: name, value: strconv.FormatInt(v, 10)})
}

func (l *ladder) addRate(name string, v float64) {
	*l = append(*l, ladderRow{name: name, value: strconv.FormatFloat(v, 'f', -1, 64)})
}

// addRun adds a finished run's phase rows and fleet rows under prefix.
func (l *ladder) addRun(prefix string, sc *loadgen.Scenario, run memRun) {
	for i, p := range run.Result.Phases {
		name := "run"
		if i < len(sc.Phases) {
			name = sc.Phases[i].Name
		}
		pre := prefix + "/" + name + "/"
		l.add(pre+"requests", p.Requests)
		l.add(pre+"errors", p.Errors)
		l.add(pre+"local", p.Local)
		l.add(pre+"remote", p.Remote)
		l.add(pre+"miss", p.Miss)
		l.add(pre+"p50_ns", int64(p.Hist.Quantile(0.5)))
		l.add(pre+"p99_ns", int64(p.Hist.Quantile(0.99)))
		var mean time.Duration
		if n := p.Hist.Count(); n > 0 {
			mean = p.Hist.Sum / time.Duration(n)
		}
		l.add(pre+"mean_ns", int64(mean))
	}
	var live []cluster.Stats
	for i, n := range run.fleet.Nodes {
		if run.fleet.Alive(i) {
			live = append(live, n.Stats())
		}
	}
	l.add(prefix+"/fleet/origin_fetches", run.fleet.Origin.Fetches())
	l.add(prefix+"/fleet/net_bytes", run.wired)
	for _, r := range ladderFleetRows {
		var sum int64
		for _, st := range live {
			sum += r.of(st)
		}
		l.add(prefix+"/fleet/"+r.name, sum)
	}
}

// TestSimLadder measures the ladder — every shipped scenario, the locator
// table and the DEC twin — and compares it with the golden, each row
// exactly. A moved row fails the test with its name, its
// golden value and its new value; -update rewrites the golden.
func TestSimLadder(t *testing.T) {
	// Each run is a bubble of its own, so the runs go in parallel and the
	// rows are read off them in a fixed order afterwards.
	type ladderRun struct {
		prefix string
		sc     *loadgen.Scenario
		set    func(*cluster.FleetConfig)
		ready  func(*cluster.Fleet) error // set for the testbed block only
		memRun
	}
	var runs []*ladderRun
	scenarios, err := loadgen.Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		runs = append(runs, &ladderRun{prefix: "scenario/" + sc.Name, sc: sc})
	}
	base, err := loadgen.Parse(locatorStream)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locators {
		for _, interval := range []time.Duration{25 * time.Millisecond, 250 * time.Millisecond, time.Second} {
			sc := *base
			sc.UpdateInterval = interval
			runs = append(runs, &ladderRun{prefix: "locator/" + loc.name + "/" + interval.String(), sc: &sc, set: loc.set})
		}
	}
	for _, loc := range locators[:2] { // the hint directory at R = 0 and R = 2
		sc := *base
		sc.UpdateInterval = testbedInterval
		sc.OriginLatency = netmodel.NewTestbed().DirectMiss(0)
		runs = append(runs, &ladderRun{prefix: "testbed/" + loc.name, sc: &sc, set: loc.set, ready: atTestbedDistance})
	}
	var live loadgen.PhaseResult
	var simulated core.Report
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			t.Run(r.prefix, func(t *testing.T) {
				t.Parallel()
				r.memRun = runMemOn(t, r.sc, r.set, r.ready, nil)
			})
		}
		t.Run("dec-twin", func(t *testing.T) {
			t.Parallel()
			live, simulated = decTwin(t)
		})
	})
	if t.Failed() {
		t.FailNow()
	}

	var got ladder
	for _, r := range runs {
		if r.RunReport == nil {
			continue // not run: -run named other subtests
		}
		got.addRun(r.prefix, r.sc, r.memRun)
		if r.ready != nil {
			got.addTestbed(r.prefix, r.memRun)
		}
	}
	got.addRate("dec-twin/live/hit_rate", live.HitRate())
	got.addRate("dec-twin/live/local_rate", localRate(live))
	got.addRate("dec-twin/simulated/hit_rate", simulated.HitRatio)
	got.addRate("dec-twin/simulated/local_rate", simulated.LocalHitRatio)

	want, err := readLadder(ladderGolden)
	if err != nil && !(*cluster.UpdateGolden && os.IsNotExist(err)) {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if *cluster.UpdateGolden {
		var b strings.Builder
		b.WriteString(ladderHeader)
		for _, r := range got {
			fmt.Fprintf(&b, "%-60s %s\n", r.name, r.value)
		}
		if err := os.WriteFile(ladderGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if want, err = readLadder(ladderGolden); err != nil {
			t.Fatal(err)
		}
	}
	// The first failure names the host's GOMAXPROCS: no row may depend on
	// it, and one that does shows as a row that moves on one host only.
	fail := func(format string, args ...any) {
		if !t.Failed() {
			format = "at GOMAXPROCS %d: " + format
			args = append([]any{runtime.GOMAXPROCS(0)}, args...)
		}
		t.Errorf(format, args...)
	}
	for _, r := range got {
		old, ok := want[r.name]
		switch {
		case !ok:
			fail("%s: not in the golden, now %s", r.name, r.value)
		case old != r.value:
			fail("%s: golden %s, now %s", r.name, old, r.value)
		}
		delete(want, r.name)
	}
	for name, old := range want {
		fail("%s: golden %s, no longer measured", name, old)
	}
}

// readLadder reads a golden's values by row name.
func readLadder(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: %q: a row is a name and a value", path, line)
		}
		rows[f[0]] = f[1]
	}
	return rows, nil
}
