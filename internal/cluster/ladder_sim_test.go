//go:build goexperiment.synctest

package cluster_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/loadgen"
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
# dec-twin/...  TestSimMeasuredVsSimulatedDEC's live and simulated hit and
#     local rates.
#
# A row that is not reproduced exactly carries a band and its cause:
# "<name> <value> ±<band>  # <cause>" holds any value within the band of the
# one written, and -update keeps the band, the cause and, while the new value
# is within the band, the value.
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

// ladderRow is one golden line: a name and a value, and for a row that is
// not reproduced exactly, the band it moves within either side of the value
// and the cause, after a #.
type ladderRow struct {
	name, value string
	band        float64
	cause       string
}

// entry is the row's value, and its band if it has one.
func (r ladderRow) entry() string {
	if r.band == 0 {
		return r.value
	}
	return r.value + " ±" + strconv.FormatFloat(r.band, 'f', -1, 64)
}

func (r ladderRow) String() string {
	line := fmt.Sprintf("%-60s %s", r.name, r.entry())
	if r.band > 0 {
		line += "  # " + r.cause
	}
	return line
}

// holds reports whether got is r's value, or within r's band of it.
func (r ladderRow) holds(got string) bool {
	if got == r.value {
		return true
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(r.value, 64)
	return r.band > 0 && err1 == nil && err2 == nil && math.Abs(g-w) <= r.band
}

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
// table and the DEC twin — and compares it with the golden: each row
// exactly, or within its band. A moved row fails the test with its name, its
// golden value and its new value; -update rewrites the golden.
func TestSimLadder(t *testing.T) {
	var got ladder
	scenarios, err := loadgen.Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		got.addRun("scenario/"+sc.Name, sc, runMem(t, sc, nil, nil))
	}

	base, err := loadgen.Parse(locatorStream)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locators {
		for _, interval := range []time.Duration{25 * time.Millisecond, 250 * time.Millisecond, time.Second} {
			sc := *base
			sc.UpdateInterval = interval
			got.addRun("locator/"+loc.name+"/"+interval.String(), &sc, runMem(t, &sc, loc.set, nil))
		}
	}

	live, simulated := decTwin(t)
	got.addRate("dec-twin/live/hit_rate", live.HitRate())
	got.addRate("dec-twin/live/local_rate", localRate(live))
	got.addRate("dec-twin/simulated/hit_rate", simulated.HitRatio)
	got.addRate("dec-twin/simulated/local_rate", simulated.LocalHitRatio)

	want, err := readLadder(ladderGolden)
	if err != nil && !(*cluster.UpdateGolden && os.IsNotExist(err)) {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if *cluster.UpdateGolden {
		// A banded row keeps its band and cause, and its value while the
		// new one is within the band: regenerating twice gives one file.
		var b strings.Builder
		b.WriteString(ladderHeader)
		for _, r := range got {
			if old, ok := want[r.name]; ok && old.band > 0 {
				r.band, r.cause = old.band, old.cause
				if old.holds(r.value) {
					r.value = old.value
				}
			}
			b.WriteString(r.String() + "\n")
		}
		if err := os.WriteFile(ladderGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if want, err = readLadder(ladderGolden); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range got {
		old, ok := want[r.name]
		switch {
		case !ok:
			t.Errorf("%s: not in the golden, now %s", r.name, r.value)
		case !old.holds(r.value):
			t.Errorf("%s: golden %s, now %s", r.name, old.entry(), r.value)
		}
		delete(want, r.name)
	}
	for name, old := range want {
		t.Errorf("%s: golden %s, no longer measured", name, old.value)
	}
}

// readLadder reads a golden's rows by name.
func readLadder(path string) (map[string]ladderRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := make(map[string]ladderRow)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		row, cause, _ := strings.Cut(line, "#")
		f := strings.Fields(row)
		r := ladderRow{cause: strings.TrimSpace(cause)}
		switch {
		case len(f) == 2:
			r.name, r.value = f[0], f[1]
		case len(f) == 3 && strings.HasPrefix(f[2], "±") && r.cause != "":
			r.name, r.value = f[0], f[1]
			r.band, err = strconv.ParseFloat(strings.TrimPrefix(f[2], "±"), 64)
		default:
			err = fmt.Errorf("malformed row")
		}
		if err != nil || (len(f) == 3) != (r.band > 0) {
			return nil, fmt.Errorf("%s: %q: a row is a name and a value, and a band (±n, n > 0) with its cause after a #", path, line)
		}
		rows[r.name] = r
	}
	return rows, nil
}
