package loadgen

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

const testScenarioText = `
# comment line
name demo
profile DEC
nodes 3
seed 42
warmup 10          # trailing comment
origin-latency 5ms

phase steady 2s rate=50
phase spike 1s rate=200..400 hotset=16 hotalpha=1.2 hotfrac=0.8
phase recover 1s rate=50

fault 2s node-1:partition
heal 3s
origin-at 2500ms 80ms
invalidate 3500ms 8

accept p99_ratio spike steady <= 3
accept p99 spike <= 500ms
accept hit_rate >= 0.1
accept error_rate steady <= 0.01
accept reqps >= 40
`

func TestParseScenario(t *testing.T) {
	sc, err := Parse(testScenarioText)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || sc.Profile != "DEC" || sc.Nodes != 3 || sc.Seed != 42 {
		t.Fatalf("header fields wrong: %+v", sc)
	}
	if sc.Warmup != 10 || sc.OriginLatency != 5*time.Millisecond {
		t.Fatalf("tuning fields wrong: %+v", sc)
	}
	if len(sc.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(sc.Phases))
	}
	spike := sc.Phases[1]
	if spike.Rate != 200 || spike.RateEnd != 400 || spike.HotSet != 16 || spike.HotAlpha != 1.2 || spike.HotFrac != 0.8 {
		t.Fatalf("spike phase wrong: %+v", spike)
	}
	// One list, ordered by offset: the heal written before origin-at
	// comes after it.
	wantEvents := []Event{
		{At: 2 * time.Second, Kind: "fault", Spec: "node-1:partition"},
		{At: 2500 * time.Millisecond, Kind: "origin-at", Latency: 80 * time.Millisecond},
		{At: 3 * time.Second, Kind: "fault"},
		{At: 3500 * time.Millisecond, Kind: "invalidate", Count: 8},
	}
	if !reflect.DeepEqual(sc.Events, wantEvents) {
		t.Fatalf("events = %+v\nwant %+v", sc.Events, wantEvents)
	}
	if len(sc.Bounds) != 5 {
		t.Fatalf("want 5 bounds, got %d", len(sc.Bounds))
	}
	if got := sc.Bounds[0].Expr(); got != "p99_ratio spike steady <= 3" {
		t.Fatalf("bound expr = %q", got)
	}
	if sc.Span() != 4*time.Second {
		t.Fatalf("span = %v", sc.Span())
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	sc, err := Parse(testScenarioText)
	if err != nil {
		t.Fatal(err)
	}
	text := sc.Format()
	sc2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of Format output: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(sc, sc2) {
		t.Fatalf("round trip changed the scenario:\n%+v\nvs\n%+v", sc, sc2)
	}
	if text2 := sc2.Format(); text2 != text {
		t.Fatalf("Format not canonical:\n%q\nvs\n%q", text, text2)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ name, text, wantErr string }{
		{"empty", "", "needs a name"},
		{"no profile", "name x\nnodes 1\nphase p 1s rate=1", "profile required"},
		{"bad profile", "name x\nprofile NCSA\nnodes 1\nphase p 1s rate=1", "unknown profile"},
		{"no phases", "name x\nprofile DEC\nnodes 1", "at least one phase"},
		{"zero rate", "name x\nprofile DEC\nnodes 1\nphase p 1s", "rate > 0"},
		{"dup key", "name x\nname y\nprofile DEC\nnodes 1\nphase p 1s rate=1", "duplicate"},
		{"dup phase", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\nphase p 1s rate=1", "duplicate phase"},
		{"unknown keyword", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\nbogus 1", "unknown keyword"},
		{"late fault", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\nfault 2s a:partition", "outside the run window"},
		{"bad fault spec", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\nfault 0s garbage", "want target:opts"},
		{"bad bound metric", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\naccept p42 <= 1s", "unknown metric"},
		{"bound unknown phase", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\naccept p99 q <= 1s", "unknown phase"},
		{"bound bad op", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\naccept p99 == 1s", "bad op"},
		{"ratio arity", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\naccept p99_ratio p <= 2", "2 phase args"},
		{"duration bound", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\naccept p99 <= 0.5", "duration threshold"},
		{"trace with rate", "name x\nprofile DEC\nnodes 1\npacing trace\nduration 1s\nphase p 1s rate=5", "ignores rates"},
		{"trace no duration", "name x\nprofile DEC\nnodes 1\npacing trace", "needs a duration"},
		{"bad scale", "name x\nprofile DEC\nnodes 1\nscale 2\nphase p 1s rate=1", "outside [0,1]"},
		{"negative invalidate", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\ninvalidate 0s -3", "must be positive"},
		{"partition replicas", "name x\nprofile DEC\nnodes 2\nhint-partition 9\nphase p 1s rate=1", "outside [0,8]"},
		{"kill bad node", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 0s 5", "of a 2-node fleet"},
		{"kill late", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 2s 0", "outside the run window"},
		{"kill twice", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 0s 0\nkill 1s 0", "killed twice"},
		{"kill all", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 0s 0\nkill 0s 1", "whole 2-node fleet"},
		{"kill all after a restart", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 0s 0\nrestart 0s 0\nkill 0s 1\nkill 1s 0", "whole 2-node fleet"},
		{"kill while down", "name x\nprofile DEC\nnodes 3\nphase p 1s rate=1\nkill 0s 0\nrestart 0s 1\nkill 1s 0", "killed twice"},
		{"bad origin latency", "name x\nprofile DEC\nnodes 1\nphase p 1s rate=1\norigin-at 0s -1ms", "latency must be >= 0"},
		{"restart bad node", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nrestart 0s 2", "of a 2-node fleet"},
		{"event arity", "name x\nprofile DEC\nnodes 2\nphase p 1s rate=1\nkill 0s", "want: kill <offset> <node>"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("%s: Parse accepted invalid input", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestParseComposesEventKinds: every event kind composes with every other
// and with strong consistency, a killed node may be killed again once a
// restart has brought it back (so a fleet may see more kills than it has
// nodes, never all of them down at once), and events at one offset keep the
// file's order.
func TestParseComposesEventKinds(t *testing.T) {
	const head = "name x\nprofile DEC\nnodes 3\nphase p 1s rate=1\n"
	for _, text := range []string{
		head + "kill 0s 0\nrestart 0s 1",
		head + "kill 0s 0\ninvalidate 0s 2",
		head + "strong-consistency true\nrestart 0s 1\nfault 0s node-1:partition\nkill 1s 2",
		head + "kill 0s 0\nrestart 500ms 0\nkill 1s 0",
		head + "kill 0s 0\nkill 0s 1\nrestart 0s 1\nkill 1s 1\nrestart 1s 0\nkill 1s 2",
	} {
		if _, err := Parse(text); err != nil {
			t.Errorf("Parse(%q): %v", text, err)
		}
	}
	sc := mustParse(t, head+"kill 500ms 2\nrestart 500ms 2\nheal 0s\ninvalidate 500ms 4\norigin-at 0s 1ms")
	var got []string
	for _, e := range sc.Events {
		got = append(got, e.String())
	}
	want := []string{"heal 0s", "origin-at 0s 1ms", "kill 500ms 2", "restart 500ms 2", "invalidate 500ms 4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
}

func TestBuiltinMatrix(t *testing.T) {
	names := BuiltinNames()
	want := []string{"diurnal-ramp", "flash-crowd", "invalidation-storm", "origin-brownout", "partition-node-loss", "regional-partition", "restart-recovery"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("builtin names = %v, want %v", names, want)
	}
	scs, err := Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if len(sc.Bounds) == 0 {
			t.Errorf("builtin %s ships no acceptance bounds", sc.Name)
		}
		// Every builtin must round-trip through its canonical form.
		rt, err := Parse(sc.Format())
		if err != nil {
			t.Errorf("builtin %s: canonical form does not re-parse: %v", sc.Name, err)
		} else if !reflect.DeepEqual(sc, rt) {
			t.Errorf("builtin %s: canonical round trip changed the scenario", sc.Name)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Fatal("Builtin accepted an unknown name")
	}
}
