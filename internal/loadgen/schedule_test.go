package loadgen

import (
	"reflect"
	"testing"
	"time"
)

func mustParse(t *testing.T, text string) *Scenario {
	t.Helper()
	sc, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustSchedule(t *testing.T, sc *Scenario) *Schedule {
	t.Helper()
	sched, err := BuildSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestScheduleDeterministic pins the acceptance criterion: a fixed seed
// yields an identical request schedule, column for column, for every shipped
// scenario, and a different seed a different one.
func TestScheduleDeterministic(t *testing.T) {
	scs, err := Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		a := mustSchedule(t, sc)
		if b := mustSchedule(t, sc); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different schedules (%d vs %d requests)", sc.Name, a.Len(), b.Len())
		}
		reseeded := *sc
		reseeded.Seed = sc.Seed + 1
		if reflect.DeepEqual(a, mustSchedule(t, &reseeded)) {
			t.Fatalf("%s: seed change did not change the schedule", sc.Name)
		}
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	sc := mustParse(t, `
name shape
profile DEC
nodes 3
seed 9
phase steady 2s rate=50
phase spike 1s rate=200 hotset=8 hotfrac=1
phase ramp 2s rate=10..100
`)
	sched := mustSchedule(t, sc)

	last := time.Duration(-1)
	counts := make([]int, 3)
	for i := 0; i < sched.Len(); i++ {
		off := sched.Offsets[i]
		if off < last {
			t.Fatalf("offsets not monotonic at %d: %v after %v", i, off, last)
		}
		last = off
		if off < 0 || off > sc.Span() {
			t.Fatalf("offset %v outside run window %v", off, sc.Span())
		}
		pi := int(sched.Phases[i])
		if pi > 2 {
			t.Fatalf("request %d has phase %d", i, pi)
		}
		counts[pi]++
		start := sc.phaseStart(pi)
		if off < start || off > start+sc.Phases[pi].Dur {
			t.Fatalf("request %d (phase %s) at %v outside its phase window", i, sc.Phases[pi].Name, off)
		}
		if pi == 1 && sched.Objects[i] >= 8 {
			t.Fatalf("spike request %d hit object %d outside the hot set", i, sched.Objects[i])
		}
		if sched.Sizes[i] <= 0 {
			t.Fatalf("request %d has size %d", i, sched.Sizes[i])
		}
	}
	// Expected counts: 100, 200, 110; Poisson noise is a few sigma at most.
	expect := []int{100, 200, 110}
	for pi, want := range expect {
		got := counts[pi]
		if got < want/2 || got > want*2 {
			t.Fatalf("phase %d has %d arrivals, want ~%d", pi, got, want)
		}
	}
}

func TestRampScheduleLeansLate(t *testing.T) {
	sc := mustParse(t, `
name ramp
profile DEC
nodes 1
seed 4
phase up 4s rate=10..200
`)
	sched := mustSchedule(t, sc)
	var early, late int
	for _, off := range sched.Offsets {
		if off < 2*time.Second {
			early++
		} else {
			late++
		}
	}
	// Rate ramps 10→200, so the second half must hold well over half the
	// arrivals (expected ~147 vs ~62).
	if late <= early {
		t.Fatalf("ramp not ramping: %d early vs %d late arrivals", early, late)
	}
}

func TestTraceScheduleShape(t *testing.T) {
	sc := mustParse(t, `
name tr
profile DEC
nodes 2
seed 3
pacing trace
duration 2s
requests 500
`)
	sched := mustSchedule(t, sc)
	if sched.Len() == 0 || sched.Len() > 500 {
		t.Fatalf("trace schedule has %d requests", sched.Len())
	}
	last := time.Duration(-1)
	for i := 0; i < sched.Len(); i++ {
		off := sched.Offsets[i]
		if off < last || off > 2*time.Second {
			t.Fatalf("bad offset %v at %d (prev %v)", off, i, last)
		}
		last = off
		if sched.Phases[i] != 0 {
			t.Fatalf("trace pacing must map everything to phase 0, got %d", sched.Phases[i])
		}
	}
	// Deterministic here too.
	if !reflect.DeepEqual(sched, mustSchedule(t, sc)) {
		t.Fatal("trace schedule not deterministic")
	}
}

func TestScheduleRejectsAbsurdRates(t *testing.T) {
	sc := mustParse(t, `
name huge
profile DEC
nodes 1
phase p 10s rate=10000000
`)
	if _, err := BuildSchedule(sc); err == nil {
		t.Fatal("BuildSchedule accepted a schedule beyond the request cap")
	}
}
