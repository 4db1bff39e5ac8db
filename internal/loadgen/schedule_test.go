package loadgen

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"beyondcache/internal/wire"
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
// yields a byte-identical request schedule, for every shipped scenario.
func TestScheduleDeterministic(t *testing.T) {
	scs, err := Builtins()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		a := mustSchedule(t, sc)
		b := mustSchedule(t, sc)
		ab, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s: same seed produced different schedules (%d vs %d bytes)", sc.Name, len(ab), len(bb))
		}
		fa, err := a.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := b.Fingerprint()
		if fa != fb {
			t.Fatalf("%s: fingerprints differ: %s vs %s", sc.Name, fa, fb)
		}

		// A different seed must change the schedule: reseed and rebuild.
		reseeded := *sc
		reseeded.Seed = sc.Seed + 1
		fc, err := mustSchedule(t, &reseeded).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fc == fa {
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
	fa, err := sched.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := mustSchedule(t, sc).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
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

// TestScheduleWireRoundTrip pins the framed schedule encoding the
// fingerprint hashes: one uncompressed KindSchedule frame whose payload is
// the version, the count and 37 bytes per request, and ragged columns are
// refused.
func TestScheduleWireRoundTrip(t *testing.T) {
	sc := mustParse(t, `
name roundtrip
profile DEC
nodes 1
phase warm 2s rate=40
phase hot 2s rate=60 hotset=16
`)
	orig := mustSchedule(t, sc)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := wire.Decode(data)
	if err != nil || len(rest) != 0 {
		t.Fatalf("Decode: %v, %d trailing bytes", err, len(rest))
	}
	if f.Kind != wire.KindSchedule || f.Compressed {
		t.Fatalf("frame kind %s compressed %v, want an uncompressed %s", f.Kind, f.Compressed, wire.KindSchedule)
	}
	p, err := f.Payload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 + orig.Len()*37; len(p) != want {
		t.Fatalf("payload is %d bytes, want %d", len(p), want)
	}
	if v, n := binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint64(p[4:12]); v != scheduleVersion || n != uint64(orig.Len()) {
		t.Fatalf("payload opens with version %d count %d, want %d and %d", v, n, scheduleVersion, orig.Len())
	}
	if first := time.Duration(binary.LittleEndian.Uint64(p[12:20])); first != orig.Offsets[0] {
		t.Fatalf("first encoded offset %v, want %v", first, orig.Offsets[0])
	}

	ragged := *orig
	ragged.Sizes = ragged.Sizes[:len(ragged.Sizes)-1]
	if _, err := ragged.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary accepted ragged columns")
	}
}
