package main

import (
	"math"
	"testing"
	"time"
)

func TestSlicesCutAtMarksAndNormaliseByTheReference(t *testing.T) {
	// Two clients, three full slices and a stub of a fourth. Slice k holds
	// 2*300 fetches of latency (k+1)*10µs and 2*40 reference fetches of
	// (k+1)*5µs; CPU grows 3 ms per slice.
	const per, refs = 300, 40
	var clients []*client
	for c := 0; c < 2; c++ {
		cl := &client{id: c}
		for k := 0; k < 3; k++ {
			for i := 0; i < per; i++ {
				at := time.Duration(k)*sliceLen + time.Duration(i+1)*sliceLen/(per+1)
				cls := classLocal
				if i%3 == 0 {
					cls = classMiss
				}
				cl.samples = append(cl.samples, sample{at: at, ns: int64(k+1) * 10_000, cls: cls})
			}
			for i := 0; i < refs; i++ {
				at := time.Duration(k)*sliceLen + time.Duration(i+1)*sliceLen/(refs+1)
				cl.refSamples = append(cl.refSamples, sample{at: at, ns: int64(k+1) * 5_000})
			}
		}
		cl.samples = append(cl.samples, sample{at: 3*sliceLen + time.Millisecond, ns: 1})
		clients = append(clients, cl)
	}
	w := window{clients: clients, elapsed: 3*sliceLen + 2*time.Millisecond}
	for k := 0; k <= 3; k++ {
		w.marks = append(w.marks, mark{at: time.Duration(k) * sliceLen, cpu: time.Duration(k) * 3 * time.Millisecond})
	}
	w.marks = append(w.marks, mark{at: w.elapsed, cpu: 10 * time.Millisecond})

	got := w.slices()
	if len(got) != 3 {
		t.Fatalf("%d slices, want 3 (the 2 ms tail is dropped)", len(got))
	}
	for k, s := range got {
		want := sliceStat{
			RPS: 2 * per / sliceLen.Seconds(), P50: float64(k+1) * 10, LocalP50: float64(k+1) * 10,
			CPU: 3000.0 / (2 * per), RefP50: float64(k+1) * 5, RefMean: float64(k+1) * 5,
		}
		if s != want {
			t.Errorf("slice %d = %+v, want %+v", k, s, want)
		}
	}

	// The machine "slowed down" threefold from slice 0 to slice 2, fetch and
	// reference alike: in multiples of the reference nothing moved.
	if v := overSlices(got, func(s sliceStat) float64 { return s.P50 / s.RefP50 }); v != 2 {
		t.Errorf("p50 in reference fetches = %g, want 2 in every slice", v)
	}
	// Throughput stayed 1200/s while the reference slowed: 1200/s x 5, 10,
	// 15 µs per fetch / 2 clients.
	if v := throughputX(got); math.Abs(v-0.006) > 1e-12 {
		t.Errorf("throughput in reference fetches = %g, want the middle slice's 0.006", v)
	}
	// CPU per request did not slow down, so in reference units it shrank:
	// 5/5, 5/10, 5/15 -> median 0.5.
	if v := overSlices(got, func(s sliceStat) float64 { return s.CPU / s.RefP50 }); v != 0.5 {
		t.Errorf("median cpu in reference fetches = %g, want 0.5", v)
	}
	got[1].RefP50 = 0 // a slice without a reference does not take part
	if v := overSlices(got, func(s sliceStat) float64 { return s.CPU / s.RefP50 }); v != (1+1.0/3)/2 {
		t.Errorf("median over the two slices with a reference = %g, want %g", v, (1+1.0/3)/2)
	}
	if v := overSlices(nil, func(s sliceStat) float64 { return 1 }); v != 0 {
		t.Errorf("median over no slices = %g, want 0", v)
	}
}
