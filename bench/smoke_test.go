package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload for one second at an eighth of
// its population, both ways the driver runs it, and checks that every named
// metric is reported and no response was wrong. It then feeds the records
// through -compare the way the repeatability check does. The workloads run
// side by side: this checks outputs, not speed, and the fleets' shutdown
// grace periods (up to 3 s each) then overlap instead of adding up.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a dozen fleets")
	}
	dir := t.TempDir()
	// Disk tiers go under the working directory.
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	out := filepath.Join(dir, "runs.jsonl")
	var outMu sync.Mutex

	t.Run("workloads", func(t *testing.T) {
		for i := range workloads {
			w := workloads[i]
			w.Objects /= 8
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				smokeWorkload(t, &w, out, &outMu)
			})
		}
	})

	if ents, err := os.ReadDir(filepath.Join(dir, tmpRoot)); err != nil || len(ents) != 0 {
		t.Errorf("temp root holds %d entries after every run closed (read error: %v)", len(ents), err)
	}
	// A file compared with itself is inside every bound.
	var report bytes.Buffer
	ok, err := compareFiles(&report, out, out)
	if err != nil || !ok {
		t.Errorf("self-compare: ok=%v err=%v\n%s", ok, err, report.String())
	}
	if n := strings.Count(report.String(), " ok\n"); n != len(workloads)*len(endToEnd) {
		t.Errorf("self-compare printed %d ok rows, want %d\n%s", n, len(workloads)*len(endToEnd), report.String())
	}
}

func smokeWorkload(t *testing.T, w *workload, out string, outMu *sync.Mutex) {
	e2e, err := runEndToEnd(w, 1, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := runPerLayer(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		r    *record
		defs []metricDef
	}{{e2e, endToEnd}, {layers, perLayer}} {
		r := tc.r
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace=%d: correct=%v attempted=%d failed=%d first error: %s",
				r.Trace, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		if len(r.Metrics) != len(tc.defs) {
			t.Errorf("trace=%d: %d metrics reported, %d named", r.Trace, len(r.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				t.Errorf("trace=%d: metric %s missing", r.Trace, d.Name)
			} else if v.Unit != d.Unit {
				t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
			}
		}
		outMu.Lock()
		err := appendRecord(out, r)
		outMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range endToEnd {
		if e2e.Metrics[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, must never be 0 (samples %v)", d.Name, e2e.Metrics[d.Name].Value, e2e.Samples)
		}
	}
	if layers.Metrics["error_rate"].Value != 0 {
		t.Errorf("error_rate = %g", layers.Metrics["error_rate"].Value)
	}
	if len(layers.spans) == 0 {
		t.Errorf("traced run kept no spans")
	}
	if _, err := os.Stat(out + "." + w.Name + ".spans"); err != nil {
		t.Errorf("spans file: %v", err)
	}
}

func TestCompareFlagsARegressionPastItsBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			r := &record{Workload: w.Name, Metrics: map[string]value{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = value{Value: 100, Unit: d.Unit}
			}
			r.Metrics["throughput_x"] = value{Value: rps, Unit: "x"}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 1000)
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "throughput_x" {
			bound = d.Bound
		}
	}
	for _, tc := range []struct {
		rps  float64
		want bool
	}{{1000 * (1 - bound/2), true}, {1000 * (1 + 2*bound), true}, {1000 * (1 - 1.2*bound), false}} {
		var report bytes.Buffer
		ok, err := compareFiles(&report, base, write("cand.jsonl", tc.rps))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("throughput 1000 -> %g: ok=%v, want %v\n%s", tc.rps, ok, tc.want, report.String())
		}
		os.Remove(filepath.Join(dir, "cand.jsonl"))
	}
}
