package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the -out file at path.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// metricValues gathers one end-to-end metric's value from every --trace 0
// record of a workload.
func metricValues(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareFiles prints, per workload and end-to-end metric, the candidate's
// median against the baseline's, the change as a share of the baseline, the
// bound, and each side's quartile spread as a share of its median (the
// driver's repeatability measure), then the median class shares. It reports
// whether every change stayed inside its bound; a workload or metric missing
// from either side fails.
func compareFiles(w io.Writer, basePath, candPath string) (bool, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base", "cand", "worse", "bound", "iqr(b)", "iqr(c)", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b, c := metricValues(base, wl.Name, d.Name), metricValues(cand, wl.Name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-16s %-16s missing (%d baseline, %d candidate runs)  FAIL\n", wl.Name, d.Name, len(b), len(c))
				ok = false
				continue
			}
			bm, cm := medianFloat(b), medianFloat(c)
			// worse is the change in the bad direction as a share of the
			// baseline median; negative means the candidate reads better.
			worse := ratio(cm-bm, bm)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+8.2f%% %6.0f%% %8s %8s  %s\n",
				wl.Name, d.Name, bm, cm, 100*worse, 100*d.Bound, spread(b), spread(c), verdict)
		}
		// Class shares are not bounded (hit_rate is), but a shifted mix
		// explains a shifted latency, so show it beside them.
		for _, cls := range classNames {
			b, c := classShares(base, wl.Name, cls), classShares(cand, wl.Name, cls)
			if bm, cm := medianFloat(b), medianFloat(c); bm > 0 || cm > 0 {
				fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+8.4f\n", wl.Name, "share."+cls, bm, cm, cm-bm)
			}
		}
	}
	return ok, nil
}

// classShares is one outcome class's share of the verified fetches in every
// --trace 0 record of a workload, from the records' sample counts.
func classShares(recs []record, workload, cls string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 && r.Samples["fetches"] > 0 {
			vs = append(vs, float64(r.Samples[cls])/float64(r.Samples["fetches"]))
		}
	}
	return vs
}

// spread renders the quartile distance as a share of the median.
func spread(v []float64) string {
	if len(v) < 2 {
		return "-"
	}
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.2f%%", 100*ratio(q3-q1, medianFloat(v)))
}
