package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// BenchPhase is one phase's measurements in a bench row.
type BenchPhase struct {
	Name      string  `json:"name"`
	Requests  int64   `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	HitRate   float64 `json:"hit_rate"`
	ErrorRate float64 `json:"error_rate"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// BenchRestart is one restart event's disk-recovery outcome in a bench row.
type BenchRestart struct {
	Node             int     `json:"node"`
	AtSeconds        float64 `json:"at_seconds"`
	RecoveredObjects int     `json:"recovered_objects"`
	RecoveredBytes   int64   `json:"recovered_bytes"`
	RecoveryMs       float64 `json:"recovery_ms"`
}

// BenchBound is one evaluated acceptance bound.
type BenchBound struct {
	Expr   string  `json:"expr"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

// BenchRow is one scenario's result row in BENCH_load.json.
type BenchRow struct {
	Scenario         string       `json:"scenario"`
	Profile          string       `json:"profile"`
	Nodes            int          `json:"nodes"`
	Seed             int64        `json:"seed"`
	ScheduleSHA256   string       `json:"schedule_sha256"`
	Requests         int64        `json:"requests"`
	Errors           int64        `json:"errors"`
	WallSeconds      float64      `json:"wall_seconds"`
	ReqPerSecPerNode float64      `json:"req_per_sec_per_node"`
	HitRate          float64      `json:"hit_rate"`
	P50Ms            float64      `json:"p50_ms"`
	P95Ms            float64      `json:"p95_ms"`
	P99Ms            float64      `json:"p99_ms"`
	Phases           []BenchPhase `json:"phases"`
	Bounds           []BenchBound `json:"bounds"`
	// Restarts records mid-run node restarts and what their boot recovery
	// scans brought back from the disk tier.
	Restarts []BenchRestart `json:"restarts,omitempty"`
	// Obs carries the run's observability deltas (hint-propagation lag,
	// span/trace volume, end-of-run directory lag); absent when the fleet
	// could not be scraped.
	Obs  *BenchObs `json:"obs,omitempty"`
	Pass bool      `json:"pass"`
}

// BenchFile is the BENCH_load.json document: a description plus one row
// per scenario, matching the repo's other BENCH_* artifacts.
type BenchFile struct {
	Description string     `json:"description"`
	Rows        []BenchRow `json:"rows"`
}

// ms converts a duration to fractional milliseconds for JSON.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Row flattens a run report into its bench row.
func (r *RunReport) Row() BenchRow {
	res := r.Result
	span := r.Scenario.Span().Seconds()
	row := BenchRow{
		Scenario:       r.Scenario.Name,
		Profile:        r.Scenario.Profile,
		Nodes:          r.Scenario.Nodes,
		Seed:           r.Scenario.Seed,
		ScheduleSHA256: r.Fingerprint,
		Requests:       res.Overall.Requests,
		Errors:         res.Overall.Errors,
		WallSeconds:    res.Wall.Seconds(),
		HitRate:        res.Overall.HitRate(),
		P50Ms:          ms(res.Overall.Hist.Quantile(0.50)),
		P95Ms:          ms(res.Overall.Hist.Quantile(0.95)),
		P99Ms:          ms(res.Overall.Hist.Quantile(0.99)),
		Obs:            r.Obs,
		Pass:           r.Pass,
	}
	if span > 0 && r.Scenario.Nodes > 0 {
		row.ReqPerSecPerNode = float64(res.Overall.Requests) / span / float64(r.Scenario.Nodes)
	}
	for pi, p := range res.Phases {
		name := fmt.Sprintf("phase-%d", pi)
		dur := span
		if pi < len(r.Scenario.Phases) {
			name = r.Scenario.Phases[pi].Name
			dur = r.Scenario.Phases[pi].Dur.Seconds()
		}
		bp := BenchPhase{
			Name:      name,
			Requests:  p.Requests,
			HitRate:   p.HitRate(),
			ErrorRate: p.ErrorRate(),
			P50Ms:     ms(p.Hist.Quantile(0.50)),
			P95Ms:     ms(p.Hist.Quantile(0.95)),
			P99Ms:     ms(p.Hist.Quantile(0.99)),
		}
		if dur > 0 {
			bp.ReqPerSec = float64(p.Requests) / dur
		}
		row.Phases = append(row.Phases, bp)
	}
	for _, b := range r.Bounds {
		row.Bounds = append(row.Bounds, BenchBound{Expr: b.Bound.Expr(), Actual: b.Actual, Pass: b.Pass})
	}
	for _, rs := range r.Restarts {
		row.Restarts = append(row.Restarts, BenchRestart{
			Node:             rs.Node,
			AtSeconds:        rs.At.Seconds(),
			RecoveredObjects: rs.Objects,
			RecoveredBytes:   rs.Bytes,
			RecoveryMs:       ms(rs.Duration),
		})
	}
	return row
}

// benchDescription heads every BENCH_load.json this package writes.
const benchDescription = "Wire-level load scenarios (cmd/cacheload): open-loop, coordinated-omission-safe replay against a live fleet; one row per scenario with client-side latency quantiles and acceptance-bound verdicts."

// WriteBenchFile writes rows as a BENCH_load.json document.
func WriteBenchFile(path string, rows []BenchRow) error {
	doc := BenchFile{Description: benchDescription, Rows: rows}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
