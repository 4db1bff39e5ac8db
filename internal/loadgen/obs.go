package loadgen

import (
	"io"
	"net/http"
	"time"

	"beyondcache/internal/obs"
)

// BenchObs is the per-scenario observability section of a bench row: what
// the metadata-freshness and tracing planes recorded while the scenario
// ran. It is measured by scraping every node's /metrics right before and
// right after the measured window and diffing the parsed histograms — the
// same snapshot arithmetic cachetop uses live, so the bench artifact and
// the inspector can never disagree about what a run looked like.
type BenchObs struct {
	// HintPropagation* summarize beyondcache_hint_propagation_seconds
	// (hint-batch age at receipt) across every node over the window.
	HintPropagationCount int64   `json:"hint_propagation_count"`
	HintPropagationP50Ms float64 `json:"hint_propagation_p50_ms"`
	HintPropagationP99Ms float64 `json:"hint_propagation_p99_ms"`
	// SpansRecorded totals the tracing plane's output over the window.
	SpansRecorded int64 `json:"spans_recorded"`
	// DirectoryLagObjects sums the fleet's directory lag gauges at the end
	// of the run: updates still enqueued but undelivered when load stopped.
	DirectoryLagObjects float64 `json:"directory_lag_objects"`
}

// obsScrapeClient bounds one observability scrape; a node that cannot
// answer in this window is skipped rather than stalling the run report.
var obsScrapeClient = &http.Client{Timeout: 5 * time.Second}

// captureExpos scrapes and parses every target's /metrics. A slot is nil
// when that node's scrape failed; summarizeObs skips those pairs.
func captureExpos(targets []string) []*obs.Exposition {
	out := make([]*obs.Exposition, len(targets))
	for i, base := range targets {
		resp, err := obsScrapeClient.Get(base + "/metrics")
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if p, err := obs.ParseExposition(string(body)); err == nil {
			out[i] = p
		}
	}
	return out
}

// aggregateOf returns a family's unlabeled (aggregate) histogram snapshot.
func aggregateOf(p *obs.Exposition, family string) (obs.HistogramSnapshot, bool) {
	for _, h := range p.HistogramsOf(family) {
		if len(h.Labels) == 0 {
			return h.Snapshot, true
		}
	}
	return obs.HistogramSnapshot{}, false
}

// summarizeObs folds two capture rounds into the bench row's observability
// section, or nil when no node was scrapable on both sides.
func summarizeObs(before, after []*obs.Exposition) *BenchObs {
	var o BenchObs
	var lag *obs.Histogram
	pairs := 0
	for i := range after {
		if i >= len(before) || before[i] == nil || after[i] == nil {
			continue
		}
		pairs++
		if b, okB := aggregateOf(before[i], "beyondcache_hint_propagation_seconds"); okB {
			if a, okA := aggregateOf(after[i], "beyondcache_hint_propagation_seconds"); okA {
				if d, err := a.Diff(b); err == nil {
					if lag == nil {
						lag = obs.NewHistogram(d.Bounds)
					}
					// Bounds all come from the same family; a mismatch
					// (mid-run binary swap) just drops this node's share.
					_ = lag.Merge(d)
				}
			}
		}
		spansAfter, _ := after[i].Value("beyondcache_spans_recorded_total")
		spansBefore, _ := before[i].Value("beyondcache_spans_recorded_total")
		o.SpansRecorded += int64(spansAfter - spansBefore)
		if v, ok := after[i].Value("beyondcache_hint_directory_lag_objects"); ok {
			o.DirectoryLagObjects += v
		}
	}
	if pairs == 0 {
		return nil
	}
	if lag != nil {
		o.HintPropagationCount = lag.Count()
		o.HintPropagationP50Ms = ms(lag.Quantile(0.50))
		o.HintPropagationP99Ms = ms(lag.Quantile(0.99))
	}
	return &o
}
