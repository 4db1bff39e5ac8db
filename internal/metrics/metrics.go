// Package metrics aggregates simulation outcomes: response-time totals per
// outcome class, hit/byte-hit ratios, and bandwidth counters, plus the
// fixed-width table formatting the experiment harness uses to print the
// paper's tables and figures.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"beyondcache/internal/obs"
)

// responseBounds covers simulated response times — sub-millisecond local
// hits through multi-minute worst cases — in 23 power-of-two buckets
// (100µs ... ~420s). The same obs.Histogram type instruments the live
// prototype, so simulated and measured percentiles are directly comparable.
func responseBounds() []time.Duration {
	return obs.ExpBounds(100*time.Microsecond, 2, 23)
}

// outcomeAgg is the per-outcome accumulator. The handful of outcome labels
// (≤ 8) live in a slice scanned linearly: every call site passes the same
// string constants, so the label comparison usually short-circuits on
// pointer equality, and Add stays allocation- and hash-free — it runs once
// per simulated request.
type outcomeAgg struct {
	label string
	count int64
	time  time.Duration
	bytes int64
}

// Response aggregates per-request outcomes.
type Response struct {
	n     int64
	total time.Duration
	bytes int64
	aggs  []outcomeAgg
	hist  *obs.Histogram
}

// NewResponse returns an empty aggregator.
func NewResponse() *Response {
	return &Response{
		aggs: make([]outcomeAgg, 0, 8),
		hist: obs.NewHistogram(responseBounds()),
	}
}

// find returns the accumulator for outcome, or nil if never recorded.
func (r *Response) find(outcome string) *outcomeAgg {
	for i := range r.aggs {
		if r.aggs[i].label == outcome {
			return &r.aggs[i]
		}
	}
	return nil
}

// agg returns the accumulator for outcome, creating it on first use.
func (r *Response) agg(outcome string) *outcomeAgg {
	if a := r.find(outcome); a != nil {
		return a
	}
	r.aggs = append(r.aggs, outcomeAgg{label: outcome})
	return &r.aggs[len(r.aggs)-1]
}

// Add records one request with the given outcome label, response time, and
// transfer size.
func (r *Response) Add(outcome string, d time.Duration, size int64) {
	r.n++
	r.total += d
	r.bytes += size
	a := r.agg(outcome)
	a.count++
	a.time += d
	a.bytes += size
	r.hist.Observe(d)
}

// Quantile estimates the q-quantile of the response-time distribution by
// bucket interpolation (see obs.Histogram.Quantile).
func (r *Response) Quantile(q float64) time.Duration {
	return r.hist.Quantile(q)
}

// N returns the number of recorded requests.
func (r *Response) N() int64 { return r.n }

// Bytes returns the total bytes recorded.
func (r *Response) Bytes() int64 { return r.bytes }

// Mean returns the mean response time, or 0 when empty.
func (r *Response) Mean() time.Duration {
	if r.n == 0 {
		return 0
	}
	return r.total / time.Duration(r.n)
}

// Total returns the summed response time.
func (r *Response) Total() time.Duration { return r.total }

// Count returns the number of requests with the given outcome.
func (r *Response) Count(outcome string) int64 {
	if a := r.find(outcome); a != nil {
		return a.count
	}
	return 0
}

// SizeOf returns the bytes recorded under the given outcome.
func (r *Response) SizeOf(outcome string) int64 {
	if a := r.find(outcome); a != nil {
		return a.bytes
	}
	return 0
}

// MeanOf returns the mean response time of one outcome class.
func (r *Response) MeanOf(outcome string) time.Duration {
	a := r.find(outcome)
	if a == nil || a.count == 0 {
		return 0
	}
	return a.time / time.Duration(a.count)
}

// Frac returns the fraction of requests with the given outcome.
func (r *Response) Frac(outcome string) float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.Count(outcome)) / float64(r.n)
}

// ByteFrac returns the fraction of bytes with the given outcome.
func (r *Response) ByteFrac(outcome string) float64 {
	if r.bytes == 0 {
		return 0
	}
	return float64(r.SizeOf(outcome)) / float64(r.bytes)
}

// FracAny sums Frac over several outcomes.
func (r *Response) FracAny(outcomes ...string) float64 {
	f := 0.0
	for _, o := range outcomes {
		f += r.Frac(o)
	}
	return f
}

// ByteFracAny sums ByteFrac over several outcomes.
func (r *Response) ByteFracAny(outcomes ...string) float64 {
	f := 0.0
	for _, o := range outcomes {
		f += r.ByteFrac(o)
	}
	return f
}

// Outcomes returns the recorded outcome labels, sorted.
func (r *Response) Outcomes() []string {
	out := make([]string, 0, len(r.aggs))
	for i := range r.aggs {
		out = append(out, r.aggs[i].label)
	}
	sort.Strings(out)
	return out
}

// Bandwidth tracks byte flows over a virtual time span.
type Bandwidth struct {
	counters map[string]int64
}

// NewBandwidth returns an empty bandwidth tracker.
func NewBandwidth() *Bandwidth {
	return &Bandwidth{counters: make(map[string]int64, 4)}
}

// Add charges size bytes to the named flow.
func (b *Bandwidth) Add(flow string, size int64) { b.counters[flow] += size }

// Bytes returns the bytes charged to a flow.
func (b *Bandwidth) Bytes(flow string) int64 { return b.counters[flow] }

// Rate returns the flow's average rate in bytes/second over span.
func (b *Bandwidth) Rate(flow string, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(b.counters[flow]) / span.Seconds()
}

// Table is a simple fixed-width text table builder for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. A row wider than the header used to be silently
// truncated, dropping data from rendered tables; now the header grows
// unnamed columns to fit the widest row.
func (t *Table) AddRow(cells ...string) {
	for len(t.header) < len(cells) {
		t.header = append(t.header, "")
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Ms formats a duration as whole milliseconds ("1270ms").
func Ms(d time.Duration) string {
	return fmt.Sprintf("%dms", d.Milliseconds())
}

// F3 formats a float with 3 decimals.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }

// F2 formats a float with 2 decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
