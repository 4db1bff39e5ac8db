// Package obs is the prototype's observability layer: lock-free latency
// histograms, a hand-rolled Prometheus text-format exposition builder (and
// the minimal parser the tests use to validate it), hop-annotated request
// traces, and a bounded ring of recent traces. Everything is standard
// library only, matching the repository's zero-dependency stance, and every
// hot-path operation (Observe, Sample) is a handful of atomic instructions
// so instrumentation never reintroduces the global serialization the
// sharded node removed.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram over exponential upper
// bounds: counts[i] holds observations with d <= bounds[i] (and greater
// than bounds[i-1]); counts[len(bounds)] is the overflow (+Inf) bucket.
// Observe is lock-free — one linear bucket probe plus two atomic adds — so
// any number of goroutines can record concurrently. Reads (Snapshot,
// Quantile) are not atomic with respect to writers: a scrape racing an
// Observe may see the bucket increment before the sum, which is the
// standard Prometheus client behavior and harmless for monitoring.
//
// The total count is always derived from the bucket counts, never kept
// separately, so a rendered histogram's +Inf cumulative bucket equals its
// _count series by construction.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64   // nanoseconds
}

// ExpBounds builds n exponential bucket bounds: start, start*factor,
// start*factor^2, ... Factor must be > 1 and start > 0; n must be >= 1.
func ExpBounds(start time.Duration, factor float64, n int) []time.Duration {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBounds needs start > 0, factor > 1, n >= 1")
	}
	bounds := make([]time.Duration, n)
	b := float64(start)
	for i := range bounds {
		bounds[i] = time.Duration(b)
		b *= factor
	}
	return bounds
}

// DefaultLatencyBounds covers the prototype's full latency range — from an
// in-process cache hit (a couple of microseconds) to a slow WAN origin
// fetch — in 22 power-of-two buckets: 10µs, 20µs, ..., ~21s.
func DefaultLatencyBounds() []time.Duration {
	return ExpBounds(10*time.Microsecond, 2, 22)
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil means DefaultLatencyBounds).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	own := make([]time.Duration, len(bounds))
	copy(own, bounds)
	return &Histogram{
		bounds: own,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. Negative durations clamp to zero (the
// monotonic clock cannot go backwards, but arithmetic on snapshots can).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Linear probe: latencies concentrate in the first buckets (hits are
	// microseconds), so the common case exits after one or two compares.
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the summed observed duration.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sum.Load())
}

// Merge folds a snapshot's observations into h. The snapshot must have been
// taken from a histogram with identical bucket bounds; merging across
// differently-shaped histograms would silently misbucket, so it errors
// instead. Load-driver workers each record into a private histogram and
// merge into one at the end, keeping the per-request path contention-free
// even though Observe is already lock-free (merging also composes: a merged
// histogram can be merged onward).
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if len(s.Bounds) != len(h.bounds) {
		return fmt.Errorf("obs: merge: %d bounds vs %d", len(s.Bounds), len(h.bounds))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("obs: merge: bound %d differs (%v vs %v)", i, b, h.bounds[i])
		}
	}
	if len(s.Counts) != len(h.counts) {
		return fmt.Errorf("obs: merge: %d counts vs %d", len(s.Counts), len(h.counts))
	}
	for i, c := range s.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(int64(s.Sum))
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra slot for
	// the overflow bucket. Counts are per-bucket, not cumulative.
	Bounds []time.Duration
	Counts []int64
	Sum    time.Duration
}

// Diff returns the observations recorded between prev and s (s minus
// prev, bucket by bucket): the interval histogram two consecutive scrapes
// of the same live histogram imply, computed without ever resetting the
// source. Bounds must match. By construction Merge(prev, s.Diff(prev))
// reproduces s; counts can go negative if the source was restarted
// between scrapes, which callers should treat as a reset.
func (s HistogramSnapshot) Diff(prev HistogramSnapshot) (HistogramSnapshot, error) {
	if len(prev.Bounds) != len(s.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("obs: diff: %d bounds vs %d", len(prev.Bounds), len(s.Bounds))
	}
	for i, b := range prev.Bounds {
		if b != s.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: diff: bound %d differs (%v vs %v)", i, b, s.Bounds[i])
		}
	}
	if len(prev.Counts) != len(s.Counts) {
		return HistogramSnapshot{}, fmt.Errorf("obs: diff: %d counts vs %d", len(prev.Counts), len(s.Counts))
	}
	d := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d, nil
}

// Count returns the snapshot's total observation count.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket containing the target rank. An empty histogram returns
// 0. Observations in the overflow bucket are reported as the highest finite
// bound (the histogram cannot see past it). q outside [0, 1] clamps.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Quantile is Histogram.Quantile on a snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation, rounded up (the
	// nearest rank), so q=0 maps to the first observation and q=1 to the
	// last, and a p99 of fewer than 100 observations is the slowest.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(s.Bounds) {
				// Overflow bucket: the best available answer is the
				// largest finite bound.
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := float64(rank-cum) / float64(c)
			return lo + time.Duration(float64(hi-lo)*frac)
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}
