package obs

import (
	"sync"
	"testing"
	"time"
)

func TestExpBounds(t *testing.T) {
	b := ExpBounds(10*time.Microsecond, 2, 4)
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond,
		40 * time.Microsecond, 80 * time.Microsecond}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bounds[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

// Bucket boundaries are inclusive upper bounds: an observation exactly at a
// bound lands in that bound's bucket, one nanosecond above lands in the
// next.
func TestHistogramBucketBoundaryExactness(t *testing.T) {
	bounds := ExpBounds(10*time.Microsecond, 2, 3) // 10µs, 20µs, 40µs
	h := NewHistogram(bounds)
	h.Observe(10 * time.Microsecond)   // bucket 0 (<= 10µs)
	h.Observe(10*time.Microsecond + 1) // bucket 1
	h.Observe(20 * time.Microsecond)   // bucket 1
	h.Observe(40 * time.Microsecond)   // bucket 2
	h.Observe(40*time.Microsecond + 1) // overflow
	h.Observe(0)                       // bucket 0
	h.Observe(-5 * time.Microsecond)   // clamps to 0, bucket 0
	s := h.Snapshot()
	want := []int64{3, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	wantSum := 10*time.Microsecond + (10*time.Microsecond + 1) + 20*time.Microsecond +
		40*time.Microsecond + (40*time.Microsecond + 1)
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	// Sum of 0..N-1 microseconds.
	n := int64(goroutines * perG)
	wantSum := time.Duration(n*(n-1)/2) * time.Microsecond
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := ExpBounds(10*time.Microsecond, 2, 3) // 10µs, 20µs, 40µs
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram(bounds)
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("empty Quantile = %v, want 0", got)
		}
	})
	t.Run("single bucket interpolates", func(t *testing.T) {
		h := NewHistogram(bounds)
		// 4 observations, all in bucket 1 (10µs, 20µs].
		for i := 0; i < 4; i++ {
			h.Observe(15 * time.Microsecond)
		}
		// q=1 -> rank 4 of 4 -> top of bucket 1.
		if got := h.Quantile(1); got != 20*time.Microsecond {
			t.Errorf("Quantile(1) = %v, want 20µs", got)
		}
		// q=0 -> rank 1 of 4 -> quarter of the way through (10µs..20µs].
		if got := h.Quantile(0); got != 12500*time.Nanosecond {
			t.Errorf("Quantile(0) = %v, want 12.5µs", got)
		}
		// Clamping.
		if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
			t.Error("out-of-range q does not clamp")
		}
	})
	t.Run("overflow bucket reports last bound", func(t *testing.T) {
		h := NewHistogram(bounds)
		h.Observe(time.Second) // overflow
		if got := h.Quantile(0.5); got != 40*time.Microsecond {
			t.Errorf("Quantile = %v, want 40µs (largest finite bound)", got)
		}
	})
	t.Run("interpolation across buckets", func(t *testing.T) {
		h := NewHistogram(bounds)
		// 2 in bucket 0, 2 in bucket 2: median (rank 2 of 4) is the top
		// of bucket 0; p75 (rank 3) is halfway through bucket 2.
		h.Observe(5 * time.Microsecond)
		h.Observe(5 * time.Microsecond)
		h.Observe(30 * time.Microsecond)
		h.Observe(30 * time.Microsecond)
		if got := h.Quantile(0.5); got != 10*time.Microsecond {
			t.Errorf("Quantile(0.5) = %v, want 10µs", got)
		}
		if got := h.Quantile(0.75); got != 30*time.Microsecond {
			t.Errorf("Quantile(0.75) = %v, want 30µs", got)
		}
	})
}

// TestHistogramQuantileNearestRank: the target rank rounds up. Of 8
// observations, one per bucket, the p99 is the 8th (7.92 rounded up), so it
// lands in the slowest one's bucket, not the second-slowest's.
func TestHistogramQuantileNearestRank(t *testing.T) {
	bounds := ExpBounds(10*time.Microsecond, 2, 8) // 10µs .. 1.28ms
	h := NewHistogram(bounds)
	for _, b := range bounds {
		h.Observe(b)
	}
	if got := h.Quantile(0.99); got <= bounds[6] || got > bounds[7] {
		t.Errorf("p99 of one observation per bucket = %v, want in (%v, %v]", got, bounds[6], bounds[7])
	}
}

func TestHistogramDefaultBoundsCoverPrototypeRange(t *testing.T) {
	b := DefaultLatencyBounds()
	if b[0] > 10*time.Microsecond {
		t.Errorf("lowest bound %v too coarse for a local hit", b[0])
	}
	if last := b[len(b)-1]; last < 10*time.Second {
		t.Errorf("highest bound %v cannot hold a slow origin fetch", last)
	}
}
