package obs

import (
	"testing"
	"time"
)

func TestHistogramMergeCombinesCountsAndSum(t *testing.T) {
	a := NewHistogram(nil)
	b := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		a.Observe(time.Duration(i+1) * time.Millisecond)
		b.Observe(time.Duration(i+1) * 10 * time.Microsecond)
	}
	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != 200 {
		t.Errorf("merged count = %d, want 200", got)
	}
	wantSum := time.Duration(0)
	for i := 0; i < 100; i++ {
		wantSum += time.Duration(i+1)*time.Millisecond + time.Duration(i+1)*10*time.Microsecond
	}
	if got := a.Sum(); got != wantSum {
		t.Errorf("merged sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramMergeEqualsSingleHistogram(t *testing.T) {
	// Observing a stream split across two histograms and merging must give
	// the exact counts (and therefore quantiles) of one histogram that saw
	// the whole stream — the property worker-sharded recording relies on.
	whole := NewHistogram(nil)
	parts := []*Histogram{NewHistogram(nil), NewHistogram(nil), NewHistogram(nil)}
	for i := 0; i < 3000; i++ {
		d := time.Duration(1+i%500) * 37 * time.Microsecond
		whole.Observe(d)
		parts[i%len(parts)].Observe(d)
	}
	merged := NewHistogram(nil)
	for _, p := range parts {
		if err := merged.Merge(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	ws, ms := whole.Snapshot(), merged.Snapshot()
	if ws.Count() != ms.Count() || ws.Sum != ms.Sum {
		t.Fatalf("merged (count %d, sum %v) != whole (count %d, sum %v)",
			ms.Count(), ms.Sum, ws.Count(), ws.Sum)
	}
	for i := range ws.Counts {
		if ws.Counts[i] != ms.Counts[i] {
			t.Fatalf("bucket %d: merged %d != whole %d", i, ms.Counts[i], ws.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if whole.Quantile(q) != merged.Quantile(q) {
			t.Errorf("q%.2f: merged %v != whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewHistogram(ExpBounds(time.Millisecond, 2, 8))
	b := NewHistogram(ExpBounds(time.Millisecond, 2, 9))
	if err := a.Merge(b.Snapshot()); err == nil {
		t.Error("merge across differing bucket counts accepted")
	}
	c := NewHistogram(ExpBounds(2*time.Millisecond, 2, 8))
	if err := a.Merge(c.Snapshot()); err == nil {
		t.Error("merge across differing bounds accepted")
	}
}

// TestHistogramDiffIdentity: the diff of a snapshot with itself is zero.
func TestHistogramDiffIdentity(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	d, err := s.Diff(s)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Count() != 0 || d.Sum != 0 {
		t.Errorf("self-diff = (count %d, sum %v), want zero", d.Count(), d.Sum)
	}
	for i, c := range d.Counts {
		if c != 0 {
			t.Errorf("self-diff bucket %d = %d, want 0", i, c)
		}
	}
}

// TestHistogramDiffMergeInverse: Merge(a, Diff(b, a)) reconstructs b, the
// contract interval-quantile scrapers rely on.
func TestHistogramDiffMergeInverse(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(time.Millisecond)
	h.Observe(20 * time.Millisecond)
	a := h.Snapshot()
	h.Observe(300 * time.Millisecond)
	h.Observe(4 * time.Second)
	b := h.Snapshot()

	d, err := b.Diff(a)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Count() != 2 {
		t.Errorf("interval count = %d, want 2", d.Count())
	}
	rebuilt := NewHistogram(a.Bounds)
	if err := rebuilt.Merge(a); err != nil {
		t.Fatalf("Merge(a): %v", err)
	}
	if err := rebuilt.Merge(d); err != nil {
		t.Fatalf("Merge(diff): %v", err)
	}
	got := rebuilt.Snapshot()
	if got.Count() != b.Count() || got.Sum != b.Sum {
		t.Errorf("rebuilt = (count %d, sum %v), want (count %d, sum %v)",
			got.Count(), got.Sum, b.Count(), b.Sum)
	}
	for i := range b.Counts {
		if got.Counts[i] != b.Counts[i] {
			t.Errorf("rebuilt bucket %d = %d, want %d", i, got.Counts[i], b.Counts[i])
		}
	}
}

// TestHistogramDiffMismatch rejects snapshots with different bounds.
func TestHistogramDiffMismatch(t *testing.T) {
	a := NewHistogram(ExpBounds(time.Millisecond, 2, 4)).Snapshot()
	b := NewHistogram(ExpBounds(time.Millisecond, 2, 5)).Snapshot()
	if _, err := b.Diff(a); err == nil {
		t.Error("Diff across mismatched bounds succeeded")
	}
	c := NewHistogram(ExpBounds(2*time.Millisecond, 2, 4)).Snapshot()
	if _, err := c.Diff(a); err == nil {
		t.Error("Diff across different bound values succeeded")
	}
}
