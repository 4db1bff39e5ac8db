package cluster

import (
	"testing"

	"beyondcache/internal/hintcache"
)

func inform(h, m uint64) hintcache.Update {
	return hintcache.Update{Action: hintcache.ActionInform, URLHash: h, Machine: m}
}

func invalidate(h, m uint64) hintcache.Update {
	return hintcache.Update{Action: hintcache.ActionInvalidate, URLHash: h, Machine: m}
}

// TestPendqCoalesces checks the coalescing rules: repeated informs for one
// object keep a single record, and inform-then-invalidate collapses to the
// invalidate (last action wins) without losing the record's queue position.
func TestPendqCoalesces(t *testing.T) {
	q := newPendq(0)
	q.add(inform(1, 7))
	q.add(inform(2, 7))
	if c, _ := q.add(inform(1, 7)); !c {
		t.Error("repeat inform for hash 1 did not coalesce")
	}
	if c, _ := q.add(invalidate(1, 7)); !c {
		t.Error("invalidate after inform for hash 1 did not coalesce")
	}
	got, _ := q.drain(nil)
	want := []hintcache.Update{invalidate(1, 7), inform(2, 7)}
	if len(got) != len(want) {
		t.Fatalf("drained %d records, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if q.len() != 0 {
		t.Errorf("queue holds %d records after drain, want 0", q.len())
	}
}

// TestPendqInvalidateThenInform checks the reverse collapse: a re-fill's
// inform overwrites a queued invalidate.
func TestPendqInvalidateThenInform(t *testing.T) {
	q := newPendq(0)
	q.add(invalidate(1, 7))
	q.add(inform(1, 7))
	got, _ := q.drain(nil)
	if len(got) != 1 || got[0] != inform(1, 7) {
		t.Fatalf("drained %v, want single inform(1)", got)
	}
}

// TestPendqCoalescesPerCopy: the queue coalesces per machine's copy, not per
// object. The invalidate a demote routes for stale holder B must leave the
// node beside the asker's own inform for the same object — keyed by hash
// alone the inform overwrote it and B's record lingered at the hint home —
// while an inform and an invalidate for the same copy still collapse.
func TestPendqCoalescesPerCopy(t *testing.T) {
	const A, B = 7, 8
	q := newPendq(0)
	q.add(invalidate(1, B))
	if c, _ := q.add(inform(1, A)); c {
		t.Error("A's inform coalesced onto the invalidate for B's copy")
	}
	got, _ := q.drain(nil)
	if len(got) != 2 || got[0] != invalidate(1, B) || got[1] != inform(1, A) {
		t.Errorf("drained %v, want invalidate(1, B) then inform(1, A)", got)
	}

	q.add(inform(1, A))
	if c, _ := q.add(invalidate(1, A)); !c {
		t.Error("invalidate after inform for the same copy did not coalesce")
	}
	got, _ = q.drain(nil)
	if len(got) != 1 || got[0] != invalidate(1, A) {
		t.Errorf("drained %v, want the single invalidate(1, A)", got)
	}
}

// TestPendqBoundDropsOldestInformFirst fills a bounded queue and checks
// that overflow evicts the oldest inform — never an invalidate while an
// inform remains — and that an all-invalidate queue falls back to dropping
// its oldest record.
func TestPendqBoundDropsOldestInformFirst(t *testing.T) {
	q := newPendq(3)
	q.add(invalidate(1, 7))
	q.add(inform(2, 7))
	q.add(inform(3, 7))
	if _, dropped := q.add(inform(4, 7)); !dropped {
		t.Fatal("overflow add reported no drop")
	}
	got, _ := q.drain(nil)
	want := []hintcache.Update{invalidate(1, 7), inform(3, 7), inform(4, 7)}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v (oldest inform should have dropped)", i, got[i], want[i])
		}
	}

	// All invalidates: the oldest one goes.
	q = newPendq(2)
	q.add(invalidate(1, 7))
	q.add(invalidate(2, 7))
	q.add(invalidate(3, 7))
	got, _ = q.drain(nil)
	want = []hintcache.Update{invalidate(2, 7), invalidate(3, 7)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("all-invalidate overflow: record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPendqAddBatchCounts checks addBatch's aggregate coalesce/drop
// accounting, which feeds the per-peer metrics.
func TestPendqAddBatchCounts(t *testing.T) {
	q := newPendq(2)
	batch := []hintcache.Update{
		inform(1, 7),
		inform(1, 7), // coalesces
		inform(2, 7),
		inform(3, 7), // overflows: drops hash 1 (oldest inform)
	}
	coalesced, dropped := q.addBatch(batch, 0)
	if coalesced != 1 || dropped != 1 {
		t.Errorf("addBatch = (coalesced %d, dropped %d), want (1, 1)", coalesced, dropped)
	}
	if q.len() != 2 {
		t.Errorf("queue holds %d records, want 2", q.len())
	}
}
