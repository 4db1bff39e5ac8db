package hintcache

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func TestStripedInsertLookup(t *testing.T) {
	s := NewStriped(1024, 4, 8)
	if err := s.Insert(42, 7); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Lookup(42)
	if !ok || m != 7 {
		t.Fatalf("Lookup = %d %v, want 7 true", m, ok)
	}
	if _, ok := s.Lookup(43); ok {
		t.Error("phantom hit")
	}
	// Re-insert replaces the machine.
	if err := s.Insert(42, 9); err != nil {
		t.Fatal(err)
	}
	if m, _ := s.Lookup(42); m != 9 {
		t.Errorf("after replace, Lookup = %d, want 9", m)
	}
}

func TestStripedZeroHashNormalized(t *testing.T) {
	s := NewStriped(64, 4, 1)
	if err := s.Insert(0, 5); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Lookup(0); !ok || m != 5 {
		t.Errorf("zero-hash lookup = %d %v, want 5 true", m, ok)
	}
}

func TestStripedDeleteMachineSemantics(t *testing.T) {
	s := NewStriped(1024, 4, 8)
	s.Insert(1, 10)
	// Mismatched machine must not destroy the fresher hint.
	if s.Delete(1, 99) {
		t.Error("mismatched delete succeeded")
	}
	if _, ok := s.Lookup(1); !ok {
		t.Fatal("hint destroyed by mismatched delete")
	}
	// Matching machine removes.
	if !s.Delete(1, 10) {
		t.Error("matching delete failed")
	}
	if _, ok := s.Lookup(1); ok {
		t.Error("hint survives matching delete")
	}
	// machine == 0 removes unconditionally.
	s.Insert(2, 10)
	if !s.Delete(2, 0) {
		t.Error("unconditional delete failed")
	}
}

func TestStripedSetEvictsLRU(t *testing.T) {
	// One stripe, one set of 2 ways: the third insert evicts the LRU.
	s := NewStriped(2, 2, 1)
	if s.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", s.Entries())
	}
	// All hashes land in the single set.
	s.Insert(101, 1)
	s.Insert(102, 2)
	s.Lookup(101) // promote 101 to MRU; 102 becomes LRU
	s.Insert(103, 3)
	if _, ok := s.Lookup(102); ok {
		t.Error("LRU record survived eviction")
	}
	if _, ok := s.Lookup(101); !ok {
		t.Error("MRU record evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Conflicts != 1 {
		t.Errorf("stats = %+v, want 1 eviction/conflict", st)
	}
}

func TestStripedApply(t *testing.T) {
	s := NewStriped(1024, 4, 8)
	if err := s.Apply(Update{Action: ActionInform, URLHash: 5, Machine: 3}); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Lookup(5); !ok || m != 3 {
		t.Fatalf("after inform, Lookup = %d %v", m, ok)
	}
	if err := s.Apply(Update{Action: ActionInvalidate, URLHash: 5, Machine: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(5); ok {
		t.Error("hint survives invalidate")
	}
	if err := s.Apply(Update{Action: Action(99), URLHash: 5, Machine: 3}); err == nil {
		t.Error("unknown action accepted")
	}
}

func TestStripedSizing(t *testing.T) {
	s := NewStriped(65536, 4, 16)
	if s.Entries() < 65536 {
		t.Errorf("Entries = %d, want >= 65536", s.Entries())
	}
	if s.SizeBytes() != int64(s.Entries())*RecordSize {
		t.Errorf("SizeBytes = %d", s.SizeBytes())
	}
	// Default stripe count kicks in for stripes <= 0.
	if NewStriped(1024, 4, 0).Entries() < 1024 {
		t.Error("default-stripe table undersized")
	}
}

// TestStripedContentsIgnoreStripeCount: a stripe is a lock, not a layout.
// One seeded sequence of informs, invalidates and probes, over four times
// as many objects as the table has slots so that sets overflow, leaves
// tables built with any stripe count — given, or the default under
// GOMAXPROCS 1 and 64 — with the same size, the same records, visited by
// Range in the same order, and the same counters.
func TestStripedContentsIgnoreStripeCount(t *testing.T) {
	const entries, ways = 1000, 4 // 250 sets: no multiple of a stripe count
	us := randomUpdates(20000, 4*entries, 6, 46)
	type table struct {
		name    string
		stripes int
		procs   int // GOMAXPROCS while the table is built; 0 leaves it
	}
	build := func(stripes, procs int) *Striped {
		if procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		}
		return NewStriped(entries, ways, stripes)
	}
	sorted := func(recs []Record) []Record {
		recs = slices.Clone(recs)
		slices.SortFunc(recs, func(a, b Record) int {
			if c := cmp.Compare(a.URLHash, b.URLHash); c != 0 {
				return c
			}
			return cmp.Compare(a.Machine, b.Machine)
		})
		return recs
	}
	var first []Record
	var firstStats Stats
	for i, tb := range []table{
		{"stripes=1", 1, 0}, {"stripes=2", 2, 0}, {"stripes=16", 16, 0}, {"stripes=64", 64, 0},
		{"default, GOMAXPROCS=1", 0, 1}, {"default, GOMAXPROCS=64", 0, 64},
	} {
		s := build(tb.stripes, tb.procs)
		for j, u := range us {
			if err := s.Apply(u); err != nil {
				t.Fatal(err)
			}
			if j%3 == 0 {
				s.LookupExcept(us[(j*7)%len(us)].URLHash, u.Machine)
			}
		}
		if s.Entries() != entries {
			t.Errorf("%s: Entries = %d, want %d", tb.name, s.Entries(), entries)
		}
		var recs []Record
		s.Range(func(r Record) bool { recs = append(recs, r); return true })
		if i == 0 {
			first, firstStats = recs, s.Stats()
			if firstStats.Conflicts == 0 {
				t.Fatal("no set overflowed: the sequence does not tell layouts apart")
			}
			continue
		}
		if !slices.Equal(sorted(recs), sorted(first)) {
			t.Errorf("%s (%d stripes): holds %d records, not the %d that stripes=1 holds", tb.name, len(s.stripes), len(recs), len(first))
		} else if !slices.Equal(recs, first) {
			t.Errorf("%s (%d stripes): Range visits the records in another order than stripes=1", tb.name, len(s.stripes))
		}
		if st := s.Stats(); st != firstStats {
			t.Errorf("%s (%d stripes): stats %+v, want stripes=1's %+v", tb.name, len(s.stripes), st, firstStats)
		}
	}
}

// TestStripedConcurrentProbesAndUpdates is the -race workout the tentpole
// demands: lookups racing inserts and deletes over overlapping keys.
func TestStripedConcurrentProbesAndUpdates(t *testing.T) {
	s := NewStriped(4096, 4, 16)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h := uint64(i%128 + 1)
				switch (w + i) % 4 {
				case 0:
					if err := s.Insert(h, uint64(w)+1); err != nil {
						t.Error(err)
						return
					}
				case 1, 2:
					if m, ok := s.Lookup(h); ok && m == 0 {
						t.Error("hit with zero machine")
						return
					}
				case 3:
					s.Delete(h, 0)
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Lookups != 16*500 {
		t.Errorf("lookups = %d, want %d", st.Lookups, 16*500)
	}
	checkLiveCounts(t, s)
}

// checkLiveCounts holds the stripes' live counts to the slots: Occupied and
// what Range visits both equal the records a full scan finds.
func checkLiveCounts(t *testing.T, s *Striped) {
	t.Helper()
	scanned, ranged := 0, 0
	for _, r := range s.recs {
		if r.URLHash != invalidHash {
			scanned++
		}
	}
	s.Range(func(Record) bool { ranged++; return true })
	if got := s.Occupied(); got != scanned || ranged != scanned {
		t.Errorf("Occupied = %d, Range visited %d, slots hold %d", got, ranged, scanned)
	}
}

// TestStripedLiveCountsUnderConflicts: the per-stripe counts follow inserts
// into free slots, replacements, conflict evictions and deletes, on a table
// small enough that sets overflow.
func TestStripedLiveCountsUnderConflicts(t *testing.T) {
	s := NewStriped(64, 4, 4)
	us := randomUpdates(4096, 512, 6, 27)
	for off := 0; off < len(us); off += 256 {
		if err := s.ApplyBatch(us[off : off+256]); err != nil {
			t.Fatal(err)
		}
		s.Delete(us[off].URLHash, 0)
		checkLiveCounts(t, s)
	}
	if s.Stats().Conflicts == 0 {
		t.Fatal("no set overflowed: the conflict path went untested")
	}
}

// holdersOf lists the machines on record for an object, most recent first
// (Range walks a set in slot order, and slot 0 is MRU).
func holdersOf(s *Striped, h uint64) []uint64 {
	var ms []uint64
	s.Range(func(r Record) bool {
		if r.URLHash == h {
			ms = append(ms, r.Machine)
		}
		return true
	})
	return ms
}

// checkHolders compares the table against want (object -> holders, most
// recent first) three ways: the records themselves, Lookup naming the most
// recent holder, and LookupExcept passing over it to the one before. It
// runs last: LookupExcept promotes what it returns.
func checkHolders(t *testing.T, s *Striped, objects []uint64, want map[uint64][]uint64) {
	t.Helper()
	occupied := 0
	for _, h := range objects {
		w := want[h]
		occupied += len(w)
		got := holdersOf(s, h)
		if len(got) != len(w) {
			t.Errorf("object %d: holders %v, want %v", h, got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("object %d: holders %v, want %v", h, got, w)
				break
			}
		}
		first, second := uint64(0), uint64(0)
		if len(w) > 0 {
			first = w[0]
		}
		if len(w) > 1 {
			second = w[1]
		}
		if m, ok := s.Lookup(h); m != first || ok != (first != 0) {
			t.Errorf("object %d: Lookup = (%d, %v), want most recent holder %d", h, m, ok, first)
		}
		if m, ok := s.LookupExcept(h, first); m != second || ok != (second != 0) {
			t.Errorf("object %d: LookupExcept(%d) = (%d, %v), want %d", h, first, m, ok, second)
		}
	}
	if got := s.Occupied(); got != occupied {
		t.Errorf("Occupied = %d, want %d", got, occupied)
	}
}

// TestStripedTwoHolders pins what a record is in the live table: an object
// keeps its two most recent distinct holders, a machine-matched delete
// withdraws one of them, and a full set takes a slot from an object that
// holds two before it takes any object's only record. One stripe, one set
// of four ways: every hash lands in it.
func TestStripedTwoHolders(t *testing.T) {
	const A, B, C = 11, 12, 13
	type step struct {
		del  bool
		h, m uint64
	}
	ins := func(h, m uint64) step { return step{false, h, m} }
	del := func(h, m uint64) step { return step{true, h, m} }
	cases := []struct {
		name      string
		steps     []step
		want      map[uint64][]uint64
		evictions int64
	}{
		{"second holder kept",
			[]step{ins(1, A), ins(1, B)},
			map[uint64][]uint64{1: {B, A}}, 0},
		{"same holder re-informed is not duplicated",
			[]step{ins(1, A), ins(1, B), ins(1, A), ins(1, A)},
			map[uint64][]uint64{1: {A, B}}, 0},
		{"third holder replaces the older of two",
			[]step{ins(1, A), ins(1, B), ins(1, C)},
			map[uint64][]uint64{1: {C, B}}, 0},
		{"machine-matched delete of the newer leaves the older",
			[]step{ins(1, A), ins(1, B), del(1, B)},
			map[uint64][]uint64{1: {A}}, 0},
		{"machine-matched delete of the older leaves the newer",
			[]step{ins(1, A), ins(1, B), del(1, A)},
			map[uint64][]uint64{1: {B}}, 0},
		{"mismatched delete removes neither",
			[]step{ins(1, A), ins(1, B), del(1, C)},
			map[uint64][]uint64{1: {B, A}}, 0},
		{"unconditional delete removes both",
			[]step{ins(1, A), ins(1, B), ins(2, A), del(1, 0)},
			map[uint64][]uint64{2: {A}}, 0},
		{"full set: a new object takes a second holder's slot, not the LRU object's only record",
			[]step{ins(1, A), ins(2, A), ins(3, A), ins(3, B), ins(4, A)},
			map[uint64][]uint64{1: {A}, 2: {A}, 3: {B}, 4: {A}}, 1},
		{"full set: a second holder takes another object's second slot",
			[]step{ins(1, A), ins(1, B), ins(2, A), ins(3, A), ins(2, B)},
			map[uint64][]uint64{1: {B}, 2: {B, A}, 3: {A}}, 1},
		{"full set of only records: a second holder replaces its own object's record",
			[]step{ins(1, A), ins(2, A), ins(3, A), ins(4, A), ins(1, B)},
			map[uint64][]uint64{1: {B}, 2: {A}, 3: {A}, 4: {A}}, 0},
		{"full set of only records: a new object takes the LRU slot",
			[]step{ins(1, A), ins(2, A), ins(3, A), ins(4, A), ins(5, A)},
			map[uint64][]uint64{2: {A}, 3: {A}, 4: {A}, 5: {A}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStriped(4, 4, 1)
			for _, st := range tc.steps {
				if st.del {
					s.Delete(st.h, st.m)
				} else if err := s.Insert(st.h, st.m); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Stats().Evictions; got != tc.evictions {
				t.Errorf("evictions = %d, want %d", got, tc.evictions)
			}
			checkHolders(t, s, []uint64{1, 2, 3, 4, 5}, tc.want)
		})
	}
}

// TestStripedTwoHoldersModel drives a seeded inform/invalidate mix
// through ApplyBatch into a table large enough that no set overflows, and
// checks it against the plain statement of the rule: per object, the two
// most recent distinct holders not since invalidated.
func TestStripedTwoHoldersModel(t *testing.T) {
	const objects = 256
	us := randomUpdates(8192, objects, 5, 22)
	s := NewStriped(1<<16, 4, 8)
	model := make(map[uint64][]uint64)
	for off := 0; off < len(us); off += 64 {
		if err := s.ApplyBatch(us[off : off+64]); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range us {
		kept := make([]uint64, 0, holdersPerObject+1)
		if u.Action == ActionInform {
			kept = append(kept, u.Machine)
		}
		for _, m := range model[u.URLHash] {
			if m != u.Machine {
				kept = append(kept, m)
			}
		}
		model[u.URLHash] = kept[:min(len(kept), holdersPerObject)]
	}
	if got := s.Stats().Evictions; got != 0 {
		t.Fatalf("%d evictions: the table is too small for the model to hold", got)
	}
	ids := make([]uint64, objects)
	for i := range ids {
		ids[i] = uint64(i) + 1
	}
	checkHolders(t, s, ids, model)
}
