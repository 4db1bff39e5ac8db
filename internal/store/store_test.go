package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/cache"
)

func openT(t testing.TB, opts Options) *Store {
	t.Helper()
	return openDir(t, t.TempDir(), opts)
}

func openDir(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openT(t, Options{})
	body := []byte("the quick brown fox")
	obj := cache.Object{ID: 42, Size: int64(len(body)), Version: 7}
	if err := s.Put(obj, body); err != nil {
		t.Fatal(err)
	}
	got, b, ok := s.Get(42)
	if !ok || got != obj || !bytes.Equal(b, body) {
		t.Fatalf("Get = %+v %q %v, want %+v %q", got, b, ok, obj, body)
	}
	if _, _, ok := s.Get(43); ok {
		t.Error("Get(43) hit on an absent object")
	}
	st := s.StatsSnapshot()
	if st.Objects != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UsedBytes != headerLen+int64(len(body)) {
		t.Errorf("UsedBytes = %d, want %d", st.UsedBytes, headerLen+len(body))
	}
}

func TestStorePutSkipsSameOrOlderVersion(t *testing.T) {
	s := openT(t, Options{})
	s.Put(cache.Object{ID: 1, Size: 2, Version: 5}, []byte("v5"))
	s.Put(cache.Object{ID: 1, Size: 2, Version: 3}, []byte("v3"))
	s.Put(cache.Object{ID: 1, Size: 2, Version: 5}, []byte("XX"))
	obj, body, ok := s.Get(1)
	if !ok || obj.Version != 5 || string(body) != "v5" {
		t.Fatalf("Get = %+v %q %v, want version 5 body v5", obj, body, ok)
	}
	if st := s.StatsSnapshot(); st.PutSkipped != 2 {
		t.Errorf("PutSkipped = %d, want 2", st.PutSkipped)
	}
	// A genuinely newer version supersedes the record.
	s.Put(cache.Object{ID: 1, Size: 2, Version: 9}, []byte("v9"))
	obj, body, _ = s.Get(1)
	if obj.Version != 9 || string(body) != "v9" {
		t.Errorf("upgrade not applied: %+v %q", obj, body)
	}
	if st := s.StatsSnapshot(); st.Objects != 1 {
		t.Errorf("Objects = %d after the upgrade, want 1", st.Objects)
	}
}

// body100 is a 100-byte body unique to (id, version).
func body100(id uint64, version int64) []byte {
	return []byte(fmt.Sprintf("%050d%050d", id, version))
}

const rec100 = headerLen + 100 // one body100 record

// putRange stores ids from..to at version 1.
func putRange(t testing.TB, s *Store, from, to uint64) {
	t.Helper()
	for id := from; id <= to; id++ {
		if err := s.Put(cache.Object{ID: id, Size: 100, Version: 1}, body100(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantBody asserts id reads back at version with its body100.
func wantBody(t testing.TB, s *Store, id uint64, version int64) {
	t.Helper()
	obj, b, ok := s.Get(id)
	if !ok || obj.Version != version || !bytes.Equal(b, body100(id, version)) {
		t.Fatalf("Get(%d) = v%d %q %v, want v%d", id, obj.Version, b, ok, version)
	}
}

func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// place returns where id's record lies: its segment file and offset.
func place(t testing.TB, s *Store, id uint64) (path string, off, n int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		t.Fatalf("object %d is not indexed", id)
	}
	return s.segPath(e.seg.seq), e.off, e.n
}

// patch rewrites id's record in its segment file through edit.
func patch(t testing.TB, s *Store, id uint64, edit func(raw []byte)) {
	t.Helper()
	path, off, n := place(t, s, id)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw := make([]byte, n)
	if _, err := f.ReadAt(raw, off); err != nil {
		t.Fatal(err)
	}
	edit(raw)
	if _, err := f.WriteAt(raw, off); err != nil {
		t.Fatal(err)
	}
}

// reopen is a restart: a fresh Store over s's directory, recovered.
func reopen(t testing.TB, s *Store, opts Options) (*Store, RecoverStats) {
	t.Helper()
	s.Close()
	s2 := openDir(t, s.dir, opts)
	return s2, s2.Recover(4, nil)
}

// TestStoreCapacityRetiresOldestAndFiresDrop: the footprint, the room the
// active segment may still take included, never passes the capacity; the
// oldest segment goes whole, its file with it, and every object in it is
// announced.
func TestStoreCapacityRetiresOldestAndFiresDrop(t *testing.T) {
	s := openT(t, Options{Capacity: 4 * 2 * rec100})
	s.segSize = 2 * rec100 // four segments of two records
	var dropped []uint64
	s.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	putRange(t, s, 1, 8)
	if len(dropped) != 0 || len(segFiles(t, s.dir)) != 4 {
		t.Fatalf("at capacity: dropped %v, %d segments; want none, 4", dropped, len(segFiles(t, s.dir)))
	}
	first, _, _ := place(t, s, 1)
	putRange(t, s, 9, 9) // opens a fifth segment
	if slices.Sort(dropped); !slices.Equal(dropped, []uint64{1, 2}) {
		t.Fatalf("dropped = %v, want [1 2] (the oldest segment)", dropped)
	}
	if s.Contains(1) || s.Contains(2) {
		t.Error("retired objects still indexed")
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Error("retired segment's file still on disk")
	}
	st := s.StatsSnapshot()
	if st.Evictions != 2 || st.Objects != 7 || st.UsedBytes > st.Capacity {
		t.Errorf("stats = %+v", st)
	}
	for id := uint64(3); id <= 9; id++ {
		wantBody(t, s, id, 1)
	}
}

func TestStoreRemoveSilent(t *testing.T) {
	s := openT(t, Options{})
	fired := false
	s.OnDrop(func(cache.Object) { fired = true })
	s.Put(cache.Object{ID: 5, Size: 1, Version: 1}, []byte("a"))
	if !s.Remove(5) {
		t.Fatal("Remove missed")
	}
	if fired {
		t.Error("Remove fired the drop callback")
	}
	if s.Remove(5) {
		t.Error("second Remove reported success")
	}
	if _, _, ok := s.Get(5); ok {
		t.Error("object survives Remove")
	}
}

// TestStoreCorruptBodyQuarantined is the verify-on-read contract: a flipped
// bit in a body means that object is never served — the record is dropped
// from the index, counted, and the drop callback advertises the departure —
// while its neighbours in the segment still read, and a restart does not
// bring it back.
func TestStoreCorruptBodyQuarantined(t *testing.T) {
	s := openT(t, Options{})
	var dropped []uint64
	s.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	putRange(t, s, 76, 78)
	patch(t, s, 77, func(raw []byte) { raw[headerLen+10] ^= 0x01 })

	if _, _, ok := s.Get(77); ok {
		t.Fatal("corrupt object was served")
	}
	if st := s.StatsSnapshot(); st.VerifyFailures != 1 || st.Objects != 2 {
		t.Errorf("stats = %+v, want 1 verify failure and 2 objects left", st)
	}
	if len(dropped) != 1 || dropped[0] != 77 {
		t.Errorf("dropped = %v, want [77]", dropped)
	}
	wantBody(t, s, 76, 1)
	wantBody(t, s, 78, 1)
	// A subsequent Get is a clean miss, not another failure.
	if _, _, ok := s.Get(77); ok {
		t.Error("condemned object resurrected")
	}
	if got := s.StatsSnapshot().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d after a second Get, want 1", got)
	}
	// Its header is still valid on disk; the tombstone keeps it out.
	s2, st := reopen(t, s, Options{})
	if st.Objects != 2 || s2.Contains(77) {
		t.Errorf("after restart: %+v, Contains(77) = %v; want the 2 neighbours only", st, s2.Contains(77))
	}
}

// TestStoreLogWrongIDNeverServed: a record that is intact but belongs to
// another object — a misdirected write — fails the id check.
func TestStoreLogWrongIDNeverServed(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 2)
	path, off, n := place(t, s, 2)
	other := make([]byte, n)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(other, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	patch(t, s, 1, func(raw []byte) { copy(raw, other) })
	if obj, b, ok := s.Get(1); ok {
		t.Fatalf("Get(1) served object %d's record: %+v %q", 2, obj, b)
	}
	if got := s.StatsSnapshot().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d, want 1", got)
	}
	wantBody(t, s, 2, 1)
}

// TestRecoverCrashMidWrite simulates a node killed in the middle of an
// append: the active segment ends in a partial header. Recovery must index
// everything before the torn tail, nothing of it, and not panic.
func TestRecoverCrashMidWrite(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 3)
	path, off, _ := place(t, s, 3)
	if err := os.Truncate(path, off+headerLen/2); err != nil {
		t.Fatal(err)
	}
	var recovered []uint64
	s.Close()
	s2 := openDir(t, s.dir, Options{})
	st := s2.Recover(4, func(o cache.Object) { recovered = append(recovered, o.ID) })
	if st.Objects != 2 || st.Quarantined != 1 || len(recovered) != 2 {
		t.Errorf("recover stats = %+v, published %v; want objects 1 and 2 and one torn tail", st, recovered)
	}
	wantBody(t, s2, 1, 1)
	wantBody(t, s2, 2, 1)
	if _, _, ok := s2.Get(3); ok {
		t.Error("torn record served after recovery")
	}
	// The log carries on behind the torn segment.
	putRange(t, s2, 3, 3)
	wantBody(t, s2, 3, 1)
}

// TestRecoverTruncatedFileQuarantined: a torn record with its header intact
// and its body cut short (e.g. power cut before the data blocks hit disk)
// runs past the end of its segment, which ends the walk there: the partial
// object is never indexed, let alone served.
func TestRecoverTruncatedFileQuarantined(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 8, 9)
	path, off, _ := place(t, s, 9)
	if err := os.Truncate(path, off+headerLen+40); err != nil {
		t.Fatal(err)
	}
	s2, st := reopen(t, s, Options{})
	if st.Objects != 1 || st.Quarantined != 1 {
		t.Fatalf("recover stats = %+v, want 1 object, 1 quarantined", st)
	}
	if _, _, ok := s2.Get(9); ok {
		t.Fatal("partial object served after recovery")
	}
	if got := s2.StatsSnapshot().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d, want 1", got)
	}
	wantBody(t, s2, 8, 1)
}

// TestStoreLogUnknownFlagInvalid: bit 0 of a header's flags once marked a
// compressed body. A record carrying it — every checksum valid, its stored
// length its body's — is never served, and the recovery walk cuts it off
// with whatever follows it in its segment.
func TestStoreLogUnknownFlagInvalid(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 3)
	path, off, _ := place(t, s, 2)
	patch(t, s, 2, func(raw []byte) {
		h, ok := decodeHeader(raw)
		if !ok {
			t.Fatal("setup: record 2 does not decode")
		}
		h.flags |= 1 << 0
		h.encode((*[headerLen]byte)(raw))
	})
	if _, _, ok := s.Get(2); ok {
		t.Fatal("record with flag bit 0 was served")
	}
	// Undo the condemnation's tombstone so that recovery meets the record
	// with nothing else against it.
	if err := os.Truncate(path, off+2*rec100); err != nil {
		t.Fatal(err)
	}
	s2, st := reopen(t, s, Options{})
	if st.Objects != 1 || st.Quarantined != 1 {
		t.Errorf("recover stats = %+v, want object 1 and a walk cut at record 2", st)
	}
	for _, id := range []uint64{2, 3} {
		if _, _, ok := s2.Get(id); ok {
			t.Errorf("object %d served from behind the cut", id)
		}
	}
	wantBody(t, s2, 1, 1)
}

// TestRecoverGarbageFileQuarantined: a segment that is not one, and junk
// behind good records, cost only themselves.
func TestRecoverGarbageFileQuarantined(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 2)
	path, _, _ := place(t, s, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not a record at all, but longer than a header is")
	f.Close()
	junk := s.segPath(99)
	if err := os.WriteFile(junk, bytes.Repeat([]byte("junk"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, st := reopen(t, s, Options{})
	if st.Objects != 2 || st.Quarantined != 2 {
		t.Fatalf("recover stats = %+v, want 2 objects and 2 torn segments", st)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) || st.SegmentsRemoved != 1 {
		t.Errorf("the all-junk segment was kept (removed %d)", st.SegmentsRemoved)
	}
	wantBody(t, s2, 1, 1)
	wantBody(t, s2, 2, 1)
}

func TestRecoverManyObjectsParallel(t *testing.T) {
	s := openT(t, Options{})
	s.segSize = 1 << 10 // dozens of segments for the pool to share
	const n = 300
	for i := 1; i <= n; i++ {
		body := []byte(fmt.Sprintf("body-%d", i))
		s.Put(cache.Object{ID: uint64(i), Size: int64(len(body)), Version: int64(i)}, body)
	}
	if len(segFiles(t, s.dir)) < 8 {
		t.Fatalf("only %d segments: the scan would not be parallel", len(segFiles(t, s.dir)))
	}
	s.Close()

	s2 := openDir(t, s.dir, Options{})
	var mu sync.Mutex
	seen := map[uint64]bool{}
	st := s2.Recover(8, func(o cache.Object) {
		mu.Lock()
		seen[o.ID] = true
		mu.Unlock()
	})
	if st.Objects != n || len(seen) != n {
		t.Fatalf("recovered %d objects, published %d, want %d", st.Objects, len(seen), n)
	}
	if st.Duration <= 0 {
		t.Error("recovery duration not measured")
	}
	// Spot-check content integrity post-recovery.
	obj, b, ok := s2.Get(137)
	if !ok || obj.Version != 137 || string(b) != "body-137" {
		t.Errorf("post-recovery Get(137) = %+v %q %v", obj, b, ok)
	}
}

// TestRecoverShrunkCapacityTrims: reopened with less room, the log gives up
// its oldest segments before serving, announcing what was in them.
func TestRecoverShrunkCapacityTrims(t *testing.T) {
	s := openT(t, Options{})
	s.segSize = 2 * rec100
	putRange(t, s, 1, 10) // five segments of two
	s.Close()
	s2 := openDir(t, s.dir, Options{Capacity: 3 * rec100})
	var dropped []uint64
	s2.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	s2.Recover(4, nil)
	st := s2.StatsSnapshot()
	if st.UsedBytes > st.Capacity {
		t.Errorf("UsedBytes = %d exceeds shrunk capacity %d", st.UsedBytes, st.Capacity)
	}
	if len(dropped) != 8 || st.Objects != 2 {
		t.Errorf("dropped %v, kept %d objects; want 8 dropped, 2 kept", dropped, st.Objects)
	}
	wantBody(t, s2, 9, 1) // the newest segment is the one that stays
	wantBody(t, s2, 10, 1)
}

// TestStoreLogRecoveryOrder: whatever order the workers reach the segments
// in, the later record of an id wins — a tombstone included — so a restart
// neither goes back a version nor brings back a purged object.
func TestStoreLogRecoveryOrder(t *testing.T) {
	s := openT(t, Options{})
	s.segSize = 2 * rec100
	putRange(t, s, 1, 6)
	for id := uint64(1); id <= 2; id++ { // newer versions, segments later
		s.Put(cache.Object{ID: id, Size: 100, Version: 2}, body100(id, 2))
	}
	s.Remove(3) // 4 and 6 keep the records of 3 and 5 on disk
	s.Remove(5)
	s.Put(cache.Object{ID: 5, Size: 100, Version: 3}, body100(5, 3)) // back after its purge
	for workers := 1; workers <= 8; workers *= 2 {
		s.Close()
		s = openDir(t, s.dir, Options{})
		s.segSize = 2 * rec100
		st := s.Recover(workers, nil)
		if st.Objects != 5 {
			t.Fatalf("%d workers: recovered %d objects, want 5 (%+v)", workers, st.Objects, st)
		}
		wantBody(t, s, 1, 2)
		wantBody(t, s, 2, 2)
		wantBody(t, s, 4, 1)
		wantBody(t, s, 5, 3)
		wantBody(t, s, 6, 1)
		if s.Contains(3) {
			t.Fatalf("%d workers: purged object 3 came back", workers)
		}
	}
}

// TestStoreLogGetRacesRetireAndRemove: a read that loses a race with a
// segment's retirement, a Remove or a rewrite is a miss or a retry, never a
// verify failure and never another object's bytes.
func TestStoreLogGetRacesRetireAndRemove(t *testing.T) {
	s := openT(t, Options{Capacity: 8 * 4 * rec100})
	s.segSize = 4 * rec100
	const ids = 64 // twice what the capacity holds: constant retirement
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(rng.Intn(ids))
				if obj, b, ok := s.Get(id); ok && !bytes.Equal(b, body100(id, obj.Version)) {
					t.Errorf("Get(%d) = v%d %q", id, obj.Version, b)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 1; i <= 4000; i++ {
		id := uint64(rng.Intn(ids))
		if rng.Intn(8) == 0 {
			s.Remove(id)
		} else if err := s.Put(cache.Object{ID: id, Size: 100, Version: int64(i)}, body100(id, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	st := s.StatsSnapshot()
	if st.VerifyFailures != 0 {
		t.Errorf("VerifyFailures = %d, want 0: a lost race was taken for corruption", st.VerifyFailures)
	}
	if st.Evictions == 0 || st.UsedBytes > st.Capacity {
		t.Errorf("stats = %+v: want retirements, within capacity", st)
	}
}

// TestStoreLogCompaction: an unbounded log whose records keep being
// superseded moves the survivors of its oldest segment forward and deletes
// it, so the footprint follows the live set, and nothing is dropped.
func TestStoreLogCompaction(t *testing.T) {
	s := openT(t, Options{})
	s.segSize = 4 * rec100
	s.OnDrop(func(o cache.Object) { t.Errorf("object %d dropped by compaction", o.ID) })
	putRange(t, s, 100, 103) // written once, never again: must be carried along
	for v := int64(1); v <= 200; v++ {
		for id := uint64(1); id <= 4; id++ {
			if err := s.Put(cache.Object{ID: id, Size: 100, Version: v}, body100(id, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := uint64(1); id <= 4; id++ {
		wantBody(t, s, id, 200)
		wantBody(t, s, id+99, 1)
	}
	st := s.StatsSnapshot()
	if live := int64(8 * rec100); st.UsedBytes > 2*live+2*s.segSize {
		t.Errorf("UsedBytes = %d for %d live bytes: dead records are not reclaimed", st.UsedBytes, live)
	}
	if n := len(segFiles(t, s.dir)); int64(n)*s.segSize > st.UsedBytes+s.segSize {
		t.Errorf("%d segment files for %d used bytes", n, st.UsedBytes)
	}
	s2, rec := reopen(t, s, Options{})
	if rec.Objects != 8 {
		t.Errorf("recovered %d objects, want 8", rec.Objects)
	}
	wantBody(t, s2, 3, 200)
	wantBody(t, s2, 102, 1)
}

// TestStoreLogOpenClearsOldLayout: the file-per-object tree of earlier
// versions is removed, and a closed store misses and refuses.
func TestStoreLogOpenClearsOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "objects", "ab")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(old, "ab00000000000000"), []byte("x"), 0o644)
	s := openDir(t, dir, Options{})
	if _, err := os.Stat(filepath.Join(dir, "objects")); !os.IsNotExist(err) {
		t.Error("objects/ tree survived Open")
	}
	putRange(t, s, 1, 1)
	s.Close()
	if _, _, ok := s.Get(1); ok {
		t.Error("closed store served an object")
	}
	if err := s.Put(cache.Object{ID: 2, Size: 100, Version: 1}, body100(2, 1)); err == nil {
		t.Error("closed store accepted a Put")
	}
}

func TestSpillerWriteBehindAndCoalesce(t *testing.T) {
	s := openT(t, Options{})
	sp := NewSpiller(s, 64, nil)
	defer sp.Close()
	sp.Enqueue(cache.Object{ID: 1, Size: 2, Version: 1}, []byte("v1"))
	sp.Enqueue(cache.Object{ID: 1, Size: 2, Version: 2}, []byte("v2"))
	sp.Flush()
	obj, body, ok := s.Get(1)
	if !ok || obj.Version < 1 || string(body) == "" {
		t.Fatalf("spilled object missing: %+v %q %v", obj, body, ok)
	}
	st := sp.StatsSnapshot()
	if st.Depth != 0 {
		t.Errorf("Depth = %d after Flush, want 0", st.Depth)
	}
	if st.Spilled+st.Coalesced < 2 {
		t.Errorf("stats = %+v: want enqueue accounted as spill or coalesce", st)
	}
}

func TestSpillerDropOldestFiresCallback(t *testing.T) {
	s := openT(t, Options{})
	// Stall the worker by holding the append lock so the queue backs up.
	s.wmu.Lock()
	var mu sync.Mutex
	var dropped []uint64
	sp := NewSpiller(s, 2, func(o cache.Object) {
		mu.Lock()
		dropped = append(dropped, o.ID)
		mu.Unlock()
	})
	// Give the worker a moment to pull item 1 into flight (it will block
	// on the append lock), then overflow the bound.
	sp.Enqueue(cache.Object{ID: 1, Size: 1, Version: 1}, []byte("a"))
	time.Sleep(20 * time.Millisecond)
	sp.Enqueue(cache.Object{ID: 2, Size: 1, Version: 1}, []byte("b"))
	sp.Enqueue(cache.Object{ID: 3, Size: 1, Version: 1}, []byte("c"))
	sp.Enqueue(cache.Object{ID: 4, Size: 1, Version: 1}, []byte("d")) // drops 2
	s.wmu.Unlock()
	sp.Flush()
	sp.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Fatalf("dropped = %v, want [2] (oldest queued)", dropped)
	}
	if sp.StatsSnapshot().Drops != 1 {
		t.Errorf("Drops = %d, want 1", sp.StatsSnapshot().Drops)
	}
	// Everything not dropped made it to disk.
	for _, id := range []uint64{1, 3, 4} {
		if !s.Contains(id) {
			t.Errorf("object %d missing from disk", id)
		}
	}
}

func TestSpillerPeekCoversInFlightWindow(t *testing.T) {
	s := openT(t, Options{})
	s.wmu.Lock() // stall the worker
	sp := NewSpiller(s, 8, nil)
	sp.Enqueue(cache.Object{ID: 1, Size: 1, Version: 1}, []byte("a"))
	sp.Enqueue(cache.Object{ID: 2, Size: 1, Version: 3}, []byte("b"))
	if _, body, ok := sp.peek(2); !ok || string(body) != "b" {
		t.Errorf("peek(2) = %q %v, want queued copy", body, ok)
	}
	if sp.Discard(2) != true {
		t.Error("Discard missed a queued item")
	}
	if _, _, ok := sp.peek(2); ok {
		t.Error("discarded item still visible")
	}
	s.wmu.Unlock()
	sp.Close()
	if s.Contains(2) {
		t.Error("discarded item reached disk anyway")
	}
}

func TestTierSpillPromoteDiscard(t *testing.T) {
	mem := cache.NewSharded(1, 100)
	disk := openT(t, Options{})
	var dropped []uint64
	tier := NewTier(mem, disk, 64, func(o cache.Object) { dropped = append(dropped, o.ID) })
	defer tier.Close()
	mem.OnEvict(func(o cache.Object, body []byte) { tier.Spill(o, body) })

	// Fill past memory capacity: evictions spill to disk.
	bigBody := bytes.Repeat([]byte("m"), 60)
	mem.Put(cache.Object{ID: 1, Size: 60, Version: 1}, bigBody)
	mem.Put(cache.Object{ID: 2, Size: 60, Version: 1}, bigBody) // evicts 1
	tier.Flush()
	if !disk.Contains(1) {
		t.Fatal("evicted object did not reach disk")
	}
	if len(dropped) != 0 {
		t.Fatalf("spill path fired drop callback: %v", dropped)
	}

	// Disk hit promotes back into memory (evicting 2, which spills).
	obj, body, ok := tier.Get(1)
	if !ok || obj.ID != 1 || !bytes.Equal(body, bigBody) {
		t.Fatalf("tier.Get(1) = %+v %v", obj, ok)
	}
	if _, _, ok := mem.Get(1); !ok {
		t.Error("disk hit not promoted into memory")
	}
	if tier.Promotions() != 1 {
		t.Errorf("Promotions = %d, want 1", tier.Promotions())
	}
	tier.Flush()
	if !tier.Contains(2) {
		t.Error("object displaced by promotion lost")
	}

	// Discard removes from both layers silently.
	if !tier.Discard(1) {
		t.Error("Discard(1) missed")
	}
	if tier.Contains(1) {
		t.Error("object survives Discard")
	}
	if len(dropped) != 0 {
		t.Errorf("Discard fired drop callback: %v", dropped)
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	s := openT(b, Options{})
	body := bytes.Repeat([]byte("payload-"), 512) // 4 KiB
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i%1024 + 1)
		if err := s.Put(cache.Object{ID: id, Size: int64(len(body)), Version: int64(i + 1)}, body); err != nil {
			b.Fatal(err)
		}
		if _, _, ok := s.Get(id); !ok {
			b.Fatal("miss on just-written object")
		}
	}
}

// BenchmarkStoreGet is the read alone, on 16 KiB records: one copy out of
// the mapping and its verification, one allocation.
func BenchmarkStoreGet(b *testing.B) {
	s := openT(b, Options{})
	body := bytes.Repeat([]byte("payload-"), 2048) // 16 KiB
	const n = 1024
	for id := uint64(1); id <= n; id++ {
		if err := s.Put(cache.Object{ID: id, Size: int64(len(body)), Version: 1}, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Get(uint64(i%n + 1)); !ok {
			b.Fatal("miss on a stored object")
		}
	}
}

func BenchmarkRecoveryScan(b *testing.B) {
	dir := b.TempDir()
	s, _ := Open(dir, Options{})
	body := bytes.Repeat([]byte("r"), 1024)
	const n = 1000
	for i := 1; i <= n; i++ {
		s.Put(cache.Object{ID: uint64(i), Size: int64(len(body)), Version: 1}, body)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s2, _ := Open(dir, Options{})
		st := s2.Recover(8, nil)
		if st.Objects != n {
			b.Fatalf("recovered %d, want %d", st.Objects, n)
		}
	}
	b.ReportMetric(float64(n), "objects/op")
}

// tierModel drives a Tier the way a node does — memory first, then the
// spill queue and disk — next to a map of what must be resident. The gate
// is the disk store's append lock: while the test holds it, nothing can be
// written, so every write-behind item stays "being written".
type tierModel struct {
	t     *testing.T
	mem   *cache.Sharded
	disk  *Store
	tier  *Tier
	gated bool
	ref   map[uint64]int64 // id -> version that must be locally servable
}

func newTierModel(t *testing.T) *tierModel {
	m := &tierModel{t: t, ref: make(map[uint64]int64)}
	m.boot(t.TempDir())
	t.Cleanup(func() {
		m.openGate()
		m.tier.Close()
	})
	return m
}

// boot builds the tiers over dir. Segments hold four records, so the
// traffic keeps sealing, emptying and compacting them.
func (m *tierModel) boot(dir string) {
	m.mem = cache.NewSharded(1, 3*16) // three 16-byte objects
	disk, err := Open(dir, Options{}) // closed by tier.Close
	if err != nil {
		m.t.Fatal(err)
	}
	m.disk = disk
	m.disk.segSize = 4 * (headerLen + 16)
	// Eight objects never fill a 64-item queue or an unbounded disk, so
	// nothing is dropped involuntarily: only purges end residency here.
	m.tier = NewTier(m.mem, m.disk, 64, func(o cache.Object) {
		m.t.Errorf("object %d v%d dropped from both tiers", o.ID, o.Version)
	})
	m.mem.OnEvict(func(o cache.Object, body []byte) { m.tier.Spill(o, body) })
}

// restart is a drained shutdown and a boot over the same directory: memory
// is written out first (a node's memory is lost with it; the model's is
// not), so afterwards the disk alone must hold every resident object at its
// newest version and no purged one.
func (m *tierModel) restart() {
	m.openGate()
	for id := range m.ref {
		if obj, body, ok := m.mem.Get(id); ok {
			m.tier.Spill(obj, body)
		}
	}
	m.tier.Close()
	m.boot(m.disk.dir)
	m.tier.Recover(2, nil)
}

func modelBody(id uint64, version int64) []byte {
	return []byte(fmt.Sprintf("%07d:%08d", id, version)) // 16 bytes
}

func (m *tierModel) closeGate() {
	if !m.gated {
		m.disk.wmu.Lock()
		m.gated = true
		// Let the worker reach the gate with whatever is at the front. No
		// assertion depends on it having got there; it only makes the
		// mid-write interleavings the common case.
		time.Sleep(2 * time.Millisecond)
	}
}

func (m *tierModel) openGate() {
	if m.gated {
		m.disk.wmu.Unlock()
		m.gated = false
	}
}

func (m *tierModel) put(id uint64, version int64) {
	m.ref[id] = version
	m.mem.Put(cache.Object{ID: id, Size: 16, Version: version}, modelBody(id, version))
}

// purge is the node's purge path: out of memory, then out of the tier.
func (m *tierModel) purge(id uint64) {
	delete(m.ref, id)
	m.mem.Discard(id)
	if m.gated {
		// The disk half of Tier.Discard appends a tombstone, which needs
		// the lock the gate holds. The worker may get one step further
		// meanwhile; that is one more interleaving, not a hole in the gate.
		m.disk.wmu.Unlock()
		defer m.disk.wmu.Lock()
	}
	m.tier.Discard(id)
}

// lookup is the node's local probe. Behind a closed gate the disk index is
// consulted without reading the record, and nothing is promoted.
func (m *tierModel) lookup(id uint64) (int64, []byte, bool) {
	if obj, body, ok := m.mem.Get(id); ok {
		return obj.Version, body, true
	}
	if !m.gated {
		obj, body, ok := m.tier.Get(id)
		return obj.Version, body, ok
	}
	if obj, body, ok := m.tier.sp.peek(id); ok {
		return obj.Version, body, true
	}
	m.disk.mu.Lock()
	e, ok := m.disk.index[id]
	m.disk.mu.Unlock()
	return e.obj.Version, nil, ok
}

// check asserts resident-until-purged for one id: what the model holds is
// servable at exactly that version, and what was purged is gone.
func (m *tierModel) check(step int, id uint64) {
	m.t.Helper()
	want, resident := m.ref[id]
	got, body, ok := m.lookup(id)
	switch {
	case resident && !ok:
		m.t.Fatalf("step %d: object %d v%d is in neither memory, the spill queue nor the disk index (gate closed: %v)", step, id, want, m.gated)
	case resident && got != want:
		m.t.Fatalf("step %d: object %d served at v%d, want v%d", step, id, got, want)
	case resident && body != nil && !bytes.Equal(body, modelBody(id, want)):
		m.t.Fatalf("step %d: object %d v%d body = %q", step, id, want, body)
	case !resident && ok:
		m.t.Fatalf("step %d: purged object %d reappeared at v%d", step, id, got)
	}
}

// TestTierModelResidentUntilDropped runs random put / purge / re-put
// traffic over eight objects and three memory slots, opening and
// closing the write gate and restarting the tier as it goes, and checks
// every object against the model after every step: resident means servable
// — at the model's version, never an older one — until dropped or purged,
// through the write-behind window and across restarts included.
func TestTierModelResidentUntilDropped(t *testing.T) {
	const ids = 8
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTierModel(t)
		version := int64(0)
		for step := 0; step < 400; step++ {
			id := uint64(rng.Intn(ids))
			switch r := rng.Intn(32); {
			case r < 20:
				version++
				m.put(id, version)
			case r < 26:
				m.purge(id)
			case r < 28:
				m.closeGate()
			case r == 28:
				m.restart()
			default:
				m.openGate()
				if r == 31 {
					m.tier.Flush()
				}
			}
			// With the gate open these lookups promote, so every step
			// also shuffles memory and re-evicts.
			for id := uint64(0); id < ids; id++ {
				m.check(step, id)
			}
		}
		m.openGate()
		m.tier.Flush()
		for id := uint64(0); id < ids; id++ {
			m.check(-1, id)
			if _, resident := m.ref[id]; !resident && m.tier.Contains(id) {
				t.Fatalf("seed %d: purged object %d is on disk after the queue drained", seed, id)
			}
		}
	}
}

// TestSpillerRacesDuringWrite pins the two interleavings with a write the
// gate holds open: a newer version evicted meanwhile must be the one on
// disk afterwards, and a purge meanwhile must leave nothing on disk.
func TestSpillerRacesDuringWrite(t *testing.T) {
	t.Run("re-enqueue", func(t *testing.T) {
		m := newTierModel(t)
		m.closeGate()
		m.tier.Spill(cache.Object{ID: 1, Size: 16, Version: 1}, modelBody(1, 1))
		time.Sleep(5 * time.Millisecond) // worker is in Put(v1), at the gate
		m.tier.Spill(cache.Object{ID: 1, Size: 16, Version: 2}, modelBody(1, 2))
		if obj, _, ok := m.tier.sp.peek(1); !ok || obj.Version != 2 {
			t.Fatalf("peek during the write = v%d %v, want v2", obj.Version, ok)
		}
		m.openGate()
		m.tier.Flush()
		obj, body, ok := m.disk.Get(1)
		if !ok || obj.Version != 2 || !bytes.Equal(body, modelBody(1, 2)) {
			t.Fatalf("disk holds v%d %q %v after the write, want v2", obj.Version, body, ok)
		}
	})
	t.Run("discard", func(t *testing.T) {
		m := newTierModel(t)
		m.closeGate()
		m.tier.Spill(cache.Object{ID: 1, Size: 16, Version: 1}, modelBody(1, 1))
		time.Sleep(5 * time.Millisecond) // worker is in Put(v1), at the gate
		m.purge(1)
		if _, _, ok := m.lookup(1); ok {
			t.Fatal("purged object still visible during its write")
		}
		m.openGate()
		m.tier.Flush()
		if m.tier.Contains(1) {
			t.Fatal("purged object is on disk after its write completed")
		}
		if st := m.tier.SpillStats(); st.Depth != 0 {
			t.Fatalf("Depth = %d after Flush, want 0", st.Depth)
		}
	})
}

// TestStoreLogSecondChance: what was read back into memory since it was
// written is written again when evicted from there while its record lies in
// the segment about to be retired, and so outlives the objects beside it
// that nobody read.
func TestStoreLogSecondChance(t *testing.T) {
	mem := cache.NewSharded(1, 2*100) // two objects
	disk := openT(t, Options{Capacity: 4 * 4 * rec100})
	disk.segSize = 4 * rec100
	var mu sync.Mutex
	var dropped []uint64
	tier := NewTier(mem, disk, 64, func(o cache.Object) {
		mu.Lock()
		dropped = append(dropped, o.ID)
		mu.Unlock()
	})
	defer tier.Close()
	mem.OnEvict(func(o cache.Object, body []byte) { tier.Spill(o, body) })
	putRange(t, disk, 1, 16) // four full segments: the disk is at capacity

	// Read 1 and 2 from the oldest segment, then push them out of memory.
	// The gate holds the writes back so that both are queued before either
	// write retires the segment.
	for _, id := range []uint64{1, 2, 13, 14} {
		if id == 13 {
			disk.wmu.Lock()
		}
		if _, _, ok := tier.Get(id); !ok {
			t.Fatalf("tier.Get(%d) missed", id)
		}
	}
	disk.wmu.Unlock()
	tier.Flush()

	mu.Lock()
	defer mu.Unlock()
	slices.Sort(dropped)
	if !slices.Equal(dropped, []uint64{3, 4}) {
		t.Fatalf("dropped = %v, want [3 4]: the unread half of the oldest segment", dropped)
	}
	for _, id := range []uint64{1, 2} {
		if !disk.Contains(id) {
			t.Errorf("object %d, read since it was written, was retired with its segment", id)
		}
	}
	if st := disk.StatsSnapshot(); st.Puts != 16+2 || st.UsedBytes > st.Capacity {
		t.Errorf("stats = %+v, want 18 puts within capacity", st)
	}
}

// TestStoreLogReadOnlyLoopAppendsNothing: reading a resident population
// below capacity promotes and re-evicts all the time and writes nothing.
func TestStoreLogReadOnlyLoopAppendsNothing(t *testing.T) {
	mem := cache.NewSharded(1, 4*100)
	disk := openT(t, Options{Capacity: 1 << 30})
	tier := NewTier(mem, disk, 64, func(o cache.Object) { t.Errorf("object %d dropped", o.ID) })
	defer tier.Close()
	mem.OnEvict(func(o cache.Object, body []byte) { tier.Spill(o, body) })
	const n = 32
	for id := uint64(1); id <= n; id++ {
		mem.Put(cache.Object{ID: id, Size: 100, Version: 1}, body100(id, 1))
	}
	for id := uint64(1); id <= n; id++ { // everything through memory once more: all of it on disk
		if _, _, ok := mem.Get(id); !ok {
			if _, _, ok := tier.Get(id); !ok {
				t.Fatalf("object %d lost during the fill", id)
			}
		}
	}
	tier.Flush()
	before, spilled := disk.StatsSnapshot(), tier.SpillStats().Spilled
	if before.Objects != n {
		t.Fatalf("%d objects on disk after the fill, want %d", before.Objects, n)
	}
	for round := 0; round < 10; round++ {
		for id := uint64(1); id <= n; id++ {
			if _, _, ok := mem.Get(id); ok {
				continue
			}
			if _, b, ok := tier.Get(id); !ok || !bytes.Equal(b, body100(id, 1)) {
				t.Fatalf("round %d: tier.Get(%d) = %q %v", round, id, b, ok)
			}
		}
	}
	tier.Flush()
	after := disk.StatsSnapshot()
	if after.UsedBytes != before.UsedBytes || after.Puts != before.Puts {
		t.Errorf("a read-only loop appended: %d -> %d bytes, %d -> %d puts",
			before.UsedBytes, after.UsedBytes, before.Puts, after.Puts)
	}
	if got := tier.SpillStats().Spilled; got != spilled {
		t.Errorf("Spilled = %d -> %d over a loop that wrote nothing", spilled, got)
	}
	if after.PutSkipped <= before.PutSkipped {
		t.Errorf("PutSkipped = %d: the no-op evictions were not counted", after.PutSkipped)
	}
}

// TestStoreLogHeaderBitFlip: a flipped bit in a header is caught by the
// header checksum, on read and — where nothing else vouches for a record —
// by the recovery walk, which ends there rather than index a wrong version.
func TestStoreLogHeaderBitFlip(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 3)
	path, off, _ := place(t, s, 2)
	patch(t, s, 2, func(raw []byte) { raw[16] ^= 0x04 }) // version 1 -> 5
	if _, _, ok := s.Get(2); ok {
		t.Fatal("record with a corrupt header was served")
	}
	// Undo the condemnation's tombstone so that recovery meets the header
	// with nothing else against it.
	if err := os.Truncate(path, off+2*rec100); err != nil {
		t.Fatal(err)
	}
	s2, st := reopen(t, s, Options{})
	if st.Objects != 1 || st.Quarantined != 1 {
		t.Errorf("recover stats = %+v, want object 1 and a walk ended at record 2", st)
	}
	if obj, _, ok := s2.Get(2); ok {
		t.Fatalf("recovery indexed the corrupt header: served v%d", obj.Version)
	}
	wantBody(t, s2, 1, 1)
}

// TestStoreLogRecoverBehindTraffic: what a run writes or purges before its
// recovery scan gets there is newer than anything the scan finds.
func TestStoreLogRecoverBehindTraffic(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 3)
	s.Close()
	s2 := openDir(t, s.dir, Options{})
	s2.Put(cache.Object{ID: 1, Size: 100, Version: 2}, body100(1, 2))
	if s2.Remove(2) {
		t.Fatal("Remove found an object the scan has not reached yet")
	}
	var published []uint64
	st := s2.Recover(2, func(o cache.Object) { published = append(published, o.ID) })
	if st.Objects != 1 || !slices.Equal(published, []uint64{3}) {
		t.Errorf("recovered %+v, published %v; want object 3 alone", st, published)
	}
	wantBody(t, s2, 1, 2)
	wantBody(t, s2, 3, 1)
	if s2.Contains(2) {
		t.Error("an object purged before the scan reached it came back")
	}
	s3, st := reopen(t, s2, Options{})
	if st.Objects != 2 || s3.Contains(2) {
		t.Errorf("second restart recovered %+v, Contains(2) = %v; want objects 1 and 3", st, s3.Contains(2))
	}
	wantBody(t, s3, 1, 2)
}

// TestStoreLogSecondChanceKeepsWhatItMoves: a record written again from the
// segment about to go is committed before that segment is retired, so the
// object is neither dropped nor announced with its old neighbours.
func TestStoreLogSecondChanceKeepsWhatItMoves(t *testing.T) {
	s := openT(t, Options{Capacity: 4 * 2 * rec100})
	s.segSize = 2 * rec100
	var dropped []uint64
	s.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	putRange(t, s, 1, 8) // at capacity: the next roll retires [1 2]
	putRange(t, s, 1, 1) // same version again: not skipped
	if !slices.Equal(dropped, []uint64{2}) {
		t.Fatalf("dropped = %v, want [2]", dropped)
	}
	wantBody(t, s, 1, 1)
	if st := s.StatsSnapshot(); st.Puts != 9 || st.PutSkipped != 0 || st.Objects != 7 {
		t.Errorf("stats = %+v, want 9 puts, none skipped, 7 objects", st)
	}
	putRange(t, s, 8, 8) // same version, nowhere near retirement: skipped
	if st := s.StatsSnapshot(); st.Puts != 9 || st.PutSkipped != 1 {
		t.Errorf("stats = %+v, want the re-put of a safe record skipped", st)
	}
}

// TestStoreLogRecoverIsAtomic: a previous run left seg1 {1 v1, 5 v8, 2 v1}
// and seg2 {5 v9, tombstone(1)}. Traffic that arrives while the scan is under way
// — here from the publish callback, and from a goroutine hammering the store
// throughout — never sees the purged object or the older version, and a write
// that compacts seg1 meanwhile cannot carry its dead records past the records
// that voided them, in this run or after the next restart.
func TestStoreLogRecoverIsAtomic(t *testing.T) {
	s := openT(t, Options{})
	s.segSize = 3 * rec100
	putRange(t, s, 1, 1)
	s.Put(cache.Object{ID: 5, Size: 100, Version: 8}, body100(5, 8))
	putRange(t, s, 2, 2) // keeps seg1 alive
	s.Put(cache.Object{ID: 5, Size: 100, Version: 9}, body100(5, 9))
	s.Remove(1)
	if len(segFiles(t, s.dir)) != 2 {
		t.Fatalf("%d segments, want 2", len(segFiles(t, s.dir)))
	}
	s.Close()

	s2 := openDir(t, s.dir, Options{})
	s2.segSize = 3 * rec100
	look := func(when string) {
		if obj, _, ok := s2.Get(1); ok {
			t.Errorf("%s: purged object 1 served at v%d", when, obj.Version)
		}
		if obj, _, ok := s2.Get(5); ok && obj.Version != 9 {
			t.Errorf("%s: object 5 served at v%d, want v9", when, obj.Version)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(100); ; id++ {
			select {
			case <-stop:
				return
			default:
				look("during the scan")
				s2.Put(cache.Object{ID: id, Size: 100, Version: 1}, body100(id, 1)) // rolls, so compacts
			}
		}
	}()
	var published []uint64
	s2.Recover(1, func(o cache.Object) {
		published = append(published, o.ID)
		look("from publish")
		putRange(t, s2, 50, 53)
	})
	close(stop)
	<-done
	if slices.Sort(published); !slices.Equal(published, []uint64{2, 5}) {
		t.Errorf("published %v, want objects 2 and 5, once each", published)
	}
	look("after recovery")
	wantBody(t, s2, 5, 9)
	s3, _ := reopen(t, s2, Options{})
	if s3.Contains(1) {
		t.Error("purged object 1 came back at the second restart")
	}
	wantBody(t, s3, 5, 9)
}

// TestStoreLogSmallCapacityBounded: with the segment size the store derives
// for itself, the footprint stays within a capacity far below the 1 MiB
// floor, and an object that could never fit is refused rather than kept.
func TestStoreLogSmallCapacityBounded(t *testing.T) {
	s := openT(t, Options{Capacity: 64 << 10})
	body := bytes.Repeat([]byte("x"), 1<<10)
	for id := uint64(1); id <= 500; id++ {
		if err := s.Put(cache.Object{ID: id, Size: int64(len(body)), Version: 1}, body); err != nil {
			t.Fatal(err)
		}
		if st := s.StatsSnapshot(); st.UsedBytes > st.Capacity {
			t.Fatalf("after %d puts: UsedBytes = %d exceeds the capacity %d", id, st.UsedBytes, st.Capacity)
		}
	}
	if st := s.StatsSnapshot(); st.Evictions == 0 || st.Objects < 16 {
		t.Errorf("stats = %+v, want retirements and at least a quarter of the capacity in use", st)
	}
	big := make([]byte, 64<<10)
	if err := s.Put(cache.Object{ID: 999, Size: int64(len(big)), Version: 1}, big); err == nil {
		t.Error("an object larger than the capacity was accepted")
	}
}

// TestStoreLogTornTailCountedOnce: the walk cuts a torn tail off, so a second
// restart finds a clean segment; and a segment that cannot be opened is
// counted and deleted, not left on disk uncharged.
func TestStoreLogTornTailCountedOnce(t *testing.T) {
	s := openT(t, Options{})
	putRange(t, s, 1, 3)
	path, off, _ := place(t, s, 3)
	if err := os.Truncate(path, off+headerLen+40); err != nil {
		t.Fatal(err)
	}
	unopenable := s.segPath(77)
	if err := os.Mkdir(unopenable, 0o755); err != nil {
		t.Fatal(err)
	}
	s2, st := reopen(t, s, Options{})
	if st.Objects != 2 || st.Quarantined != 2 || st.SegmentsRemoved != 1 {
		t.Errorf("first restart: %+v, want 2 objects, the torn and the unopenable segment counted, the latter removed", st)
	}
	if _, err := os.Stat(unopenable); !os.IsNotExist(err) {
		t.Error("the unopenable segment is still on disk")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != off || s2.StatsSnapshot().UsedBytes != off {
		t.Errorf("torn segment not cut back to %d bytes: %v, used %d", off, fi, s2.StatsSnapshot().UsedBytes)
	}
	s3, st := reopen(t, s2, Options{})
	if st.Objects != 2 || st.Quarantined != 0 || s3.StatsSnapshot().VerifyFailures != 0 {
		t.Errorf("second restart: %+v with %d verify failures, want the same 2 objects and no new failure",
			st, s3.StatsSnapshot().VerifyFailures)
	}
	wantBody(t, s3, 1, 1)
	wantBody(t, s3, 2, 1)
}

// TestStoreLogTruncatedUnderMapping: a segment file cut short under its
// mapping faults the copy out of it. Each read fails and is counted like a
// corrupt record; nothing is served and the process survives.
func TestStoreLogTruncatedUnderMapping(t *testing.T) {
	s := openT(t, Options{})
	const n = 200
	putRange(t, s, 1, n)
	path, _, _ := place(t, s, 1)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= n; id++ {
		if obj, b, ok := s.Get(id); ok {
			t.Fatalf("Get(%d) served v%d %q from a truncated segment", id, obj.Version, b)
		}
	}
	if st := s.StatsSnapshot(); st.VerifyFailures != n || st.Objects != 0 {
		t.Errorf("stats = %+v, want %d verify failures and nothing indexed", st, n)
	}
}

// mappedUnder lists the files under dir that the process has mapped.
func mappedUnder(t *testing.T, dir string) []string {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, line := range strings.Split(string(maps), "\n") {
		if i := strings.Index(line, dir+string(filepath.Separator)); i >= 0 {
			files = append(files, strings.TrimSuffix(line[i:], " (deleted)"))
		}
	}
	return files
}

// TestStoreLogUnmapsWhatLeaves: a segment that leaves the log — emptied,
// retired at capacity, or closed with the store — is unmapped once no read
// is copying out of it, even with reads racing its departure.
func TestStoreLogUnmapsWhatLeaves(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := openDir(t, dir, Options{Capacity: 8 * 4 * rec100})
	s.segSize = 4 * rec100
	seen := map[string]bool{}
	note := func() {
		for _, f := range segFiles(t, dir) {
			seen[f] = true
		}
	}
	const ids = 64 // twice what the capacity holds: constant retirement
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(rng.Intn(ids))
				if obj, b, ok := s.Get(id); ok && !bytes.Equal(b, body100(id, obj.Version)) {
					t.Errorf("Get(%d) = v%d %q", id, obj.Version, b)
					return
				}
			}
		}(r)
	}
	// The first segment empties: every record in it is superseded.
	putRange(t, s, 1, 4)
	note()
	for id := uint64(1); id <= 4; id++ {
		s.Put(cache.Object{ID: id, Size: 100, Version: 2}, body100(id, 2))
	}
	note()
	first := s.segPath(1)
	if _, err := os.Stat(first); !os.IsNotExist(err) || s.StatsSnapshot().Evictions != 0 {
		t.Fatalf("the emptied first segment is still on disk (%v), or something was retired", err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 3; i <= 2000; i++ {
		id := uint64(rng.Intn(ids))
		if rng.Intn(8) == 0 {
			s.Remove(id)
		} else if err := s.Put(cache.Object{ID: id, Size: 100, Version: int64(i)}, body100(id, int64(i))); err != nil {
			t.Fatal(err)
		}
		note()
	}
	close(stop)
	wg.Wait()
	if s.StatsSnapshot().Evictions == 0 {
		t.Fatal("no segment was retired")
	}
	live := map[string]bool{}
	for _, f := range segFiles(t, dir) {
		live[f] = true
	}
	mapped := mappedUnder(t, dir)
	var stale []string
	for _, f := range mapped {
		if !live[f] {
			stale = append(stale, f)
		}
	}
	if len(stale) > 0 {
		t.Errorf("%d segments are still mapped after they left the log, first %s", len(stale), stale[0])
	}
	if !slices.Contains(mapped, s.segPath(s.nextSeq-1)) {
		t.Fatalf("the active segment %s is not among the mappings %v", s.segPath(s.nextSeq-1), mapped)
	}
	if removed := len(seen) - len(live); removed < 2 {
		t.Fatalf("only %d segments left the log", removed)
	}
	s.Close()
	if mapped := mappedUnder(t, dir); len(mapped) != 0 {
		t.Errorf("after Close, %d segments are still mapped, first %s", len(mapped), mapped[0])
	}
}
