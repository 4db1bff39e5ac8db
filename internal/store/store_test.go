package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/cache"
)

func openT(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
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
	// A genuinely newer version replaces the file in place.
	s.Put(cache.Object{ID: 1, Size: 2, Version: 9}, []byte("v9"))
	obj, body, _ = s.Get(1)
	if obj.Version != 9 || string(body) != "v9" {
		t.Errorf("upgrade not applied: %+v %q", obj, body)
	}
	if st := s.StatsSnapshot(); st.Objects != 1 {
		t.Errorf("Objects = %d after in-place upgrade, want 1", st.Objects)
	}
}

func TestStoreCompression(t *testing.T) {
	s := openT(t, Options{CompressMin: 64})
	big := bytes.Repeat([]byte("compressible "), 100)
	small := []byte("tiny")
	s.Put(cache.Object{ID: 1, Size: int64(len(big)), Version: 1}, big)
	s.Put(cache.Object{ID: 2, Size: int64(len(small)), Version: 1}, small)

	st := s.StatsSnapshot()
	if st.Compressed != 1 {
		t.Fatalf("Compressed = %d, want 1 (only the big body)", st.Compressed)
	}
	if st.UsedBytes >= int64(len(big)) {
		t.Errorf("UsedBytes = %d, want < %d (compression should shrink)", st.UsedBytes, len(big))
	}
	// Round-trips decompress to the original bytes.
	_, b, ok := s.Get(1)
	if !ok || !bytes.Equal(b, big) {
		t.Fatal("compressed body did not round-trip")
	}
	_, b, _ = s.Get(2)
	if !bytes.Equal(b, small) {
		t.Error("small body mangled")
	}
}

func TestStoreIncompressibleStoredRaw(t *testing.T) {
	s := openT(t, Options{CompressMin: 1})
	// High-entropy bytes that flate cannot shrink.
	body := make([]byte, 4096)
	x := uint32(2463534242)
	for i := range body {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		body[i] = byte(x)
	}
	s.Put(cache.Object{ID: 3, Size: int64(len(body)), Version: 1}, body)
	if st := s.StatsSnapshot(); st.Compressed != 0 {
		t.Errorf("Compressed = %d, want 0 for incompressible body", st.Compressed)
	}
	_, b, ok := s.Get(3)
	if !ok || !bytes.Equal(b, body) {
		t.Fatal("incompressible body did not round-trip")
	}
}

func TestStoreCapacityEvictsLRUAndFiresDrop(t *testing.T) {
	// Each object costs headerLen+10 bytes; capacity fits exactly two.
	s := openT(t, Options{Capacity: 2 * (headerLen + 10)})
	var dropped []uint64
	s.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	body := bytes.Repeat([]byte("x"), 10)
	for id := uint64(1); id <= 2; id++ {
		s.Put(cache.Object{ID: id, Size: 10, Version: 1}, body)
	}
	s.Get(1) // make 2 the LRU
	s.Put(cache.Object{ID: 3, Size: 10, Version: 1}, body)
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Fatalf("dropped = %v, want [2]", dropped)
	}
	if s.Contains(2) {
		t.Error("evicted object still indexed")
	}
	if _, err := os.Stat(s.pathFor(2)); !os.IsNotExist(err) {
		t.Error("evicted object's file still on disk")
	}
	if st := s.StatsSnapshot(); st.Evictions != 1 || st.Objects != 2 {
		t.Errorf("stats = %+v", st)
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
// bit in the body means the object is never served — the file moves to
// quarantine, the index entry drops, and the drop callback advertises the
// departure.
func TestStoreCorruptBodyQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dropped []uint64
	s.OnDrop(func(o cache.Object) { dropped = append(dropped, o.ID) })
	body := []byte("pristine content")
	s.Put(cache.Object{ID: 77, Size: int64(len(body)), Version: 1}, body)

	// Flip one body bit on disk.
	path := s.pathFor(77)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerLen] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := s.Get(77); ok {
		t.Fatal("corrupt object was served")
	}
	if st := s.StatsSnapshot(); st.VerifyFailures != 1 || st.Objects != 0 {
		t.Errorf("stats = %+v, want 1 verify failure and empty index", st)
	}
	if len(dropped) != 1 || dropped[0] != 77 {
		t.Errorf("dropped = %v, want [77]", dropped)
	}
	quar, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(quar) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(quar))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file still in objects/")
	}
	// A subsequent Get is a clean miss, not another quarantine.
	if _, _, ok := s.Get(77); ok {
		t.Error("quarantined object resurrected")
	}
}

// TestRecoverCrashMidWrite simulates a node killed between the tmp write
// and the rename: the orphaned tmp file must be removed by recovery and
// never indexed.
func TestRecoverCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	s.Put(cache.Object{ID: 1, Size: 4, Version: 1}, []byte("keep"))

	// A crash mid-write leaves a half-written tmp file behind.
	orphan := filepath.Join(dir, "tmp", "put-999.tmp")
	if err := os.WriteFile(orphan, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh Store over the same dir.
	s2, _ := Open(dir, Options{})
	var recovered []uint64
	st := s2.Recover(4, func(o cache.Object) { recovered = append(recovered, o.ID) })
	if st.TmpRemoved != 1 {
		t.Errorf("TmpRemoved = %d, want 1", st.TmpRemoved)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned tmp file survived recovery")
	}
	if st.Objects != 1 || len(recovered) != 1 || recovered[0] != 1 {
		t.Errorf("recovered %d objects (%v), want just object 1", st.Objects, recovered)
	}
	_, b, ok := s2.Get(1)
	if !ok || string(b) != "keep" {
		t.Error("surviving object lost in recovery")
	}
}

// TestRecoverTruncatedFileQuarantined: a torn object file (full header,
// truncated body — e.g. power cut before the data blocks hit disk) must
// never be served. Uncompressed files are caught at scan time by the length
// check; either way the partial object is quarantined, not indexed.
func TestRecoverTruncatedFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	body := bytes.Repeat([]byte("d"), 1000)
	s.Put(cache.Object{ID: 9, Size: 1000, Version: 1}, body)

	path := s.pathFor(9)
	if err := os.Truncate(path, headerLen+100); err != nil {
		t.Fatal(err)
	}

	s2, _ := Open(dir, Options{})
	st := s2.Recover(2, nil)
	if st.Objects != 0 || st.Quarantined != 1 {
		t.Fatalf("recover stats = %+v, want 0 objects, 1 quarantined", st)
	}
	if _, _, ok := s2.Get(9); ok {
		t.Fatal("partial object served after recovery")
	}
	if got := s2.StatsSnapshot().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d, want 1", got)
	}
}

// TestRecoverTruncatedCompressedCaughtOnRead: compressed files can't be
// length-checked at scan time; verify-on-read must still refuse to serve.
func TestRecoverTruncatedCompressedCaughtOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{CompressMin: 1})
	body := bytes.Repeat([]byte("compressible "), 200)
	s.Put(cache.Object{ID: 4, Size: int64(len(body)), Version: 1}, body)
	path := s.pathFor(4)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	s2, _ := Open(dir, Options{CompressMin: 1})
	s2.Recover(2, nil)
	if _, _, ok := s2.Get(4); ok {
		t.Fatal("truncated compressed object served")
	}
	if got := s2.StatsSnapshot().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d, want 1", got)
	}
}

func TestRecoverGarbageFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	junk := filepath.Join(dir, "objects", "00", "0000000000000000")
	if err := os.WriteFile(junk, []byte("not an object file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := s.Recover(2, nil)
	if st.Objects != 0 || st.Quarantined != 1 {
		t.Fatalf("recover stats = %+v", st)
	}
}

func TestRecoverManyObjectsParallel(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	const n = 300
	for i := 1; i <= n; i++ {
		body := []byte(fmt.Sprintf("body-%d", i))
		s.Put(cache.Object{ID: uint64(i), Size: int64(len(body)), Version: int64(i)}, body)
	}

	s2, _ := Open(dir, Options{})
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

func TestRecoverShrunkCapacityTrims(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	body := bytes.Repeat([]byte("x"), 100)
	for i := 1; i <= 10; i++ {
		s.Put(cache.Object{ID: uint64(i), Size: 100, Version: 1}, body)
	}
	// Reopen with room for only ~3 objects.
	s2, _ := Open(dir, Options{Capacity: 3 * (headerLen + 100)})
	dropped := 0
	s2.OnDrop(func(cache.Object) { dropped++ })
	s2.Recover(4, nil)
	st := s2.StatsSnapshot()
	if st.UsedBytes > 3*(headerLen+100) {
		t.Errorf("UsedBytes = %d exceeds shrunk capacity", st.UsedBytes)
	}
	if dropped != 7 {
		t.Errorf("dropped %d objects, want 7", dropped)
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
	// Stall the worker by holding the store lock so the queue backs up.
	s.mu.Lock()
	var mu sync.Mutex
	var dropped []uint64
	sp := NewSpiller(s, 2, func(o cache.Object) {
		mu.Lock()
		dropped = append(dropped, o.ID)
		mu.Unlock()
	})
	// Give the worker a moment to pull item 1 into flight (it will block
	// on the store lock), then overflow the bound.
	sp.Enqueue(cache.Object{ID: 1, Size: 1, Version: 1}, []byte("a"))
	time.Sleep(20 * time.Millisecond)
	sp.Enqueue(cache.Object{ID: 2, Size: 1, Version: 1}, []byte("b"))
	sp.Enqueue(cache.Object{ID: 3, Size: 1, Version: 1}, []byte("c"))
	sp.Enqueue(cache.Object{ID: 4, Size: 1, Version: 1}, []byte("d")) // drops 2
	s.mu.Unlock()
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
	s.mu.Lock() // stall the worker
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
	s.mu.Unlock()
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
// is the disk store's own mutex: while the test holds it, Store.Put cannot
// commit, so every write-behind item stays "being written".
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
	m.mem = cache.NewSharded(1, 3*16) // three 16-byte objects
	m.disk = openT(t, Options{})
	// Eight objects never fill a 64-item queue or an unbounded disk, so
	// nothing is dropped involuntarily: only purges end residency here.
	m.tier = NewTier(m.mem, m.disk, 64, func(o cache.Object) {
		t.Errorf("object %d v%d dropped from both tiers", o.ID, o.Version)
	})
	m.mem.OnEvict(func(o cache.Object, body []byte) { m.tier.Spill(o, body) })
	t.Cleanup(func() {
		m.openGate()
		m.tier.Close()
	})
	return m
}

func modelBody(id uint64, version int64) []byte {
	return []byte(fmt.Sprintf("%07d:%08d", id, version)) // 16 bytes
}

func (m *tierModel) closeGate() {
	if !m.gated {
		m.disk.mu.Lock()
		m.gated = true
		// Let the worker reach the gate with whatever is at the front. No
		// assertion depends on it having got there; it only makes the
		// mid-write interleavings the common case.
		time.Sleep(2 * time.Millisecond)
	}
}

func (m *tierModel) openGate() {
	if m.gated {
		m.disk.mu.Unlock()
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
		// The disk half of Tier.Discard needs the mutex the gate holds.
		// The worker may get one step further meanwhile; that is one more
		// interleaving, not a hole in the gate.
		m.disk.mu.Unlock()
		defer m.disk.mu.Lock()
	}
	m.tier.Discard(id)
}

// lookup is the node's local probe. Behind a closed gate the disk index is
// read directly (the test holds its mutex) and nothing is promoted.
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
	if d, ok := m.disk.index[id]; ok {
		return d.obj.Version, nil, true
	}
	return 0, nil, false
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
// closing the write gate as it goes, and checks every object against the
// model after every step: resident means servable until dropped or purged,
// through the write-behind window included.
func TestTierModelResidentUntilDropped(t *testing.T) {
	const ids = 8
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTierModel(t)
		version := int64(0)
		for step := 0; step < 400; step++ {
			id := uint64(rng.Intn(ids))
			switch r := rng.Intn(16); {
			case r < 10:
				version++
				m.put(id, version)
			case r < 13:
				m.purge(id)
			case r < 14:
				m.closeGate()
			default:
				m.openGate()
				if r == 15 {
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
