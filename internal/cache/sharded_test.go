package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestShardedRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewSharded(tc.in, 0).Shards(); got != tc.want {
			t.Errorf("NewSharded(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewSharded(0, 0).Shards(); got < 8 {
		t.Errorf("default shard count = %d, want >= 8", got)
	}
}

// TestShardedDerivedCountKeepsShardFloor: a derived shard count never cuts a
// shard's slice below minShardBytes, so a small cache holds what its byte
// budget says it can however many cores the box has.
func TestShardedDerivedCountKeepsShardFloor(t *testing.T) {
	small := NewSharded(0, 6<<10)
	for id := uint64(1); id <= 6; id++ {
		if !small.Put(Object{ID: id, Size: 1 << 10, Version: 1}, nil) {
			t.Fatalf("6 KiB cache refused 1 KiB object %d", id)
		}
	}
	if got := small.Len(); got != 6 {
		t.Errorf("6 KiB cache over %d shard(s) holds %d of six 1 KiB objects", small.Shards(), got)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(32))
	wide := NewSharded(0, 1<<20)
	if got := wide.Shards(); got != 4 {
		t.Errorf("1 MiB at GOMAXPROCS=32: %d shards, want 4 of 256 KiB", got)
	}
	if !wide.Put(Object{ID: 1, Size: 64 << 10, Version: 1}, nil) {
		t.Error("1 MiB cache at GOMAXPROCS=32 cannot cache a 64 KiB object")
	}
	if got := NewSharded(0, 64<<20).Shards(); got != 64 {
		t.Errorf("64 MiB at GOMAXPROCS=32: %d shards, want the GOMAXPROCS-sized 64", got)
	}
	if got := NewSharded(0, 2<<20).Shards(); got != 8 {
		t.Errorf("2 MiB: %d shards, want 8 of exactly 256 KiB", got)
	}
}

func TestShardedPutGetRemove(t *testing.T) {
	s := NewSharded(4, 0)
	body := []byte("hello")
	if !s.Put(Object{ID: 1, Size: 5, Version: 1}, body) {
		t.Fatal("Put rejected")
	}
	obj, got, ok := s.Get(1)
	if !ok || obj.Version != 1 || string(got) != "hello" {
		t.Fatalf("Get = %+v %q %v", obj, got, ok)
	}
	if !s.Contains(1) || s.Len() != 1 || s.Used() != 5 {
		t.Errorf("Contains/Len/Used = %v/%d/%d", s.Contains(1), s.Len(), s.Used())
	}
	if !s.Remove(1) {
		t.Fatal("Remove missed")
	}
	if _, _, ok := s.Get(1); ok {
		t.Error("object survives Remove")
	}
	if s.Remove(1) {
		t.Error("second Remove reported success")
	}
}

func TestShardedPutNewerRefusesDowngrade(t *testing.T) {
	s := NewSharded(4, 0)
	s.Put(Object{ID: 7, Size: 2, Version: 3}, []byte("v3"))
	if !s.PutNewer(Object{ID: 7, Size: 2, Version: 1}, []byte("v1")) {
		t.Fatal("PutNewer returned false despite a newer cached copy")
	}
	obj, body, _ := s.Get(7)
	if obj.Version != 3 || string(body) != "v3" {
		t.Errorf("downgrade clobbered newer copy: %+v %q", obj, body)
	}
	if !s.PutNewer(Object{ID: 7, Size: 2, Version: 5}, []byte("v5")) {
		t.Fatal("PutNewer rejected upgrade")
	}
	obj, body, _ = s.Get(7)
	if obj.Version != 5 || string(body) != "v5" {
		t.Errorf("upgrade not applied: %+v %q", obj, body)
	}
}

func TestShardedEvictionDropsBodyAndFiresCallback(t *testing.T) {
	// One shard so capacity pressure is deterministic.
	s := NewSharded(1, 10)
	var evicted []uint64
	var bodies []string
	s.OnEvict(func(o Object, body []byte) {
		evicted = append(evicted, o.ID)
		bodies = append(bodies, string(body))
	})
	s.Put(Object{ID: 1, Size: 6, Version: 1}, []byte("aaaaaa"))
	s.Put(Object{ID: 2, Size: 6, Version: 1}, []byte("bbbbbb"))
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}
	if bodies[0] != "aaaaaa" {
		t.Errorf("evicted body = %q, want the object's body", bodies[0])
	}
	if _, _, ok := s.Get(1); ok {
		t.Error("evicted object still served")
	}
	st := s.Stats()
	if st.Inserts != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestShardedEvictionCallbackRunsOutsideShardLock pins the write-behind
// contract: the eviction callback fires with no shard lock held, so it may
// block (a spill-queue enqueue) or call back into the cache. Before the
// fix this deadlocked — sync.Mutex is not reentrant — because the callback
// ran inside the evicting shard's critical section.
func TestShardedEvictionCallbackRunsOutsideShardLock(t *testing.T) {
	s := NewSharded(1, 10)
	reentered := 0
	s.OnEvict(func(o Object, body []byte) {
		// Call back into the evicted object's own shard (1 shard = the
		// same lock the eviction was triggered under).
		if s.Contains(o.ID) {
			t.Errorf("evicted object %d still present during callback", o.ID)
		}
		s.Peek(o.ID)
		reentered++
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Put(Object{ID: 1, Size: 6, Version: 1}, []byte("aaaaaa"))
		s.Put(Object{ID: 2, Size: 6, Version: 1}, []byte("bbbbbb")) // evicts 1
		s.Remove(2)                                                 // explicit removal fires too
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("eviction callback deadlocked: still running under the shard lock")
	}
	if reentered != 2 {
		t.Errorf("callback fired %d times, want 2", reentered)
	}
}

// TestShardedDiscardSkipsCallback pins the purge seam: Discard removes the
// object and its body without firing the eviction callback.
func TestShardedDiscardSkipsCallback(t *testing.T) {
	s := NewSharded(4, 0)
	fired := false
	s.OnEvict(func(Object, []byte) { fired = true })
	s.Put(Object{ID: 9, Size: 3, Version: 1}, []byte("xyz"))
	if !s.Discard(9) {
		t.Fatal("Discard missed a present object")
	}
	if fired {
		t.Error("Discard fired the eviction callback")
	}
	if s.Contains(9) {
		t.Error("object survives Discard")
	}
	if s.Discard(9) {
		t.Error("second Discard reported success")
	}
}

func TestShardedCapacitySplitsAcrossShards(t *testing.T) {
	s := NewSharded(4, 4096)
	if got := s.Capacity(); got != 4096 {
		t.Errorf("Capacity = %d, want 4096", got)
	}
	if got := NewSharded(4, 0).Capacity(); got != 0 {
		t.Errorf("unbounded Capacity = %d, want 0", got)
	}
}

func TestShardedObjectsSnapshot(t *testing.T) {
	s := NewSharded(8, 0)
	for i := uint64(1); i <= 20; i++ {
		s.Put(Object{ID: i, Size: 1, Version: 1}, nil)
	}
	objs := s.Objects()
	if len(objs) != 20 {
		t.Fatalf("snapshot has %d objects, want 20", len(objs))
	}
	seen := map[uint64]bool{}
	for _, o := range objs {
		seen[o.ID] = true
	}
	for i := uint64(1); i <= 20; i++ {
		if !seen[i] {
			t.Errorf("object %d missing from snapshot", i)
		}
	}
}

// TestShardedConcurrentMixedOps is the -race workout: readers, writers, and
// removers hammering overlapping IDs.
func TestShardedConcurrentMixedOps(t *testing.T) {
	s := NewSharded(8, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := uint64(i % 64)
				switch (w + i) % 3 {
				case 0:
					s.Put(Object{ID: id, Size: 100, Version: int64(i)}, []byte(fmt.Sprintf("b%d", i)))
				case 1:
					if obj, body, ok := s.Get(id); ok && body == nil && obj.Size != 0 {
						t.Errorf("object %d served without body", id)
					}
				case 2:
					s.Remove(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Counters and byte accounting stay coherent.
	if s.Used() < 0 {
		t.Errorf("negative Used: %d", s.Used())
	}
	if s.Len() > 64 {
		t.Errorf("Len = %d, want <= 64", s.Len())
	}
}
