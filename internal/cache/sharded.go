package cache

import (
	"runtime"
	"sync"
)

// Sharded is a lock-striped concurrent object cache: N independent LRU
// shards, each guarded by its own mutex and holding an equal slice of the
// total byte budget. Object IDs are hashed to shards, so concurrent requests
// for unrelated objects proceed without contention — the concurrency layer
// the networked prototype needs while the single-threaded LRU stays as-is
// for the simulators.
//
// Unlike LRU, Sharded also stores each object's body alongside its metadata
// so that a lookup returns both under one shard lock (the networked node
// must never serve an object's metadata with another version's bytes). A
// nil body is allowed for callers that only track metadata.
//
// Because the byte budget is partitioned, an object larger than one shard's
// slice (capacity/shards) is not cacheable even if the whole cache could
// hold it; with realistic shard counts and web-object sizes this is the
// standard sharded-cache trade-off.
type Sharded struct {
	shards []cacheShard
	mask   uint64
	// onEvict is the user eviction callback; fired OUTSIDE the shard lock
	// (see OnEvict). Set once before the cache is shared.
	onEvict func(Object, []byte)
}

// cacheShard pads each shard to its own cache lines so that shard locks do
// not false-share.
type cacheShard struct {
	mu     sync.Mutex
	lru    *LRU
	bodies map[uint64][]byte
	// evicted accumulates this call's evictions under the shard lock; the
	// mutating operation drains it after unlocking and fires the user
	// callback lock-free.
	evicted []evictedObject
	_       [24]byte
}

// evictedObject pairs an evicted object with the body it held.
type evictedObject struct {
	obj  Object
	body []byte
}

// minShardBytes is the smallest slice of the byte budget a derived shard
// count leaves one shard: splitting a small cache by core count alone made
// objects uncacheable that the cache as a whole had room for (1 MiB over
// the 64 shards of a 32-core box is 16 KiB a shard).
const minShardBytes = 256 << 10

// NewSharded builds a sharded cache with the given shard count (rounded up
// to a power of two) over a total byte capacity (<= 0 means unbounded, like
// NewLRU). A count <= 0 derives one: sized to GOMAXPROCS, then halved until
// every shard holds at least minShardBytes, down to a single shard.
func NewSharded(shards int, capacity int64) *Sharded {
	derived := shards <= 0
	if derived {
		shards = 2 * runtime.GOMAXPROCS(0)
		if shards < 8 {
			shards = 8
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for derived && capacity > 0 && n > 1 && capacity/int64(n) < minShardBytes {
		n >>= 1
	}
	perShard := capacity
	if capacity > 0 {
		perShard = capacity / int64(n)
		if perShard < 1 {
			perShard = 1
		}
	}
	s := &Sharded{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lru = NewLRU(perShard)
		sh.bodies = make(map[uint64][]byte)
		// The inner LRU callback runs with the shard lock held: it only
		// moves the eviction (object + body) onto the shard's pending
		// list and cleans the body map. The user callback fires later,
		// outside the lock — see OnEvict.
		sh.lru.OnEvict(func(o Object) {
			body := sh.bodies[o.ID]
			delete(sh.bodies, o.ID)
			if s.onEvict != nil {
				sh.evicted = append(sh.evicted, evictedObject{obj: o, body: body})
			}
		})
	}
	return s
}

// shardFor mixes the ID before reducing so that dense IDs spread evenly.
func (s *Sharded) shardFor(id uint64) *cacheShard {
	h := id * 0x9e3779b97f4a7c15
	return &s.shards[(h>>32)&s.mask]
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// OnEvict registers fn to run whenever an object leaves the cache due to
// capacity pressure or explicit removal (Discard excepted), together with
// the body the cache held for it (nil for metadata-only entries).
//
// Guarantee: the callback fires AFTER the object's shard lock has been
// released and BEFORE the mutating call (Put, PutNewer, Remove) returns, in
// eviction order. It may therefore block — e.g. on a spill-queue enqueue —
// and may call back into the cache without deadlocking (see the locking
// hierarchy in DESIGN.md §6). The flip side of running unlocked: by the
// time the callback observes an eviction, a concurrent goroutine may
// already have re-inserted the object, so callbacks must treat evictions
// as advisory, not as the cache's current state.
//
// OnEvict must be called before the cache is shared across goroutines.
func (s *Sharded) OnEvict(fn func(Object, []byte)) {
	s.onEvict = fn
}

// takeEvicted drains the shard's pending evictions. Callers hold the shard
// lock.
func (sh *cacheShard) takeEvicted() []evictedObject {
	if len(sh.evicted) == 0 {
		return nil
	}
	ev := sh.evicted
	sh.evicted = nil
	return ev
}

// fire runs the user eviction callback over a drained pending list. Called
// with no locks held.
func (s *Sharded) fire(evicted []evictedObject) {
	if s.onEvict == nil {
		return
	}
	for _, e := range evicted {
		s.onEvict(e.obj, e.body)
	}
}

// Get returns the object and its body, promoting it to most-recently-used.
func (s *Sharded) Get(id uint64) (Object, []byte, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj, ok := sh.lru.Get(id)
	if !ok {
		return Object{}, nil, false
	}
	return obj, sh.bodies[id], true
}

// Peek returns the object without touching recency.
func (s *Sharded) Peek(id uint64) (Object, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Peek(id)
}

// Contains reports whether the object is cached, without touching recency.
func (s *Sharded) Contains(id uint64) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Contains(id)
}

// Put inserts or refreshes an object and its body, evicting within the
// object's shard as needed. It reports whether the object is cached
// afterwards.
func (s *Sharded) Put(obj Object, body []byte) bool {
	sh := s.shardFor(obj.ID)
	sh.mu.Lock()
	ok := sh.putLocked(obj, body)
	evicted := sh.takeEvicted()
	sh.mu.Unlock()
	s.fire(evicted)
	return ok
}

// PutNewer is Put except that it refuses to replace a cached copy with an
// older version: if the cached version is already >= obj.Version, the cache
// is left untouched. Concurrent fills racing with invalidations use this so
// a slow fetch of an old version can never clobber a fresher copy — the
// "no stale version is ever served" guarantee of the stress tests. It
// reports whether a copy at version >= obj.Version is cached afterwards.
func (s *Sharded) PutNewer(obj Object, body []byte) bool {
	sh := s.shardFor(obj.ID)
	sh.mu.Lock()
	if cur, ok := sh.lru.Peek(obj.ID); ok && cur.Version >= obj.Version {
		sh.mu.Unlock()
		return true
	}
	ok := sh.putLocked(obj, body)
	evicted := sh.takeEvicted()
	sh.mu.Unlock()
	s.fire(evicted)
	return ok
}

func (sh *cacheShard) putLocked(obj Object, body []byte) bool {
	if !sh.lru.Put(obj) {
		return false
	}
	if body != nil {
		sh.bodies[obj.ID] = body
	}
	return true
}

// Remove deletes an object, firing the eviction callback (outside the
// shard lock, like any eviction). It reports whether the object was
// present.
func (s *Sharded) Remove(id uint64) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	ok := sh.lru.Remove(id)
	evicted := sh.takeEvicted()
	sh.mu.Unlock()
	s.fire(evicted)
	return ok
}

// Discard deletes an object WITHOUT firing the eviction callback — the
// caller takes responsibility for whatever bookkeeping the callback would
// have done. The node's purge path uses this: a purged object must not be
// spilled to the disk tier by its own removal. It reports whether the
// object was present.
func (s *Sharded) Discard(id uint64) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	ok := sh.lru.RemoveQuiet(id)
	if ok {
		delete(sh.bodies, id)
	}
	sh.mu.Unlock()
	return ok
}

// Len returns the total number of cached objects across shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Used returns the bytes charged against capacity across shards.
func (s *Sharded) Used() int64 {
	var used int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		used += sh.lru.Used()
		sh.mu.Unlock()
	}
	return used
}

// Capacity returns the total configured byte capacity (<= 0 means
// unbounded).
func (s *Sharded) Capacity() int64 {
	var total int64
	for i := range s.shards {
		c := s.shards[i].lru.Capacity()
		if c <= 0 {
			return 0
		}
		total += c
	}
	return total
}

// Objects returns a snapshot of cached objects. Shards are visited in
// order, each under its own lock; the snapshot is consistent per shard but
// not across shards (fine for digest rebuilds, which tolerate staleness by
// design).
func (s *Sharded) Objects() []Object {
	var out []Object
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.lru.Objects()...)
		sh.mu.Unlock()
	}
	return out
}

// ShardedStats aggregates per-shard counters.
type ShardedStats struct {
	Inserts   int64
	Evictions int64
}

// Stats sums the per-shard counters.
func (s *Sharded) Stats() ShardedStats {
	var st ShardedStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Inserts += sh.lru.Inserts()
		st.Evictions += sh.lru.Evictions()
		sh.mu.Unlock()
	}
	return st
}

// ShardStats describes one shard's live state and counters, for per-shard
// gauges (a skewed eviction distribution across shards is how hash-stripe
// imbalance shows up in production).
type ShardStats struct {
	Entries   int
	Used      int64
	Inserts   int64
	Evictions int64
}

// PerShard snapshots every shard, in shard order. Each shard is consistent
// under its own lock; the slice is not a cross-shard atomic snapshot.
func (s *Sharded) PerShard() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out[i] = ShardStats{
			Entries:   sh.lru.Len(),
			Used:      sh.lru.Used(),
			Inserts:   sh.lru.Inserts(),
			Evictions: sh.lru.Evictions(),
		}
		sh.mu.Unlock()
	}
	return out
}
