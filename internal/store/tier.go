package store

import (
	"sync/atomic"

	"beyondcache/internal/cache"
)

// Tier composes the memory cache and the disk store into the node's
// two-tier placement: memory evictions spill to disk through the write-
// behind queue, disk hits promote back into memory, and an object is
// "locally resident" — its hints stay valid — as long as it lives in
// EITHER tier (or in the spill queue between them).
type Tier struct {
	mem  *cache.Sharded
	disk *Store
	sp   *Spiller

	promotions atomic.Int64
}

// NewTier wires mem and disk together. spillQueue bounds the write-behind
// queue (<= 0 for the Spiller default). onDrop fires whenever an object
// involuntarily leaves BOTH tiers — spill-queue overflow, failed spill
// write, segment retirement, or a record failing verification — and is the
// seam the node uses to queue invalidate hints; it runs with no tier locks
// held and may be nil.
func NewTier(mem *cache.Sharded, disk *Store, spillQueue int, onDrop func(cache.Object)) *Tier {
	t := &Tier{
		mem:  mem,
		disk: disk,
		sp:   NewSpiller(disk, spillQueue, onDrop),
	}
	if onDrop != nil {
		// The log retires by age, not by read: a record can go while its
		// object sits in memory or waits in the queue to be written again,
		// and that object has not left the node.
		disk.OnDrop(func(o cache.Object) {
			if _, _, queued := t.sp.peek(o.ID); !queued && !mem.Contains(o.ID) {
				onDrop(o)
			}
		})
	}
	return t
}

// Spill queues a memory-tier eviction for write-behind, unless the disk
// already holds that version (Store.skip: the usual fate of a promoted
// object evicted again unchanged). Called from the cache's eviction callback
// (outside the shard lock): it takes the index lock, then the queue lock,
// and never blocks on disk.
func (t *Tier) Spill(obj cache.Object, body []byte) {
	if !t.disk.skip(obj) {
		t.sp.Enqueue(obj, body)
	}
}

// Get serves an object from the disk tier (or the spill queue, for the
// window where an eviction has not yet reached disk), promoting it back
// into the memory tier. PutNewer promotion means a concurrent fill of a
// fresher version is never clobbered.
func (t *Tier) Get(id uint64) (cache.Object, []byte, bool) {
	obj, body, ok := t.sp.peek(id)
	if !ok {
		obj, body, ok = t.disk.Get(id)
		if !ok {
			return cache.Object{}, nil, false
		}
	}
	if t.mem.PutNewer(obj, body) {
		t.promotions.Add(1)
	}
	return obj, body, true
}

// Contains reports residency in the disk tier or the spill queue, without
// touching recency or promoting.
func (t *Tier) Contains(id uint64) bool {
	if _, _, ok := t.sp.peek(id); ok {
		return true
	}
	return t.disk.Contains(id)
}

// DiskIDs snapshots the IDs indexed on the disk store — the re-homing
// scan's view of spilled residency. Objects still in flight on the spill
// queue are missed by one scan and picked up by the next (the queue
// drains between flush rounds); hints are advisory either way.
func (t *Tier) DiskIDs() []uint64 { return t.disk.IDs() }

// Discard removes an object from the spill queue and the disk store
// without firing the drop callback — the purge path queues its own
// invalidate. It reports whether either layer held the object.
func (t *Tier) Discard(id uint64) bool {
	a := t.sp.Discard(id)
	b := t.disk.Remove(id)
	return a || b
}

// Recover rebuilds the disk index from a previous run (see Store.Recover)
// and publishes each recovered object.
func (t *Tier) Recover(workers int, publish func(cache.Object)) RecoverStats {
	return t.disk.Recover(workers, publish)
}

// Flush blocks until the spill queue is drained to disk.
func (t *Tier) Flush() { t.sp.Flush() }

// Close drains the spill queue, stops the write-behind worker and closes the
// disk store.
func (t *Tier) Close() {
	t.sp.Close()
	t.disk.Close()
}

// Promotions returns the number of disk hits promoted into memory.
func (t *Tier) Promotions() int64 { return t.promotions.Load() }

// DiskStats returns the disk store's counter snapshot.
func (t *Tier) DiskStats() Stats { return t.disk.StatsSnapshot() }

// SpillStats returns the write-behind queue's counter snapshot.
func (t *Tier) SpillStats() SpillStats { return t.sp.StatsSnapshot() }
