package cluster

import (
	"sync"
	"time"

	"beyondcache/internal/hintcache"
)

// pendq is a bounded, coalescing queue of pending hint updates. It backs
// both the node-level pending queue (updates awaiting the next batch round)
// and each per-peer sender queue (updates awaiting that peer's next send).
//
// Coalescing: the queue holds at most one record per (URL hash, machine) —
// per copy. A second update for the same copy overwrites the first in
// place — inform after inform dedupes, inform followed by invalidate
// collapses to the invalidate, and invalidate followed by a re-fill's
// inform collapses to the inform. The receiver applies records
// independently and keeps a record per holder, so sending only the last
// action per copy is observationally equivalent to sending the whole
// history, and the wire batch shrinks to one 20-byte record per copy per
// round instead of one per event (the paper's principle 2: the metadata
// path must stay cheap). A node's own publishes all name itself, so they
// coalesce per object; the invalidate a demote routes for another
// machine's stale record is a different copy and rides beside them.
//
// Bounding: when the queue is full, the oldest inform is dropped first —
// informs are advisory (a lost inform costs a possible remote hit), while
// invalidates protect correctness-adjacent freshness (a lost invalidate
// leaves a stale hint to mislead a peer), so invalidates are preserved over
// informs. Only when the queue is all invalidates is the oldest invalidate
// dropped. Drops are counted so backpressure is visible in /metrics.
// Freshness: the queue remembers the wall clock of the oldest enqueue it
// currently holds (oldestNs). drain hands that stamp out alongside the
// records so the sender can mark the batch with its true age; receivers
// turn the mark into a hint-propagation-lag observation. Eviction does
// not advance the stamp (an evicted oldest record leaves the reported age
// slightly pessimistic), which keeps the bookkeeping one int64.
type pendq struct {
	mu  sync.Mutex
	cap int // max records; <= 0 means unbounded

	order    []pendKey // copies in arrival order, oldest first
	m        map[pendKey]hintcache.Action
	oldestNs int64 // wall clock of the oldest held enqueue; 0 when empty
}

// pendKey names one machine's copy of one object; the queue maps it to the
// latest pending action on that copy.
type pendKey struct{ hash, machine uint64 }

func newPendq(capRecords int) *pendq {
	return &pendq{cap: capRecords, m: make(map[pendKey]hintcache.Action)}
}

// add folds one update into the queue. It reports whether the update
// coalesced onto an existing record and whether an older record was
// dropped to make room.
func (q *pendq) add(u hintcache.Update) (coalesced, dropped bool) {
	q.mu.Lock()
	if q.oldestNs == 0 {
		q.oldestNs = time.Now().UnixNano()
	}
	coalesced, dropped = q.addLocked(u)
	q.mu.Unlock()
	return coalesced, dropped
}

// addBatch folds a batch under one lock acquisition, returning how many
// records coalesced and how many were dropped for room. stampNs is the
// batch's own oldest-enqueue stamp (0 for none); the queue keeps the
// minimum of its stamp and the batch's, so re-queued records never look
// fresher than they are.
func (q *pendq) addBatch(batch []hintcache.Update, stampNs int64) (coalesced, dropped int) {
	q.mu.Lock()
	if stampNs != 0 && (q.oldestNs == 0 || stampNs < q.oldestNs) {
		q.oldestNs = stampNs
	} else if q.oldestNs == 0 && len(batch) > 0 {
		q.oldestNs = time.Now().UnixNano()
	}
	for _, u := range batch {
		c, d := q.addLocked(u)
		if c {
			coalesced++
		}
		if d {
			dropped++
		}
	}
	q.mu.Unlock()
	return coalesced, dropped
}

func (q *pendq) addLocked(u hintcache.Update) (coalesced, dropped bool) {
	k := pendKey{u.URLHash, u.Machine}
	if _, ok := q.m[k]; ok {
		// Last action wins; the record keeps its queue position.
		q.m[k] = u.Action
		return true, false
	}
	if q.cap > 0 && len(q.order) >= q.cap {
		q.evictLocked()
		dropped = true
	}
	q.order = append(q.order, k)
	q.m[k] = u.Action
	return false, dropped
}

// evictLocked removes the oldest inform, or the oldest record outright when
// the queue holds only invalidates.
func (q *pendq) evictLocked() {
	victim := 0
	for i, k := range q.order {
		if q.m[k] == hintcache.ActionInform {
			victim = i
			break
		}
	}
	delete(q.m, q.order[victim])
	copy(q.order[victim:], q.order[victim+1:])
	q.order = q.order[:len(q.order)-1]
}

// drain appends every queued record, oldest first, onto dst and empties
// the queue, returning the drained records' oldest-enqueue stamp (0 when
// the queue was empty). The queue's internal storage is retained for
// reuse.
func (q *pendq) drain(dst []hintcache.Update) ([]hintcache.Update, int64) {
	q.mu.Lock()
	for _, k := range q.order {
		dst = append(dst, hintcache.Update{Action: q.m[k], URLHash: k.hash, Machine: k.machine})
	}
	q.order = q.order[:0]
	clear(q.m)
	stamp := q.oldestNs
	q.oldestNs = 0
	q.mu.Unlock()
	return dst, stamp
}

// len returns the queued record count.
func (q *pendq) len() int {
	q.mu.Lock()
	n := len(q.order)
	q.mu.Unlock()
	return n
}
