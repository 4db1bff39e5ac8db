package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"beyondcache/internal/cache"
)

// Spiller is the bounded write-behind queue between the memory tier's
// eviction callback and the disk store. Enqueue never blocks on disk I/O:
// items coalesce by id (a re-evicted object replaces its queued copy) and
// when the bound is hit the OLDEST waiting item is dropped — under sustained
// pressure the freshest evictions are the ones most worth persisting, and a
// dropped item's object has now left both tiers, so the drop callback fires
// to advertise non-presence.
//
// The front of the queue belongs to the worker: it stays queued and indexed
// while it is written, so peek keeps the object resident until the disk
// index has it. A Discard of the front drops only its index entry; the
// write checks for the entry as it commits (store lock, then spiller lock)
// and voids the record with a tombstone if it is gone, so a purged object
// never lands on disk behind the purge.
type Spiller struct {
	st     *Store
	limit  int
	onDrop func(cache.Object)

	mu     sync.Mutex
	cond   *sync.Cond
	items  *list.List // of *spillItem; front = oldest, being written
	byID   map[uint64]*list.Element
	closed bool
	done   chan struct{}

	spilled   atomic.Int64
	drops     atomic.Int64
	coalesced atomic.Int64
	errs      atomic.Int64
}

type spillItem struct {
	obj  cache.Object
	body []byte
}

// NewSpiller starts a spiller draining into st with the given queue bound
// (<= 0 picks a default of 1024 items). onDrop fires — with no spiller lock
// held — for every item that fails to reach disk (bound overflow or write
// error); it may be nil.
func NewSpiller(st *Store, limit int, onDrop func(cache.Object)) *Spiller {
	if limit <= 0 {
		limit = 1024
	}
	s := &Spiller{
		st:     st,
		limit:  limit,
		onDrop: onDrop,
		items:  list.New(),
		byID:   make(map[uint64]*list.Element),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// Enqueue queues one evicted object for write-behind. Safe to call from the
// cache eviction callback: it takes only the spiller mutex and never waits
// on disk.
func (s *Spiller) Enqueue(obj cache.Object, body []byte) {
	var dropped cache.Object
	drop := false

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if e, ok := s.byID[obj.ID]; ok {
		it := e.Value.(*spillItem)
		if obj.Version >= it.obj.Version {
			it.obj, it.body = obj, body
		}
		s.coalesced.Add(1)
		s.mu.Unlock()
		return
	}
	if s.items.Len() > s.limit {
		oldest := s.items.Front().Next() // the front is mid-write, not waiting
		it := oldest.Value.(*spillItem)
		s.items.Remove(oldest)
		delete(s.byID, it.obj.ID)
		dropped, drop = it.obj, true
		s.drops.Add(1)
	}
	s.byID[obj.ID] = s.items.PushBack(&spillItem{obj: obj, body: body})
	s.cond.Broadcast()
	s.mu.Unlock()

	if drop && s.onDrop != nil {
		s.onDrop(dropped)
	}
}

// peek returns the queued copy of an object, if any — the in-between state
// where an object has left memory but its disk write has not yet committed.
// The returned body aliases the queued slice; bodies are immutable
// throughout the node.
func (s *Spiller) peek(id uint64) (cache.Object, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		it := e.Value.(*spillItem)
		return it.obj, it.body, true
	}
	return cache.Object{}, nil, false
}

// Discard removes a queued spill without firing the drop callback (the
// purge path owns its own invalidate). It reports whether an item was
// queued.
func (s *Spiller) Discard(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if ok {
		delete(s.byID, id)
		if e != s.items.Front() {
			s.items.Remove(e)
		}
	}
	return ok
}

// Flush blocks until every item queued before the call has been written
// (or dropped).
func (s *Spiller) Flush() {
	s.mu.Lock()
	for s.items.Len() > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close drains the remaining queue, then stops the worker. Enqueues after
// Close are ignored.
func (s *Spiller) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// Depth returns the current queue length, the item being written included.
func (s *Spiller) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items.Len()
}

// SpillStats is a point-in-time snapshot of spill counters.
type SpillStats struct {
	Depth     int
	Limit     int
	Spilled   int64
	Drops     int64
	Coalesced int64
	Errors    int64
}

// StatsSnapshot returns current counters and depth.
func (s *Spiller) StatsSnapshot() SpillStats {
	return SpillStats{
		Depth:     s.Depth(),
		Limit:     s.limit,
		Spilled:   s.spilled.Load(),
		Drops:     s.drops.Load(),
		Coalesced: s.coalesced.Load(),
		Errors:    s.errs.Load(),
	}
}

func (s *Spiller) run() {
	defer close(s.done)
	s.mu.Lock()
	for {
		for s.items.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.items.Len() == 0 {
			// closed and drained
			s.mu.Unlock()
			return
		}
		front := s.items.Front()
		it := front.Value.(*spillItem)
		obj, body := it.obj, it.body
		s.mu.Unlock()

		wrote, err := s.st.put(obj, body, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.byID[obj.ID] == front
		})

		s.mu.Lock()
		if s.byID[obj.ID] == front {
			if wrote {
				s.spilled.Add(1)
			} else if err != nil {
				s.errs.Add(1)
			}
			if it.obj.Version > obj.Version {
				// Re-evicted at a newer version during the write: it is
				// still the front, so the next pass writes it over this one.
				continue
			}
			delete(s.byID, obj.ID)
		} else {
			err = nil // discarded during the write: the purge owns the invalidate
		}
		s.items.Remove(front)
		if s.items.Len() == 0 {
			s.cond.Broadcast() // wake Flush waiters
		}
		if err != nil && s.onDrop != nil {
			s.mu.Unlock()
			s.onDrop(obj)
			s.mu.Lock()
		}
	}
}
