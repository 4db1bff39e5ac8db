package hintcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Striped is a concurrency-safe k-way set-associative hint table. Its sets
// are the whole table's: an object's set is setOf(hash, sets), whatever the
// lock count. Runs of consecutive sets share a stripe, one sync.RWMutex, so
// hint probes on the fetch hot path never contend with hint-update batches
// landing on other stripes; a stripe is a lock and decides nothing about
// what the table holds. Slot 0 of a set is MRU, and informs insert and
// invalidates delete only on a machine match. Where the paper keeps a single
// nearest-copy record per object, a set here keeps up to holdersPerObject
// records for one object, most recent first: when the newest holder evicts,
// its machine-matched invalidate withdraws its own record and the holder
// before it is still on record.
//
// Probes take a stripe in read mode and upgrade to write mode only when an
// MRU promotion is needed (a repeat probe of the hottest record stays
// read-only), so concurrent lookups of hot hints scale with GOMAXPROCS.
type Striped struct {
	recs    []Record // sets*ways, flat; set i occupies recs[i*ways : (i+1)*ways]
	stripes []hintStripe
	shift   uint // set i is guarded by stripes[i>>shift]
	ways    int
	sets    int

	lookups  atomic.Int64
	hits     atomic.Int64
	inserts  atomic.Int64
	evicts   atomic.Int64
	deletes  atomic.Int64
	conflict atomic.Int64
	rejects  atomic.Int64

	// filter, when set, gates inform inserts: records whose URL hash the
	// predicate rejects are dropped instead of stored. The cluster's
	// hint directory installs an ownership predicate here, so a node only
	// ever stores records for objects it is a hint home of, regardless of
	// what arrives on the wire.
	filter atomic.Pointer[func(urlHash uint64) bool]
}

// holdersPerObject is how many location records one object may hold in its
// set. Two win back the remote hits lost when the newest holder evicts
// first; four were measured and bought nothing more (DESIGN.md §10).
const holdersPerObject = 2

// hintStripe locks one run of 1<<shift consecutive sets. live counts the
// run's records, so walks skip an empty stripe and occupancy is a sum.
type hintStripe struct {
	mu   sync.RWMutex
	live int
	_    [32]byte
}

// NewStriped builds a striped hint table of ceil(entries/ways) sets of the
// given associativity: the sets, and so what the table holds, depend on
// entries and ways alone. stripes only sets how many locks guard them (<= 0
// picks a default sized to GOMAXPROCS): at least that many, rounded to whole
// power-of-two runs of sets, and never more than there are sets.
func NewStriped(entries, ways, stripes int) *Striped {
	ways = max(ways, 1)
	sets := max((entries+ways-1)/ways, 1)
	if stripes <= 0 {
		stripes = max(16, 4*runtime.GOMAXPROCS(0))
	}
	shift := uint(0)
	for sets>>(shift+1) >= stripes {
		shift++
	}
	return &Striped{
		recs:    make([]Record, sets*ways),
		stripes: make([]hintStripe, (sets-1)>>shift+1),
		shift:   shift,
		ways:    ways,
		sets:    sets,
	}
}

// Entries returns the total slot count.
func (s *Striped) Entries() int { return len(s.recs) }

// SizeBytes returns the table size in bytes (entries x 16).
func (s *Striped) SizeBytes() int64 { return int64(s.Entries()) * RecordSize }

// locate maps a URL hash to its set's stripe and the set's base index.
func (s *Striped) locate(urlHash uint64) (*hintStripe, int) {
	set := setOf(urlHash, s.sets)
	return &s.stripes[set>>s.shift], set * s.ways
}

// Lookup returns the most recently recorded holder of the object.
func (s *Striped) Lookup(urlHash uint64) (machine uint64, ok bool) {
	return s.LookupExcept(urlHash, 0)
}

// LookupExcept is Lookup passing over a record that names except: the most
// recent holder other than the caller, who has just missed locally and has
// no use for its own stale record while another holder is on record.
func (s *Striped) LookupExcept(urlHash, except uint64) (machine uint64, ok bool) {
	urlHash = normalizeHash(urlHash)
	s.lookups.Add(1)
	st, base := s.locate(urlHash)

	st.mu.RLock()
	pos := mostRecent(s.recs[base:base+s.ways], urlHash, except)
	if pos >= 0 {
		machine = s.recs[base+pos].Machine
	}
	st.mu.RUnlock()
	if pos < 0 {
		return 0, false
	}
	s.hits.Add(1)
	if pos > 0 {
		// Promote to MRU under the write lock. The record may have moved
		// or vanished since the read-mode probe; promote only what is
		// still there. Either way the probed machine is returned — hints
		// are advisory, and a just-deleted hint merely costs the caller
		// the usual false-positive fallback.
		st.mu.Lock()
		promote(s.recs[base:base+s.ways], urlHash, machine)
		st.mu.Unlock()
	}
	return machine, true
}

// SetInsertFilter installs (nil clears) the insert admission predicate.
// Deletes and lookups are never filtered: a node that stopped owning an
// object must still be able to withdraw its leftover records.
func (s *Striped) SetInsertFilter(f func(urlHash uint64) bool) {
	if f == nil {
		s.filter.Store(nil)
		return
	}
	s.filter.Store(&f)
}

// admit applies the insert filter to a normalized hash, counting rejects.
// The predicate must not call back into the table.
func (s *Striped) admit(urlHash uint64) bool {
	fp := s.filter.Load()
	if fp == nil || (*fp)(urlHash) {
		return true
	}
	s.rejects.Add(1)
	return false
}

// Insert records that machine holds a copy of the object, at MRU, by
// place's rule.
func (s *Striped) Insert(urlHash, machine uint64) error {
	urlHash = normalizeHash(urlHash)
	if !s.admit(urlHash) {
		return nil
	}
	st, base := s.locate(urlHash)
	s.inserts.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	took, evicted := place(s.recs[base:base+s.ways], urlHash, machine)
	if took {
		st.live++
	}
	if evicted {
		s.evicts.Add(1)
		s.conflict.Add(1)
	}
	return nil
}

// Delete removes the object's record naming machine, or every record the
// object has when machine is 0, and reports whether any was removed. A
// machine that matches none leaves the records in place: a stale
// invalidation must not destroy another holder's hint.
func (s *Striped) Delete(urlHash, machine uint64) bool {
	urlHash = normalizeHash(urlHash)
	st, base := s.locate(urlHash)
	st.mu.Lock()
	defer st.mu.Unlock()
	removed := withdraw(s.recs[base:base+s.ways], urlHash, machine)
	if removed == 0 {
		return false
	}
	st.live -= removed
	s.deletes.Add(int64(removed))
	return true
}

// The set rules below act on one set's records, slot 0 the most recent,
// and are the whole of what a table decides; Striped adds only the locks
// and counters around them. A caller normalizes urlHash first.

// mostRecent returns the slot of the object's most recent record that does
// not name except, or -1.
func mostRecent(set []Record, urlHash, except uint64) int {
	for i, r := range set {
		if r.URLHash == urlHash && r.Machine != except {
			return i
		}
	}
	return -1
}

// promote moves the object's record naming machine, if the set still has
// it, to slot 0.
func promote(set []Record, urlHash, machine uint64) {
	for i, r := range set {
		if r.URLHash == urlHash && r.Machine == machine {
			copy(set[1:i+1], set[:i])
			set[0] = r
			return
		}
	}
}

// place records that machine holds the object, at slot 0. A record for
// the same (object, machine) is replaced; an object already holding
// holdersPerObject records loses its oldest; otherwise the record takes a
// free slot (took) or, in a full set, the slot victim picks (evicted when
// that slot held another object's record).
func place(set []Record, urlHash, machine uint64) (took, evicted bool) {
	// same: this (object, machine)'s record; oldest: the object's least
	// recent record, held counting them; free: the first empty slot.
	same, oldest, held, free := -1, -1, 0, -1
	for i, r := range set {
		switch {
		case r.URLHash == urlHash:
			if r.Machine == machine {
				same = i
			}
			oldest = i
			held++
		case r.URLHash == invalidHash && free < 0:
			free = i
		}
	}
	var pos int
	switch {
	case same >= 0:
		pos = same
	case held == holdersPerObject:
		pos = oldest
	case free >= 0:
		pos, took = free, true
	default:
		pos = victim(set, oldest)
		evicted = set[pos].URLHash != urlHash
	}
	copy(set[1:pos+1], set[:pos])
	set[0] = Record{URLHash: urlHash, Machine: machine}
	return took, evicted
}

// victim picks the slot a full set gives up to a record it has no room for:
// the least recent record that is not its object's most recent one, else
// the incoming object's own record (own, -1 when it has none), else the
// set's LRU slot. No object loses its only record while another holds two,
// and an object's second holder never costs another object its only one.
func victim(set []Record, own int) int {
	for j := len(set) - 1; j > 0; j-- {
		for _, r := range set[:j] {
			if r.URLHash == set[j].URLHash {
				return j
			}
		}
	}
	if own >= 0 {
		return own
	}
	return len(set) - 1
}

// withdraw removes the object's record naming machine, or all of its
// records when machine is 0, closing the gap toward slot 0, and returns how
// many went.
func withdraw(set []Record, urlHash, machine uint64) int {
	kept := 0
	for i, r := range set {
		if r.URLHash == urlHash && (machine == 0 || r.Machine == machine) {
			continue
		}
		if kept != i { // an invalidate that matches nothing writes nothing
			set[kept] = r
		}
		kept++
	}
	clear(set[kept:])
	return len(set) - kept
}

// Apply folds an update into the table: informs insert, invalidates delete
// (only when the machine matches).
func (s *Striped) Apply(u Update) error {
	switch u.Action {
	case ActionInform:
		return s.Insert(u.URLHash, u.Machine)
	case ActionInvalidate:
		s.Delete(u.URLHash, u.Machine)
		return nil
	default:
		return fmt.Errorf("hintcache: apply unknown action %d", u.Action)
	}
}

// ApplyBatch folds a batch of updates into the table in order. Records
// carrying an unknown action are skipped; the first such fault is returned
// after the valid remainder has been applied.
func (s *Striped) ApplyBatch(updates []Update) error {
	var firstErr error
	for _, u := range updates {
		if err := s.Apply(u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Occupied counts live records across the table — an occupancy gauge for
// /metrics — from the stripes' counts, each read under its read lock; the
// total is not a cross-stripe atomic snapshot (fine for monitoring).
func (s *Striped) Occupied() int {
	total := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		total += st.live
		st.mu.RUnlock()
	}
	return total
}

// Range calls fn for every live record in set order, and within a set from
// MRU to LRU, stopping early when fn returns false. Each stripe's run of
// sets is walked under its read lock, and only as far as its last live
// record, so an empty table costs one lock per stripe. fn must not call back
// into the table (it would deadlock on the stripe lock); the iteration is
// not a cross-stripe atomic snapshot.
func (s *Striped) Range(fn func(Record) bool) {
	run := s.ways << s.shift
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for j, left := i*run, st.live; left > 0; j++ {
			r := s.recs[j]
			if r.URLHash == invalidHash {
				continue
			}
			left--
			if !fn(r) {
				st.mu.RUnlock()
				return
			}
		}
		st.mu.RUnlock()
	}
}

// Stats returns the accumulated counters.
func (s *Striped) Stats() Stats {
	return Stats{
		Lookups:       s.lookups.Load(),
		Hits:          s.hits.Load(),
		Inserts:       s.inserts.Load(),
		Evictions:     s.evicts.Load(),
		Deletes:       s.deletes.Load(),
		Conflicts:     s.conflict.Load(),
		FilterRejects: s.rejects.Load(),
	}
}
