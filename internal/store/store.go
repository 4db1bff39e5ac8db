// Package store is the persistent second tier behind cache.Sharded: an
// append-only segment log of checksummed object records plus the
// spill/promote plumbing (Tier, Spiller) that composes it under the memory
// tier.
//
// A record (format.go) is appended to the active segment file; an in-memory
// index maps each object id to its newest record. Segment files stay open
// and mapped read-only, so a write is one pwrite and a read one copy out of
// the mapping, verified on the copy. Space comes back a segment at a time:
// the oldest is retired at capacity, an emptied one deleted at once. Nothing
// is fsynced: a torn write ends its segment's recovery walk or fails its
// checksum on first read, and is never served.
package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"beyondcache/internal/cache"
)

// Options configures a Store.
type Options struct {
	// Capacity bounds the on-disk footprint in bytes, dead records
	// included; <= 0 means unbounded. Overflow retires the oldest segment.
	Capacity int64
}

// Store is the on-disk object store.
type Store struct {
	dir     string
	opts    Options
	segSize int64 // a segment is sealed when the next record would pass this
	// onDrop fires (with no store lock held) when an object leaves the
	// disk tier involuntarily: its segment was retired or its record failed
	// verification. The tier uses it to advertise non-presence.
	onDrop func(cache.Object)
	// wmu serializes appenders: a record is written and committed to the
	// index before the next one starts, so log order is commit order, which
	// recovery replays. It is held across file I/O; mu never is.
	wmu     sync.Mutex
	nextSeq uint64

	mu         sync.Mutex
	index      map[uint64]rec
	segs       []*segment // oldest first
	active     *segment   // tail of segs, taking appends; nil before the first
	pending    []*segment // a previous run's, unopened until Recover walks them
	used, live int64      // sums of segs[i].size and segs[i].live
	closed     bool
	// purged is non-nil from Open until Recover has replayed a previous
	// run's segments: the ids tombstoned meanwhile, whose old records must
	// stay dead. While it is, nothing is retired (see trimLocked).
	purged map[uint64]struct{}

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	putSkipped  atomic.Int64
	evictions   atomic.Int64
	verifyFails atomic.Int64
}

type segment struct {
	seq uint64
	f   *os.File
	// m maps the file read-only and shared, so it sees every pwrite; a
	// record is read only once its pwrite has finished, so the tail beyond
	// the end of the file is never touched. Nil while the file is empty.
	m []byte
	// refs is the log's own reference while the segment is in segs, plus
	// one per read copying out of m. A read takes its reference in the index
	// lock's hold that found its record, so never on a segment that has left
	// segs; m is unmapped when the count reaches zero.
	refs atomic.Int32
	size int64    // bytes appended: live, superseded and tombstones alike
	live int64    // bytes of records the index points at
	ids  []uint64 // ids with a record committed here, for retirement
	// tombs counts tombstones: while an older segment exists they may be
	// all that keeps a purged record there from coming back at restart.
	tombs int
}

// rec is an index entry: where an object's newest record lies.
type rec struct {
	seg   *segment
	off   int64
	n     int64 // record length, header included
	obj   cache.Object
	flags uint32
}

// debris is what an index update leaves for its caller to finish once mu
// is released: emptied segment files to delete, departures to announce.
type debris struct {
	segs []*segment
	objs []cache.Object
}

// Open creates or reopens a store rooted at dir. The object index starts
// empty — call Recover to repopulate it from a previous run's segments.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Earlier versions' file-per-object layout: cleared, not migrated.
	for _, old := range []string{"objects", "tmp", "quarantine"} {
		os.RemoveAll(filepath.Join(dir, old))
	}
	s := &Store{dir: dir, opts: opts, index: make(map[uint64]rec), nextSeq: 1, segSize: 64 << 20}
	s.onDrop = func(cache.Object) {}
	if opts.Capacity > 0 {
		// Never more than half the capacity: only a sealed segment can be
		// retired, so the one taking appends must leave room for another.
		s.segSize = min(max(opts.Capacity/8, 1<<20), 64<<20, max(opts.Capacity/2, 1))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents { // sorted by name: fixed-width hex is log order
		name, ok := strings.CutSuffix(e.Name(), ".seg")
		fi, ierr := e.Info()
		if seq, err := strconv.ParseUint(name, 16, 64); ok && err == nil && ierr == nil {
			seg := &segment{seq: seq, size: fi.Size()}
			seg.refs.Store(1)
			s.pending = append(s.pending, seg)
			s.nextSeq = max(s.nextSeq, seq+1)
		}
	}
	if len(s.pending) > 0 {
		s.purged = make(map[uint64]struct{})
	}
	return s, nil
}

// OnDrop registers the involuntary-departure callback, before the store is shared.
func (s *Store) OnDrop(fn func(cache.Object)) { s.onDrop = fn }

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.seg", seq))
}

// Close closes and unmaps the segment files, once Recover has returned; a
// read still copying keeps its segment mapped until it is done. Afterwards
// the store is empty: reads miss and writes fail.
func (s *Store) Close() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	segs := s.segs
	s.segs, s.active, s.used, s.live, s.closed = nil, nil, 0, 0, true
	s.index = make(map[uint64]rec)
	s.mu.Unlock()
	for _, seg := range segs {
		seg.f.Close() // appends are unbuffered pwrites: an error here loses nothing
		seg.release()
	}
}

// mapSegment maps the first n bytes of f read-only and shared.
func mapSegment(f *os.File, n int64) ([]byte, error) {
	m, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("store: map segment: %w", err)
	}
	return m, nil
}

// release drops one reference to seg, unmapping it with the last.
func (seg *segment) release() {
	if seg.refs.Add(-1) == 0 && seg.m != nil {
		_ = syscall.Munmap(seg.m) // fails only on a mapping Mmap never returned
	}
}

// clear finishes what an index update left behind; no lock is held.
func (s *Store) clear(d debris) {
	for _, seg := range d.segs {
		seg.f.Close()
		os.Remove(s.segPath(seg.seq))
		seg.release() // the log's: no read can take a new one now
	}
	for _, o := range d.objs {
		s.onDrop(o)
	}
}

// unrefLocked takes n live bytes off seg. A sealed segment left with none
// leaves the log, unless its tombstones still shadow records in an older
// segment; and when the oldest goes, so do emptied ones behind it.
func (s *Store) unrefLocked(seg *segment, n int64, d *debris) {
	seg.live -= n
	s.live -= n
	i := slices.Index(s.segs, seg)
	if i > 0 && seg.tombs > 0 {
		return
	}
	for i >= 0 && i < len(s.segs) && s.segs[i].live == 0 && s.segs[i] != s.active {
		s.used -= s.segs[i].size
		d.segs = append(d.segs, s.segs[i])
		s.segs = slices.Delete(s.segs, i, i+1)
		i = 0 // and any emptied segment that is now the oldest
	}
}

// pointLocked makes at its object's index entry, releasing the old one.
func (s *Store) pointLocked(at rec, d *debris) {
	old, ok := s.index[at.obj.ID]
	s.index[at.obj.ID] = at
	at.seg.live += at.n
	s.live += at.n
	if !ok || old.seg != at.seg { // listed already; a repeat costs a lookup
		at.seg.ids = append(at.seg.ids, at.obj.ID)
	}
	if ok {
		s.unrefLocked(old.seg, old.n, d)
	}
}

// liveLocked collects the records in seg that the index points at.
func (s *Store) liveLocked(seg *segment) map[uint64]rec {
	live := make(map[uint64]rec)
	for _, id := range seg.ids {
		if e, ok := s.index[id]; ok && e.seg == seg {
			live[id] = e
		}
	}
	return live
}

// slackLocked is the capacity left once the active segment has filled.
func (s *Store) slackLocked() int64 {
	slack := s.opts.Capacity - s.used
	if s.active != nil {
		slack -= max(0, s.segSize-s.active.size)
	}
	return slack
}

// doomedLocked reports whether seg is the oldest segment and the next roll
// will retire it (a bounded log within a segment of its capacity) or
// compact it (an unbounded one holding more dead bytes than live).
func (s *Store) doomedLocked(seg *segment) bool {
	if seg != s.segs[0] || seg == s.active {
		return false
	}
	if s.opts.Capacity > 0 {
		return s.slackLocked() < s.segSize
	}
	return s.used-s.live > s.live
}

// trimLocked retires the oldest segment, with every object whose newest
// record is in it, until the log fits its capacity. Not before Recover has
// replayed the previous run: an object dropped from the index now would come
// back from there at an older version.
func (s *Store) trimLocked(d *debris) {
	for s.purged == nil && s.opts.Capacity > 0 && s.slackLocked() < 0 && len(s.segs) > 1 {
		for id, e := range s.liveLocked(s.segs[0]) {
			delete(s.index, id)
			d.objs = append(d.objs, e.obj)
			s.evictions.Add(1)
		}
		s.unrefLocked(s.segs[0], s.segs[0].live, d)
	}
}

// append writes one record (e.obj, e.flags) at the log's tail, starting a
// new segment when the active one would overflow, and commits it under the
// index lock: an object record becomes its id's index entry — unless keep
// (may be nil) says no, and then a tombstone voids the bytes already written.
// Only then is the old end trimmed to the capacity, so a record moved to the
// tail is not lost with the segment it came from. Caller holds wmu.
func (s *Store) append(raw []byte, e rec, keep func() bool) (wrote bool, err error) {
	if s.closed {
		return false, errClosed
	}
	e.n = int64(len(raw))
	var d debris
	if s.active == nil || s.active.size > 0 && s.active.size+e.n > s.segSize {
		path := s.segPath(s.nextSeq)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return false, fmt.Errorf("store: new segment: %w", err)
		}
		// Every record but a first one longer than segSize fits in segSize.
		m, err := mapSegment(f, max(s.segSize, e.n))
		if err != nil {
			f.Close()
			os.Remove(path)
			return false, err
		}
		seg := &segment{seq: s.nextSeq, f: f, m: m}
		seg.refs.Store(1)
		s.mu.Lock()
		sealed := s.active
		s.active = seg
		s.segs = append(s.segs, s.active)
		if sealed != nil {
			s.unrefLocked(sealed, 0, &d) // nothing live in it: delete it
		}
		s.mu.Unlock()
		s.nextSeq++
	}
	e.seg, e.off = s.active, s.active.size
	if _, err := e.seg.f.WriteAt(raw, e.off); err != nil {
		s.clear(d)
		return false, fmt.Errorf("store: append: %w", err)
	}
	tomb := e.flags&flagTomb != 0
	s.mu.Lock()
	e.seg.size += e.n
	s.used += e.n
	switch {
	case tomb:
		e.seg.tombs++
		if s.purged != nil {
			s.purged[e.obj.ID] = struct{}{}
		}
	case keep == nil || keep():
		s.pointLocked(e, &d)
		wrote = true
	}
	s.trimLocked(&d)
	s.mu.Unlock()
	s.clear(d)
	if !wrote && !tomb {
		s.tombstone(e.obj.ID)
	}
	return wrote, nil
}

// tombstone appends a record that voids every earlier record of id: a restart
// cannot bring back what was purged, vetoed or found corrupt. Best effort,
// like every unsynced write here. Caller holds wmu.
func (s *Store) tombstone(id uint64) {
	var hb [headerLen]byte
	header{flags: flagTomb, id: id}.encode(&hb)
	_, _ = s.append(hb[:], rec{obj: cache.Object{ID: id}, flags: flagTomb}, nil)
}

// skip reports, and counts, a write that would add nothing: the log holds
// the object at this version or newer. Second chance is the exception: an
// equal version in the segment next to go is written again (and only objects
// read back into memory since they were written come here twice).
func (s *Store) skip(obj cache.Object) bool {
	s.mu.Lock()
	e, ok := s.index[obj.ID]
	skip := ok && (e.obj.Version > obj.Version ||
		e.obj.Version == obj.Version && !s.doomedLocked(e.seg))
	s.mu.Unlock()
	if skip {
		s.putSkipped.Add(1)
	}
	return skip
}

// Put appends an object to the log, unless it is there already (see skip).
// Capacity overflow fires the drop callback for each object retired.
func (s *Store) Put(obj cache.Object, body []byte) error {
	_, err := s.put(obj, body, nil)
	return err
}

// put is Put with a veto at the commit point: keep, when non-nil, runs
// under the index lock once the record is in the file, and a false answer
// leaves the index alone (see append), so a Remove ordered after the caller
// withdrew its claim never loses to a write already in progress.
func (s *Store) put(obj cache.Object, body []byte, keep func() bool) (wrote bool, err error) {
	if n := int64(headerLen + len(body)); len(body) > maxBody || s.opts.Capacity > 0 && n > s.opts.Capacity {
		return false, errTooLarge
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.skip(obj) {
		return false, nil
	}
	raw := append(make([]byte, headerLen, headerLen+len(body)), body...)
	header{id: obj.ID, version: obj.Version, size: uint32(len(body)), stored: uint32(len(body)),
		bodyCRC: crc32.Checksum(body, castagnoli)}.encode((*[headerLen]byte)(raw))
	obj.Size = int64(len(body)) // the index mirrors what the header says
	sealed := s.active
	wrote, err = s.append(raw, rec{obj: obj}, keep)
	if wrote {
		s.puts.Add(1)
	}
	// Compaction: while an unbounded log's dead bytes outweigh the live, each
	// roll moves the oldest segment's live records to the tail, which empties
	// it (unrefLocked deletes the file): never more writes than the puts made.
	if s.active != sealed && s.opts.Capacity <= 0 {
		s.mu.Lock()
		var doomed *segment
		var move map[uint64]rec
		if s.doomedLocked(s.segs[0]) {
			doomed = s.segs[0]
			doomed.refs.Add(1)
			move = s.liveLocked(doomed)
		}
		s.mu.Unlock()
		for _, e := range move {
			if raw, ok := e.read(); !ok {
				s.condemn(e)
			} else {
				// On error the record stays put and the next roll retries.
				_, _ = s.append(raw, rec{obj: e.obj, flags: e.flags}, nil)
			}
		}
		if doomed != nil {
			doomed.release()
		}
	}
	return wrote, err
}

// Get reads an object back: one copy of exactly its record out of its
// segment's mapping, verified before anything is returned (see read). The
// body is the caller's to keep: the tail of the copy itself. A record that
// fails is condemned; a read that merely lost a race looks again.
func (s *Store) Get(id uint64) (cache.Object, []byte, bool) {
	for {
		s.mu.Lock()
		e, ok := s.index[id]
		if ok {
			e.seg.refs.Add(1)
		}
		s.mu.Unlock()
		if !ok {
			break
		}
		raw, ok := e.read()
		e.seg.release()
		if ok {
			s.hits.Add(1)
			return e.obj, raw[headerLen:], true
		}
		s.wmu.Lock()
		bad := s.condemn(e)
		s.wmu.Unlock()
		if bad {
			break
		}
	}
	s.misses.Add(1)
	return cache.Object{}, nil, false
}

// read copies the record e points at out of its segment's mapping, the
// caller holding a reference to it, and verifies the copy — never the
// mapping, so a byte changed in the file afterwards cannot reach a client:
// header checksum, magic and flags (see decodeHeader), the id, version and
// flags it carries, its lengths against the index entry, and the body
// checksum.
func (e rec) read() ([]byte, bool) {
	raw, copied := e.seg.copyOut(e.off, e.n)
	h, ok := decodeHeader(raw)
	return raw, copied && ok &&
		h.id == e.obj.ID && h.version == e.obj.Version && h.flags == e.flags &&
		int64(h.stored) == e.n-headerLen && int64(h.size) == e.obj.Size &&
		crc32.Checksum(raw[headerLen:], castagnoli) == h.bodyCRC
}

// copyOut copies n bytes at off out of the mapping into a fresh slice,
// which is not zeroed first. A file cut short under the mapping faults the
// copy: a failed copy here, not a crash.
func (seg *segment) copyOut(off, n int64) (raw []byte, ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			raw, ok = nil, false
		}
	}()
	return append([]byte(nil), seg.m[off:off+n]...), true
}

// forget takes id out of the index — when only is given, only while it still
// points at that record — and tombstones its records. Caller holds wmu.
func (s *Store) forget(id uint64, only *rec) bool {
	var d debris
	s.mu.Lock()
	e, ok := s.index[id]
	if ok = ok && (only == nil || e.seg == only.seg && e.off == only.off); ok {
		delete(s.index, id)
		s.unrefLocked(e.seg, e.n, &d)
	}
	unscanned := only == nil && s.purged != nil // its record may be ahead of Recover
	s.mu.Unlock()
	s.clear(d)
	if ok || unscanned {
		s.tombstone(id)
	}
	return ok
}

// condemn settles a failed read through e. If the index has moved on since
// — the record was retired, removed or rewritten under the read — nothing
// is wrong and it reports false. Otherwise the bytes are bad: the record is
// dropped, voided with a tombstone (an older version in an older segment
// must not take its place at restart), counted and announced. Holds wmu.
func (s *Store) condemn(e rec) bool {
	if !s.forget(e.obj.ID, &e) {
		return false
	}
	s.verifyFails.Add(1)
	s.clear(debris{objs: []cache.Object{e.obj}})
	return true
}

// Remove drops an object from the index and voids its records with a
// tombstone, without firing the drop callback — the purge path owns the
// invalidate it implies. It reports whether the object was indexed.
func (s *Store) Remove(id uint64) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.forget(id, nil)
}

// Contains reports whether the object is indexed on disk.
func (s *Store) Contains(id uint64) bool {
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	return ok
}

// IDs snapshots the indexed IDs, unordered; callers re-check residency as usual.
func (s *Store) IDs() []uint64 {
	s.mu.Lock()
	ids := make([]uint64, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	return ids
}

// RecoverStats summarizes a boot-time recovery scan.
type RecoverStats struct {
	Objects         int   // valid objects indexed
	Bytes           int64 // their on-disk footprint
	SegmentsRemoved int   // segment files deleted: nothing live was left in them
	Quarantined     int   // segments whose walk stopped at a torn tail, or never started
	Duration        time.Duration
}

// walked is one of a previous run's segments and the records found in it.
type walked struct {
	seg  *segment
	recs []rec
	torn bool // the walk ended at a bad header, short of the end of the file
}

// Recover rebuilds the index from a previous run's segments: a bounded
// pool walks them, then all are replayed in log order under one hold of the
// index lock, so the later record of an id wins, a tombstone included, and
// no recovered record is visible — to Get, skip, compaction or retirement —
// before whatever supersedes or voids it has been applied. Every object
// then indexed is published (outside the store lock) for the caller to
// republish into the hint plane.
func (s *Store) Recover(workers int, publish func(cache.Object)) RecoverStats {
	start := time.Now()
	var st RecoverStats
	pending := s.pending // Open's, and nobody else's
	s.pending = nil
	walks := make([]walked, len(pending))
	if workers <= 0 {
		workers = 4
	}
	pool := make(chan struct{}, workers) // a semaphore: that many walks at once
	var wg sync.WaitGroup
	for i, seg := range pending {
		wg.Add(1)
		pool <- struct{}{}
		go func() {
			defer wg.Done()
			walks[i] = s.walk(seg)
			<-pool
		}()
	}
	wg.Wait()
	var d debris
	s.mu.Lock()
	run, objects, live := s.segs, len(s.index), s.live
	s.segs = nil // this run's are newer than every recovered one: back on at the end
	for _, w := range walks {
		if w.torn {
			st.Quarantined++
			s.verifyFails.Add(1)
		}
		s.replayLocked(w, &d)
	}
	s.segs = append(s.segs, run...)
	st.Objects, st.Bytes, st.SegmentsRemoved = len(s.index)-objects, s.live-live, len(d.segs)
	// The index is whole: retirement is safe again, and a capacity shrunk
	// across the restart is trimmed to before anything is served from it.
	s.purged = nil
	s.trimLocked(&d)
	s.mu.Unlock()
	s.clear(d)
	for _, w := range walks {
		for _, at := range w.recs {
			// Not a tombstone, nor superseded, purged or retired since.
			if publish != nil && at.flags&flagTomb == 0 && s.points(at) {
				publish(at.obj)
			}
		}
	}
	st.Duration = time.Since(start)
	return st
}

// points reports whether e is still its object's index entry.
func (s *Store) points(e rec) bool {
	s.mu.Lock()
	cur, ok := s.index[e.obj.ID]
	s.mu.Unlock()
	return ok && cur.seg == e.seg && cur.off == e.off
}

// walk reads a segment header to header — bodies are NOT read; a torn body
// is caught by verify-on-read — up to the first record whose header is
// invalid (see decodeHeader) or that runs past the end of the file: a torn
// tail, which is cut off so that one crash is one failure, not one at every
// later boot. What is left is mapped for reads. A segment that cannot be
// opened or mapped is all tail: it recovers empty and is deleted. The walk
// itself preads its headers: touching them through the mapping costs a page
// fault each, more than the pread at large records.
func (s *Store) walk(seg *segment) walked {
	w := walked{seg: seg}
	f, err := os.OpenFile(s.segPath(seg.seq), os.O_RDWR, 0)
	seg.f, w.torn = f, err != nil
	var hb [headerLen]byte
	off := int64(0)
	for off < seg.size && !w.torn {
		_, err := f.ReadAt(hb[:], off)
		h, ok := decodeHeader(hb[:])
		n := headerLen + int64(h.stored)
		w.torn = err != nil || !ok || off+n > seg.size
		if !w.torn {
			w.recs = append(w.recs, rec{seg: seg, off: off, n: n, flags: h.flags,
				obj: cache.Object{ID: h.id, Size: int64(h.size), Version: h.version}})
			off += n
		}
	}
	if w.torn {
		seg.size = off
		_ = f.Truncate(off) // best effort: failing, the tail is counted again next boot
	}
	if seg.size > 0 {
		var err error
		if seg.m, err = mapSegment(f, seg.size); err != nil {
			w.recs, w.torn = nil, true
		}
	}
	return w
}

// replayLocked applies a walked segment to the index. What this run wrote
// or purged meanwhile is later still.
func (s *Store) replayLocked(w walked, d *debris) {
	for _, at := range w.recs {
		cur, ok := s.index[at.obj.ID]
		_, purged := s.purged[at.obj.ID]
		tomb := at.flags&flagTomb != 0
		if tomb {
			w.seg.tombs++
		}
		if purged || ok && cur.seg.seq > w.seg.seq {
			continue
		}
		if tomb && ok { // cur is an earlier recovered record
			delete(s.index, at.obj.ID)
			s.unrefLocked(cur.seg, cur.n, d)
		} else if !tomb {
			s.pointLocked(at, d)
		}
	}
	// Only now does the segment join the log, behind the older ones.
	s.segs = append(s.segs, w.seg)
	s.used += w.seg.size
	s.unrefLocked(w.seg, 0, d) // nothing live in it: delete it
}

// Stats is a point-in-time snapshot of store counters and occupancy.
type Stats struct {
	Objects        int
	UsedBytes      int64
	Capacity       int64
	Hits           int64
	Misses         int64
	Puts           int64
	PutSkipped     int64
	Evictions      int64
	VerifyFailures int64
}

// StatsSnapshot returns current counters and occupancy.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	objects, used := len(s.index), s.used
	s.mu.Unlock()
	return Stats{
		Objects:        objects,
		UsedBytes:      used,
		Capacity:       s.opts.Capacity,
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		PutSkipped:     s.putSkipped.Load(),
		Evictions:      s.evictions.Load(),
		VerifyFailures: s.verifyFails.Load(),
	}
}
