// Package store is the persistent second tier behind cache.Sharded: a
// content-addressed on-disk object store plus the spill/promote plumbing
// (Tier, Spiller) that composes it under the memory tier.
//
// Files are named by object id (the url hash) in hex, sharded into 256
// subdirectories by the id's top byte, and written to a tmp directory then
// atomically renamed into place, so a crash never leaves a partially
// written file under objects/. Files are deliberately not fsynced — a torn
// write after a power cut shows up as a checksum mismatch and the file is
// quarantined on first read instead of served.
package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/cache"
	"beyondcache/internal/wire"
)

// Options configures a Store.
type Options struct {
	// Capacity bounds the on-disk footprint in bytes (headers included);
	// <= 0 means unbounded. Overflow evicts least-recently-read objects.
	Capacity int64
	// CompressMin flate-compresses bodies of at least this many bytes
	// before storing them (kept only when compression actually shrinks
	// the body); <= 0 disables compression.
	CompressMin int64
}

// Store is the on-disk object store. File I/O happens outside the index
// mutex; only the in-memory index, the recency list, and the (cheap,
// same-filesystem) commit rename run under it.
type Store struct {
	objDir  string
	tmpDir  string
	quarDir string
	opts    Options

	mu     sync.Mutex
	index  map[uint64]*dent
	byAge  *dent // circular recency list sentinel-free: head = LRU
	tail   *dent // MRU
	used   int64
	tmpSeq uint64

	// onDrop fires (with no store lock held) when an object leaves the
	// disk tier involuntarily: capacity eviction, quarantine, or a failed
	// spill write. The tier uses it to advertise non-presence.
	onDrop func(cache.Object)

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	putSkipped  atomic.Int64
	evictions   atomic.Int64
	verifyFails atomic.Int64
	compressed  atomic.Int64
}

// dent is a disk-index entry, doubly linked in read-recency order.
type dent struct {
	obj        cache.Object
	stored     int64 // on-disk file size, header included
	flags      uint32
	prev, next *dent
}

// Open creates or reopens a store rooted at dir. The object index starts
// empty — call Recover to repopulate it from a previous run's files.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		objDir:  filepath.Join(dir, "objects"),
		tmpDir:  filepath.Join(dir, "tmp"),
		quarDir: filepath.Join(dir, "quarantine"),
		opts:    opts,
		index:   make(map[uint64]*dent),
	}
	for _, d := range []string{s.tmpDir, s.quarDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	for i := 0; i < 256; i++ {
		if err := os.MkdirAll(filepath.Join(s.objDir, fmt.Sprintf("%02x", i)), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
}

// OnDrop registers the involuntary-departure callback. Set before the store
// is shared.
func (s *Store) OnDrop(fn func(cache.Object)) { s.onDrop = fn }

func (s *Store) pathFor(id uint64) string {
	name := fmt.Sprintf("%016x", id)
	return filepath.Join(s.objDir, name[:2], name)
}

// recency-list helpers; callers hold s.mu.

func (s *Store) pushBack(d *dent) {
	d.prev, d.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = d
	} else {
		s.byAge = d
	}
	s.tail = d
}

func (s *Store) unlink(d *dent) {
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		s.byAge = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else {
		s.tail = d.prev
	}
	d.prev, d.next = nil, nil
}

func (s *Store) touch(d *dent) {
	if s.tail == d {
		return
	}
	s.unlink(d)
	s.pushBack(d)
}

// Put writes an object to disk. A copy already stored at the same or a
// newer version is left alone (the common case when a promoted object is
// re-evicted from memory unchanged). Capacity overflow evicts
// least-recently-read objects, firing the drop callback for each.
func (s *Store) Put(obj cache.Object, body []byte) error {
	return s.put(obj, body, nil)
}

// put is Put with a veto at the commit point: keep, when non-nil, runs
// under the index lock immediately before the rename, and a false answer
// abandons the write. A Remove ordered after the caller withdrew its claim
// therefore never loses to a write that was already in progress.
func (s *Store) put(obj cache.Object, body []byte, keep func() bool) error {
	s.mu.Lock()
	if d, ok := s.index[obj.ID]; ok && d.obj.Version >= obj.Version {
		s.mu.Unlock()
		s.putSkipped.Add(1)
		return nil
	}
	s.tmpSeq++
	seq := s.tmpSeq
	s.mu.Unlock()

	h := header{id: obj.ID, version: obj.Version, size: int64(len(body))}
	stored := body
	wasCompressed := false
	if s.opts.CompressMin > 0 && int64(len(body)) >= s.opts.CompressMin {
		if c, ok := deflateBody(body); ok {
			stored = c
			h.flags |= flagFlate
			wasCompressed = true
		}
	}
	h.bodyCRC = crc32Of(stored)

	tmp := filepath.Join(s.tmpDir, fmt.Sprintf("put-%d.tmp", seq))
	if err := writeObjectFile(tmp, h, stored); err != nil {
		os.Remove(tmp)
		return err
	}

	path := s.pathFor(obj.ID)
	fileSize := int64(headerLen + len(stored))

	s.mu.Lock()
	if d, ok := s.index[obj.ID]; ok && d.obj.Version >= obj.Version {
		s.mu.Unlock()
		s.putSkipped.Add(1)
		os.Remove(tmp)
		return nil
	}
	if keep != nil && !keep() {
		s.mu.Unlock()
		os.Remove(tmp)
		return nil
	}
	// Rename under the lock so the index can never describe a file that
	// is not yet (or no longer) in place; it is a metadata-only op on the
	// same filesystem.
	if err := os.Rename(tmp, path); err != nil {
		s.mu.Unlock()
		os.Remove(tmp)
		return fmt.Errorf("store: commit: %w", err)
	}
	if d, ok := s.index[obj.ID]; ok {
		s.used += fileSize - d.stored
		d.obj, d.stored, d.flags = obj, fileSize, h.flags
		s.touch(d)
	} else {
		d := &dent{obj: obj, stored: fileSize, flags: h.flags}
		s.index[obj.ID] = d
		s.pushBack(d)
		s.used += fileSize
	}
	dropped, paths := s.evictOverflowLocked()
	s.mu.Unlock()

	s.puts.Add(1)
	if wasCompressed {
		s.compressed.Add(1)
	}
	for _, p := range paths {
		os.Remove(p)
	}
	if s.onDrop != nil {
		for _, o := range dropped {
			s.onDrop(o)
		}
	}
	return nil
}

// evictOverflowLocked trims least-recently-read entries until used fits
// capacity, returning the dropped objects and their file paths for the
// caller to finish (deletes and callbacks run unlocked).
func (s *Store) evictOverflowLocked() ([]cache.Object, []string) {
	if s.opts.Capacity <= 0 {
		return nil, nil
	}
	var dropped []cache.Object
	var paths []string
	for s.used > s.opts.Capacity && s.byAge != nil {
		d := s.byAge
		s.unlink(d)
		delete(s.index, d.obj.ID)
		s.used -= d.stored
		dropped = append(dropped, d.obj)
		paths = append(paths, s.pathFor(d.obj.ID))
		s.evictions.Add(1)
	}
	return dropped, paths
}

// Get reads an object back, verifying the body checksum. A file that fails
// verification is quarantined (moved aside, dropped from the index, counted
// in VerifyFailures) and reported as a miss. The returned body is a fresh
// allocation — the read scratch is pooled — so callers may retain it (the
// tier promotes it straight into the memory cache).
func (s *Store) Get(id uint64) (cache.Object, []byte, bool) {
	s.mu.Lock()
	d, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return cache.Object{}, nil, false
	}
	s.touch(d)
	s.mu.Unlock()

	obj, body, err := s.readObject(id)
	if err != nil {
		s.quarantine(id)
		s.misses.Add(1)
		return cache.Object{}, nil, false
	}
	s.hits.Add(1)
	return obj, body, true
}

// readObject loads and verifies one object file. The file's own header is
// the source of truth for version/size (a concurrent Put may have replaced
// the file since the index was consulted).
func (s *Store) readObject(id uint64) (cache.Object, []byte, error) {
	f, err := os.Open(s.pathFor(id))
	if err != nil {
		return cache.Object{}, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return cache.Object{}, nil, err
	}
	n := fi.Size()
	if n < headerLen {
		return cache.Object{}, nil, errTruncated
	}

	bp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bp)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	raw := (*bp)[:n]
	if _, err := io.ReadFull(f, raw); err != nil {
		return cache.Object{}, nil, err
	}

	h, err := decodeHeader(raw)
	if err != nil {
		return cache.Object{}, nil, err
	}
	if h.id != id {
		return cache.Object{}, nil, errBadHeader
	}
	storedBody := raw[headerLen:]
	if crc32Of(storedBody) != h.bodyCRC {
		return cache.Object{}, nil, errCorrupt
	}

	var body []byte
	if h.flags&flagFlate != 0 {
		body, err = inflateBody(storedBody, h.size)
		if err != nil {
			return cache.Object{}, nil, errCorrupt
		}
	} else {
		if int64(len(storedBody)) != h.size {
			return cache.Object{}, nil, errTruncated
		}
		body = append([]byte(nil), storedBody...)
	}
	return cache.Object{ID: h.id, Size: h.size, Version: h.version}, body, nil
}

// quarantine moves a corrupt object file aside (never deleting potential
// forensic evidence) and drops the index entry.
func (s *Store) quarantine(id uint64) {
	s.mu.Lock()
	d, ok := s.index[id]
	var obj cache.Object
	if ok {
		s.unlink(d)
		delete(s.index, id)
		s.used -= d.stored
		obj = d.obj
	}
	s.mu.Unlock()

	s.verifyFails.Add(1)
	path := s.pathFor(id)
	os.Rename(path, filepath.Join(s.quarDir, filepath.Base(path)+".bad"))
	if ok && s.onDrop != nil {
		s.onDrop(obj)
	}
}

// Remove deletes an object from disk without firing the drop callback —
// the purge path owns the invalidate it implies. It reports whether the
// object was indexed.
func (s *Store) Remove(id uint64) bool {
	s.mu.Lock()
	d, ok := s.index[id]
	if ok {
		s.unlink(d)
		delete(s.index, id)
		s.used -= d.stored
	}
	s.mu.Unlock()
	if ok {
		os.Remove(s.pathFor(id))
	}
	return ok
}

// Contains reports whether the object is indexed on disk.
func (s *Store) Contains(id uint64) bool {
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	return ok
}

// IDs snapshots the IDs of every indexed object, in no particular order.
// The snapshot is taken under the index lock; callers acting on an ID
// re-check residency as usual (the re-homing scan only enqueues advisory
// informs, so a racing eviction is harmless).
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
	Objects     int           // valid objects indexed
	Bytes       int64         // their on-disk footprint
	TmpRemoved  int           // orphaned tmp files deleted
	Quarantined int           // files with bad/truncated headers moved aside
	Duration    time.Duration //
}

// Recover rebuilds the index from a previous run's files: orphaned tmp
// files (a crash mid-write) are removed, each object file's header is
// validated by a bounded worker pool, and every valid object is published
// (outside the store lock) so the caller can republish it into the hint
// plane. Bodies are NOT read here — a torn body is caught by verify-on-read
// — but a file too short to hold its uncompressed body is quarantined
// immediately. Valid objects become visible to Get incrementally as the
// scan proceeds.
func (s *Store) Recover(workers int, publish func(cache.Object)) RecoverStats {
	start := time.Now()
	var st RecoverStats

	if ents, err := os.ReadDir(s.tmpDir); err == nil {
		for _, e := range ents {
			if os.Remove(filepath.Join(s.tmpDir, e.Name())) == nil {
				st.TmpRemoved++
			}
		}
	}

	if workers <= 0 {
		workers = 4
	}
	paths := make(chan string, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards st.Objects/Bytes/Quarantined
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range paths {
				obj, stored, flags, err := s.scanFile(p)
				if err != nil {
					os.Rename(p, filepath.Join(s.quarDir, filepath.Base(p)+".bad"))
					s.verifyFails.Add(1)
					mu.Lock()
					st.Quarantined++
					mu.Unlock()
					continue
				}
				s.mu.Lock()
				if d, ok := s.index[obj.ID]; ok {
					// A live Put beat the scan to this id; keep
					// whichever version is newer.
					if d.obj.Version >= obj.Version {
						s.mu.Unlock()
						continue
					}
					s.used += stored - d.stored
					d.obj, d.stored, d.flags = obj, stored, flags
					s.mu.Unlock()
				} else {
					d := &dent{obj: obj, stored: stored, flags: flags}
					s.index[obj.ID] = d
					s.pushBack(d)
					s.used += stored
					s.mu.Unlock()
				}
				mu.Lock()
				st.Objects++
				st.Bytes += stored
				mu.Unlock()
				if publish != nil {
					publish(obj)
				}
			}
		}()
	}

	var subdirs []string
	if ents, err := os.ReadDir(s.objDir); err == nil {
		for _, e := range ents {
			if e.IsDir() {
				subdirs = append(subdirs, e.Name())
			}
		}
	}
	sort.Strings(subdirs)
	for _, sub := range subdirs {
		ents, err := os.ReadDir(filepath.Join(s.objDir, sub))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !e.IsDir() {
				paths <- filepath.Join(s.objDir, sub, e.Name())
			}
		}
	}
	close(paths)
	wg.Wait()

	// A shrunk capacity across restarts: trim to fit before serving.
	s.mu.Lock()
	dropped, drops := s.evictOverflowLocked()
	s.mu.Unlock()
	for _, p := range drops {
		os.Remove(p)
	}
	if s.onDrop != nil {
		for _, o := range dropped {
			s.onDrop(o)
		}
	}

	st.Duration = time.Since(start)
	return st
}

// scanFile header-validates one object file for recovery.
func (s *Store) scanFile(path string) (cache.Object, int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return cache.Object{}, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return cache.Object{}, 0, 0, err
	}
	var hb [headerLen]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return cache.Object{}, 0, 0, errTruncated
	}
	h, err := decodeHeader(hb[:])
	if err != nil {
		return cache.Object{}, 0, 0, err
	}
	if fmt.Sprintf("%016x", h.id) != filepath.Base(path) {
		return cache.Object{}, 0, 0, errBadHeader
	}
	// Uncompressed bodies have a known on-disk length; enforce it so a
	// truncated file never even enters the index. Compressed bodies are
	// caught by verify-on-read.
	if h.flags&flagFlate == 0 && fi.Size() != headerLen+h.size {
		return cache.Object{}, 0, 0, errTruncated
	}
	return cache.Object{ID: h.id, Size: h.size, Version: h.version}, fi.Size(), h.flags, nil
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
	Compressed     int64
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
		Compressed:     s.compressed.Load(),
	}
}

// --- file and compression helpers ---

var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

func writeObjectFile(path string, h header, stored []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	var hb [headerLen]byte
	h.encode(&hb)
	if _, err := f.Write(hb[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write: %w", err)
	}
	if _, err := f.Write(stored); err != nil {
		f.Close()
		return fmt.Errorf("store: write: %w", err)
	}
	// Intentionally no fsync: durability is best-effort, and a torn body
	// is caught by verify-on-read.
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	return nil
}

// deflateBody compresses body with flate (BestSpeed) through the shared
// pooled wire plumbing, reporting false when compression does not shrink
// it.
func deflateBody(body []byte) ([]byte, bool) {
	return wire.AppendDeflate(nil, body)
}

// inflateBody decompresses a flate-stored body into a fresh buffer of the
// recorded uncompressed size, rejecting streams that do not decode to
// exactly that size.
func inflateBody(stored []byte, size int64) ([]byte, error) {
	out, err := wire.InflateInto(nil, stored, int(size))
	if err != nil {
		return nil, errCorrupt
	}
	return out, nil
}
