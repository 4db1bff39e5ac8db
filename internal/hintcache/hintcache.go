// Package hintcache implements the location-hint directory of Section 3: a
// cache of small, fixed-sized records mapping an object (an 8-byte hash of
// its URL) to the machine holding the nearest known copy (an 8-byte machine
// identifier). Records are 16 bytes and live in a k-way set-associative
// array, exactly as in the paper's Squid prototype (Section 3.2.1), so a
// hint cache can index two to three orders of magnitude more objects than
// the data cache it sits next to.
//
// Two tables share the record and the set layout: an object's set is its
// mixed hash modulo the table's set count (setOf), so what a table holds
// depends on its entries and ways alone. Cache is the paper's: one record per
// object, the nearest known copy, behind a Store; it is the simulator's
// table, and Figures 4-5 are drawn from it. Two backing stores are provided
// for it: an in-memory array (the common case, with lookups measured in
// nanoseconds) and a file-backed array (for hint tables larger than memory,
// with one pread per lookup, mirroring the paper's memory-mapped file).
// Striped is the live table a cluster node runs: lock striped for
// concurrent probes, a stripe being a lock and nothing more, and keeping an
// object's two most recent holders, so that the newest copy going first
// does not leave the older one invisible to the fleet.
package hintcache

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
)

// RecordSize is the on-disk/in-memory size of one hint record in bytes:
// an 8-byte URL hash plus an 8-byte machine identifier.
const RecordSize = 16

// invalidHash marks an empty slot. A real URL hash of zero is remapped to 1
// on insert (a special value for the hash signifies an invalid entry, per
// the paper's footnote).
const invalidHash = 0

// Record is one location hint: the nearest known holder of an object.
type Record struct {
	URLHash uint64
	Machine uint64
}

// HashURL derives the 8-byte object identifier from a URL: the low 8 bytes
// of the URL's MD5 signature, as in the prototype.
func HashURL(url string) uint64 {
	sum := md5.Sum([]byte(url))
	h := binary.LittleEndian.Uint64(sum[:8])
	if h == invalidHash {
		h = 1
	}
	return h
}

// HashMachine derives a machine identifier from an address string (IP and
// port in the prototype).
func HashMachine(addr string) uint64 {
	sum := md5.Sum([]byte(addr))
	m := binary.LittleEndian.Uint64(sum[:8])
	if m == 0 {
		m = 1
	}
	return m
}

// Store is the backing array of a hint cache: fixed-size sets of slots
// indexed by set number. Implementations must return slices of exactly
// ways records from ReadSet, and persist what WriteSet stores.
type Store interface {
	// ReadSet fills dst (len = ways) with the records of set idx.
	ReadSet(idx int, dst []Record) error
	// WriteSet persists the records of set idx from src (len = ways).
	WriteSet(idx int, src []Record) error
	// Sets returns the number of sets.
	Sets() int
	// Ways returns the associativity.
	Ways() int
	// Close releases resources.
	Close() error
}

// Cache is a k-way set-associative hint cache over a Store. Within a set,
// slot 0 is the most recently used record; replacement evicts the last slot.
// Cache is not safe for concurrent use.
type Cache struct {
	store Store
	sets  int
	ways  int
	buf   []Record

	lookups  int64
	hits     int64
	inserts  int64
	evicts   int64
	deletes  int64
	conflict int64 // inserts that displaced a different URL
}

// New builds a hint cache over the given store.
func New(store Store) *Cache {
	return &Cache{
		store: store,
		sets:  store.Sets(),
		ways:  store.Ways(),
		buf:   make([]Record, store.Ways()),
	}
}

// NewMem builds a hint cache over an in-memory store with the given total
// capacity in entries and associativity. Capacity is rounded up to a whole
// number of sets.
func NewMem(entries, ways int) *Cache {
	return New(NewMemStore(entries, ways))
}

// Entries returns the total slot count.
func (c *Cache) Entries() int { return c.sets * c.ways }

// SizeBytes returns the table size in bytes (entries x 16).
func (c *Cache) SizeBytes() int64 { return int64(c.Entries()) * RecordSize }

// setOf maps a URL hash to its set among sets, for Cache and Striped alike.
// Mix before reducing: URL hashes are already MD5-derived, but the
// simulators also feed dense object IDs through this path.
func setOf(urlHash uint64, sets int) int {
	return int(urlHash * 0x9e3779b97f4a7c15 % uint64(sets))
}

func normalizeHash(urlHash uint64) uint64 {
	if urlHash == invalidHash {
		return 1
	}
	return urlHash
}

// Lookup returns the machine holding the nearest known copy of the object.
func (c *Cache) Lookup(urlHash uint64) (machine uint64, ok bool) {
	urlHash = normalizeHash(urlHash)
	c.lookups++
	idx := setOf(urlHash, c.sets)
	if err := c.store.ReadSet(idx, c.buf); err != nil {
		return 0, false
	}
	for i, r := range c.buf {
		if r.URLHash == urlHash {
			c.hits++
			// Promote to MRU within the set.
			if i != 0 {
				copy(c.buf[1:i+1], c.buf[:i])
				c.buf[0] = r
				if err := c.store.WriteSet(idx, c.buf); err != nil {
					return 0, false
				}
			}
			return r.Machine, true
		}
	}
	return 0, false
}

// Insert records that machine holds a copy of the object, replacing any
// previous hint for the same object and evicting the set's LRU slot if the
// set is full.
func (c *Cache) Insert(urlHash, machine uint64) error {
	urlHash = normalizeHash(urlHash)
	idx := setOf(urlHash, c.sets)
	if err := c.store.ReadSet(idx, c.buf); err != nil {
		return fmt.Errorf("hint insert: %w", err)
	}
	c.inserts++
	pos := -1
	for i, r := range c.buf {
		if r.URLHash == urlHash {
			pos = i
			break
		}
	}
	if pos == -1 {
		// Take the first invalid slot, else evict the LRU (last) slot.
		pos = c.ways - 1
		for i, r := range c.buf {
			if r.URLHash == invalidHash {
				pos = i
				break
			}
		}
		if c.buf[pos].URLHash != invalidHash {
			c.evicts++
			c.conflict++
		}
	}
	// Shift down and install at MRU.
	copy(c.buf[1:pos+1], c.buf[:pos])
	c.buf[0] = Record{URLHash: urlHash, Machine: machine}
	if err := c.store.WriteSet(idx, c.buf); err != nil {
		return fmt.Errorf("hint insert: %w", err)
	}
	return nil
}

// Delete removes the hint for an object if the recorded machine matches (or
// machine == 0, which removes unconditionally). It reports whether a record
// was removed. A mismatched machine leaves the record in place because a
// fresher hint (pointing at a different, still-valid holder) must not be
// destroyed by a stale invalidation.
func (c *Cache) Delete(urlHash, machine uint64) bool {
	urlHash = normalizeHash(urlHash)
	idx := setOf(urlHash, c.sets)
	if err := c.store.ReadSet(idx, c.buf); err != nil {
		return false
	}
	for i, r := range c.buf {
		if r.URLHash == urlHash {
			if machine != 0 && r.Machine != machine {
				return false
			}
			// Shift the tail up; clear the last slot.
			copy(c.buf[i:], c.buf[i+1:])
			c.buf[c.ways-1] = Record{}
			if err := c.store.WriteSet(idx, c.buf); err != nil {
				return false
			}
			c.deletes++
			return true
		}
	}
	return false
}

// Stats reports cache-level counters.
type Stats struct {
	Lookups   int64
	Hits      int64
	Inserts   int64
	Evictions int64
	Deletes   int64
	Conflicts int64
	// FilterRejects counts inform inserts dropped by an installed insert
	// filter (Striped.SetInsertFilter); always zero for the unfiltered
	// single-lock Cache.
	FilterRejects int64
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:   c.lookups,
		Hits:      c.hits,
		Inserts:   c.inserts,
		Evictions: c.evicts,
		Deletes:   c.deletes,
		Conflicts: c.conflict,
	}
}

// Close closes the backing store.
func (c *Cache) Close() error { return c.store.Close() }

// EntriesForBytes converts a table budget in bytes to an entry count.
func EntriesForBytes(bytes int64) int {
	n := bytes / RecordSize
	if n < 1 {
		n = 1
	}
	return int(n)
}
