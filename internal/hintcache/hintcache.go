// Package hintcache implements the location-hint directory of Section 3: a
// cache of small, fixed-sized records mapping an object (an 8-byte hash of
// its URL) to the machine holding the nearest known copy (an 8-byte machine
// identifier). Records are 16 bytes and live in a k-way set-associative
// array, exactly as in the paper's Squid prototype (Section 3.2.1), so a
// hint cache can index two to three orders of magnitude more objects than
// the data cache it sits next to.
//
// There is one table, Striped, and both the cluster node and the trace
// simulator (internal/hints) run it. An object's set is its mixed hash
// modulo the table's set count (setOf), so what the table holds depends on
// its entries and ways alone; a stripe is a lock and nothing more. A set
// keeps an object's two most recent holders, so that the newest copy going
// first does not leave the older one invisible to the fleet.
package hintcache

import (
	"crypto/md5"
	"encoding/binary"
)

// RecordSize is the on-disk/in-memory size of one hint record in bytes:
// an 8-byte URL hash plus an 8-byte machine identifier.
const RecordSize = 16

// invalidHash marks an empty slot. A real URL hash of zero is remapped to 1
// on insert (a special value for the hash signifies an invalid entry, per
// the paper's footnote).
const invalidHash = 0

// urlStack bounds the URLs HashURL hashes without a heap copy.
const urlStack = 256

// Record is one location hint: the nearest known holder of an object.
type Record struct {
	URLHash uint64
	Machine uint64
}

// HashURL derives the 8-byte object identifier from a URL, held as a string
// or as the bytes a peer call carries it in: the low 8 bytes of the URL's
// MD5 signature, as in the prototype. A URL of up to urlStack bytes is
// hashed from a copy on the stack, so the fetch path's hash allocates
// nothing.
func HashURL[U string | []byte](url U) uint64 {
	var buf [urlStack]byte
	var sum [md5.Size]byte
	if len(url) <= len(buf) {
		sum = md5.Sum(buf[:copy(buf[:], url)])
	} else {
		sum = md5.Sum([]byte(url))
	}
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

// setOf maps a URL hash to its set among sets.
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

// Stats reports cache-level counters.
type Stats struct {
	Lookups   int64
	Hits      int64
	Inserts   int64
	Evictions int64
	Deletes   int64
	Conflicts int64
	// FilterRejects counts inform inserts dropped by an installed insert
	// filter (Striped.SetInsertFilter).
	FilterRejects int64
}

// EntriesForBytes converts a table budget in bytes to an entry count.
func EntriesForBytes(bytes int64) int {
	n := bytes / RecordSize
	if n < 1 {
		n = 1
	}
	return int(n)
}
