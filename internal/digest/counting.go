// Package digest implements Bloom-filter cache digests (Fan et al.'s
// Summary Cache / Squid's Cache Digests, contemporaries of the paper): each
// cache summarizes its contents in a compact filter that peers consult
// instead of an exact hint table. Digests trade the paper's 16-byte-exact
// hint records for a few bits per object, at the price of hash false
// positives and of staleness wherever a removal has not reached the filter.
//
// There is one filter, Counting. The simulator (internal/hints) rebuilds
// one per node from its true contents every rebuild interval and never
// removes, so between rebuilds an evicted object stays in it (Summary
// Cache's staleness); a nonzero counter there is exactly a plain Bloom
// filter's set bit. The live node (internal/cluster) maintains its own in
// place on every insert and evict and ships deltas of those transitions.
package digest

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Counting is a counting Bloom filter over 64-bit object identifiers: one
// saturating uint8 counter per position instead of one bit. Counters buy
// what the cluster's incremental digests need and a plain Bloom filter
// cannot give: deletion. The node maintains its own Counting in place on every
// insert/evict transition (no more O(objects) rebuild per digest pull), and
// peers replay the same add/remove op stream against their pulled copies —
// counters, and therefore membership bits, stay byte-identical to the
// owner's by construction (the delta-equivalence contract, DESIGN.md §13).
//
// Saturation is the scheme's known edge (Fan et al. analyze 4-bit counters;
// overflow probability at 8 bits is negligible): a counter stuck at 255 can
// no longer decrement soundly, so the filter flags itself unsound and the
// owner rebuilds from its exact resident set, invalidating delta cursors.
type Counting struct {
	counts []uint8
	m      uint64 // number of counters
	k      int    // number of hash functions
	// unsound is set when a counter saturates (or an unmatched remove
	// hits zero): membership answers may now have false negatives, so
	// the owner must rebuild from exact state.
	unsound bool
}

// counterMax is the saturation ceiling of one counter.
const counterMax = 0xff

// NewCounting builds a counting filter with m counters and k hash
// functions. m is rounded up to a multiple of 64, the word size of the plain
// bit vector a Summary Cache peer ships (Bits()/8 bytes).
func NewCounting(m uint64, k int) (*Counting, error) {
	if m == 0 {
		return nil, fmt.Errorf("digest: counting filter needs at least one counter")
	}
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("digest: k must be in [1,16], got %d", k)
	}
	m = (m + 63) / 64 * 64
	return &Counting{counts: make([]uint8, m), m: m, k: k}, nil
}

// NewCountingForCapacity sizes a counting filter for n entries at
// bitsPerEntry counters each, with the optimal hash count
// k = bitsPerEntry * ln2, spending a byte where a plain Bloom filter spends
// a bit.
func NewCountingForCapacity(n int, bitsPerEntry float64) (*Counting, error) {
	if n < 1 {
		return nil, fmt.Errorf("digest: capacity must be positive, got %d", n)
	}
	if bitsPerEntry <= 0 {
		return nil, fmt.Errorf("digest: bitsPerEntry must be positive, got %g", bitsPerEntry)
	}
	m := uint64(math.Ceil(float64(n) * bitsPerEntry))
	k := int(math.Round(bitsPerEntry * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return NewCounting(m, k)
}

// splitmix64 is the hash kernel used to derive the k probe positions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// probe returns the counter position of the i-th hash of id (double
// hashing).
func (c *Counting) probe(id uint64, i int) uint64 {
	h1 := splitmix64(id)
	h2 := splitmix64(id ^ 0x5bd1e9955bd1e995)
	return (h1 + uint64(i)*h2) % c.m
}

// Add inserts an identifier, saturating counters at 255. Saturation marks
// the filter unsound (a later Remove could not be applied exactly).
func (c *Counting) Add(id uint64) {
	for i := 0; i < c.k; i++ {
		p := c.probe(id, i)
		if c.counts[p] == counterMax {
			c.unsound = true
			continue
		}
		c.counts[p]++
	}
}

// Remove deletes an identifier previously Added. Removing an identifier
// that was never added (a counter already at zero) marks the filter
// unsound instead of wrapping.
func (c *Counting) Remove(id uint64) {
	for i := 0; i < c.k; i++ {
		p := c.probe(id, i)
		if c.counts[p] == 0 {
			c.unsound = true
			continue
		}
		c.counts[p]--
	}
}

// MayContain reports whether the identifier might be present. False
// positives are possible; false negatives only once the filter has gone
// unsound.
func (c *Counting) MayContain(id uint64) bool {
	for i := 0; i < c.k; i++ {
		if c.counts[c.probe(id, i)] == 0 {
			return false
		}
	}
	return true
}

// Unsound reports whether a saturating or unmatched operation has been
// absorbed inexactly — the owner's signal to rebuild from exact state.
func (c *Counting) Unsound() bool { return c.unsound }

// Reset clears the filter (a rebuild starts here).
func (c *Counting) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.unsound = false
}

// Bits returns the filter size in counter positions.
func (c *Counting) Bits() uint64 { return c.m }

// SizeBytes returns the wire/storage size of the counter array.
func (c *Counting) SizeBytes() int64 { return int64(c.m) }

// countingHeaderSize is the marshaled counting-filter header: 8-byte
// counter count, 4-byte hash count.
const countingHeaderSize = 12

// AppendBinary encodes the filter onto dst (8-byte counter count, 4-byte
// hash count, then the raw counter bytes) and returns the extended slice.
// Steady-state marshals into a buffer that has reached capacity allocate
// nothing.
func (c *Counting) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.m)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.k))
	return append(dst, c.counts...)
}

// MarshalBinary encodes the filter into a fresh buffer.
func (c *Counting) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, countingHeaderSize+len(c.counts))), nil
}

// UnmarshalBinary decodes a counting filter, replacing the receiver's
// contents and reusing its counter slice when the capacity suffices.
func (c *Counting) UnmarshalBinary(data []byte) error {
	if len(data) < countingHeaderSize {
		return fmt.Errorf("digest: counting message too short (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint64(data[0:8])
	k := int(binary.LittleEndian.Uint32(data[8:12]))
	if k < 1 || k > 16 {
		return fmt.Errorf("digest: bad hash count %d", k)
	}
	if m == 0 || m%64 != 0 {
		return fmt.Errorf("digest: bad counter count %d", m)
	}
	if uint64(len(data)) != countingHeaderSize+m {
		return fmt.Errorf("digest: length %d does not match %d counters", len(data), m)
	}
	counts := c.counts
	if uint64(cap(counts)) < m {
		counts = make([]uint8, m)
	}
	counts = counts[:m]
	copy(counts, data[countingHeaderSize:])
	c.counts = counts
	c.m = m
	c.k = k
	c.unsound = false
	return nil
}

// DecodeCounting parses a marshaled counting filter into a fresh Counting.
func DecodeCounting(data []byte) (*Counting, error) {
	c := &Counting{}
	if err := c.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return c, nil
}
