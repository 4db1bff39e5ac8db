package hintcache

import (
	"testing"
	"testing/quick"
)

func TestHashURLProperties(t *testing.T) {
	a := HashURL("http://example.com/a")
	b := HashURL("http://example.com/b")
	if a == 0 || b == 0 {
		t.Error("HashURL produced the invalid sentinel")
	}
	if a == b {
		t.Error("distinct URLs collided (astronomically unlikely)")
	}
	if a != HashURL("http://example.com/a") {
		t.Error("HashURL not deterministic")
	}
	if HashMachine("10.0.0.1:3128") == 0 {
		t.Error("HashMachine produced zero")
	}
	// The value is the MD5 prefix whatever the URL's length or form: on
	// the stack, past it, and as bytes.
	for _, url := range []string{"", "http://server-1234.example.com/obj/78976", string(make([]byte, urlStack+1))} {
		if got, want := HashURL([]byte(url)), HashURL(url); got != want {
			t.Errorf("HashURL of %d bytes: %#x as bytes, %#x as a string", len(url), got, want)
		}
	}
	if got := HashURL("http://server-1234.example.com/obj/78976"); got != 0x6241c5087c52d53c {
		t.Errorf("HashURL = %#x, want the MD5 prefix 0x6241c5087c52d53c", got)
	}
}

// TestHashURLAllocatesNothing: the node hashes every fetched, purged and
// peer-served URL. One as long as trace.ObjectURL's, past the 32 bytes a
// plain []byte(url) conversion keeps on the stack, costs no allocation,
// held as a string or as the bytes a peer call reads.
func TestHashURLAllocatesNothing(t *testing.T) {
	url := "http://server-1234.example.com/obj/78976"
	body := []byte(url)
	if n := testing.AllocsPerRun(100, func() { HashURL(url) }); n != 0 {
		t.Errorf("HashURL(string) = %.0f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { HashURL(body) }); n != 0 {
		t.Errorf("HashURL([]byte) = %.0f allocs/op, want 0", n)
	}
}

func TestEntriesRounding(t *testing.T) {
	c := NewStriped(10, 4, 1) // rounds up to 12 entries (3 sets x 4 ways)
	if c.Entries() != 12 {
		t.Errorf("Entries = %d, want 12", c.Entries())
	}
	if c.SizeBytes() != 12*RecordSize {
		t.Errorf("SizeBytes = %d, want %d", c.SizeBytes(), 12*RecordSize)
	}
	if got := EntriesForBytes(1 << 20); got != (1<<20)/16 {
		t.Errorf("EntriesForBytes(1MB) = %d", got)
	}
	if got := EntriesForBytes(3); got != 1 {
		t.Errorf("EntriesForBytes(3) = %d, want 1 (floor)", got)
	}
}

// TestLookupAfterInsertQuick: any inserted record is immediately findable
// (inserts are never silently dropped), for arbitrary key/machine pairs and
// table shapes.
func TestLookupAfterInsertQuick(t *testing.T) {
	f := func(url, machine uint64, entriesRaw uint8, waysRaw uint8) bool {
		entries := int(entriesRaw)%512 + 1
		ways := int(waysRaw)%8 + 1
		c := NewStriped(entries, ways, 1)
		if machine == 0 {
			machine = 1
		}
		if err := c.Insert(url, machine); err != nil {
			return false
		}
		m, ok := c.Lookup(normalizeHash(url))
		return ok && m == machine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSetNeverOverflowsQuick: after arbitrary operation sequences every set
// holds no (object, machine) pair twice and no object more than
// holdersPerObject times.
func TestSetNeverOverflowsQuick(t *testing.T) {
	f := func(keys []uint16) bool {
		c := NewStriped(64, 4, 1)
		for _, k := range keys {
			c.Insert(uint64(k%200), uint64(k%3)+1)
		}
		for base := 0; base < len(c.recs); base += c.ways {
			held := map[uint64]int{}
			pairs := map[Record]bool{}
			for _, r := range c.recs[base : base+c.ways] {
				if r.URLHash == invalidHash {
					continue
				}
				if pairs[r] {
					return false // one holder recorded twice
				}
				pairs[r] = true
				if held[r.URLHash]++; held[r.URLHash] > holdersPerObject {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
