package digest

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestCountingAddRemove(t *testing.T) {
	c, err := NewCountingForCapacity(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = rng.Uint64()
		c.Add(ids[i])
	}
	for _, id := range ids {
		if !c.MayContain(id) {
			t.Fatalf("filter lost %#x after add", id)
		}
	}
	// Removing every identifier drains the filter back to empty.
	for _, id := range ids {
		c.Remove(id)
	}
	if c.Unsound() {
		t.Fatal("matched removes made the filter unsound")
	}
	for i, v := range c.counts {
		if v != 0 {
			t.Fatalf("counter %d = %d after removing everything", i, v)
		}
	}
	for _, id := range ids {
		if c.MayContain(id) {
			t.Fatalf("%#x still present after remove", id)
		}
	}
}

func TestCountingUnsoundOnUnmatchedRemove(t *testing.T) {
	c, err := NewCounting(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(42)
	if !c.Unsound() {
		t.Fatal("unmatched remove did not flag the filter unsound")
	}
	c.Reset()
	if c.Unsound() {
		t.Fatal("Reset did not clear the unsound flag")
	}
}

func TestCountingUnsoundOnSaturation(t *testing.T) {
	// A tiny filter (64 counters, k=1) saturates a counter after 255
	// same-position adds.
	c, err := NewCounting(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= counterMax; i++ {
		c.Add(7) // same id -> same counter every time
	}
	if !c.Unsound() {
		t.Fatal("counter saturation did not flag the filter unsound")
	}
	// The saturated position still answers present.
	if !c.MayContain(7) {
		t.Fatal("saturated id reported absent")
	}
}

func TestCountingMarshalRoundTrip(t *testing.T) {
	c, err := NewCountingForCapacity(300, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	ids := make([]uint64, 300)
	for i := range ids {
		ids[i] = rng.Uint64()
		c.Add(ids[i])
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeCounting(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Bits() != c.Bits() || g.k != c.k {
		t.Fatalf("shape changed: %d/%d -> %d/%d", c.Bits(), c.k, g.Bits(), g.k)
	}
	got := g.AppendBinary(nil)
	if !bytes.Equal(got, data) {
		t.Fatal("re-marshal of the decoded filter differs")
	}
	// UnmarshalBinary into a same-sized receiver reuses its counter slice.
	before := &g.counts[0]
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if &g.counts[0] != before {
		t.Error("UnmarshalBinary reallocated despite sufficient capacity")
	}
}

func TestCountingUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),                      // short
		{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0}, // zero counters
		append(make([]byte, 12), 1, 2, 3),    // length/declared-m mismatch
		append(countingHeader(100, 4), make([]byte, 100)...), // m not a multiple of 64
	}
	for i, data := range cases {
		var c Counting
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	good, _ := NewCountingForCapacity(10, 8)
	data, _ := good.MarshalBinary()
	data[8] = 200
	if _, err := DecodeCounting(data); err == nil {
		t.Error("bad hash count accepted")
	}
}

// BenchmarkCountingMarshal times the snapshot a node serves on a full
// digest pull, and fails if marshaling into a warm buffer allocates.
func BenchmarkCountingMarshal(b *testing.B) {
	c, err := NewCountingForCapacity(8192, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8192; i++ {
		c.Add(rng.Uint64())
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendBinary(buf[:0])
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = c.AppendBinary(buf[:0]) }); allocs != 0 {
		b.Fatalf("AppendBinary into a warm buffer allocates %.0f times per op, want 0", allocs)
	}
}
