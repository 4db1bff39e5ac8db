package digest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewCounting(0, 4); err == nil {
		t.Error("zero counters accepted")
	}
	if _, err := NewCounting(100, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCounting(100, 17); err == nil {
		t.Error("k=17 accepted")
	}
	if _, err := NewCountingForCapacity(0, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewCountingForCapacity(100, 0); err == nil {
		t.Error("zero bits/entry accepted")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	c, err := NewCountingForCapacity(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = rng.Uint64()
		c.Add(ids[i])
	}
	for _, id := range ids {
		if !c.MayContain(id) {
			t.Fatalf("false negative for %#x", id)
		}
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	c, err := NewCountingForCapacity(10_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		c.Add(rng.Uint64())
	}
	// Probe fresh identifiers; at 10 bits/entry theory predicts ~0.8%.
	fp := 0
	const probes = 50_000
	for i := 0; i < probes; i++ {
		if c.MayContain(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false-positive rate %.4f, want ~0.008 at 10 bits/entry", rate)
	}
}

func TestResetClears(t *testing.T) {
	c, err := NewCounting(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(42)
	if !c.MayContain(42) {
		t.Fatal("added id missing")
	}
	c.Reset()
	if c.MayContain(42) {
		t.Error("id survived reset")
	}
	for i, v := range c.counts {
		if v != 0 {
			t.Fatalf("counter %d = %d after reset", i, v)
		}
	}
}

func TestSizing(t *testing.T) {
	c, err := NewCounting(100, 4) // rounds up to 128 counters
	if err != nil {
		t.Fatal(err)
	}
	if c.Bits() != 128 || c.SizeBytes() != 128 {
		t.Errorf("bits=%d size=%d, want 128/128", c.Bits(), c.SizeBytes())
	}
	c2, err := NewCountingForCapacity(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	// k = round(8 ln2) = 6, and m = 1000×8 rounded up to a multiple of 64.
	if c2.k != 6 {
		t.Errorf("k = %d, want 6", c2.k)
	}
	if c2.Bits() != 8000 {
		t.Errorf("bits = %d, want 8000", c2.Bits())
	}
	c3, err := NewCountingForCapacity(500, 8.1)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Bits() != 4096 || c3.k != 6 {
		t.Errorf("bits=%d k=%d, want 4096/6 (ceil(4050) rounded up to 64)", c3.Bits(), c3.k)
	}
}

// TestAddedAlwaysFoundQuick: anything added is always reported present,
// for arbitrary ids and filter shapes.
func TestAddedAlwaysFoundQuick(t *testing.T) {
	f := func(ids []uint64, mRaw uint16, kRaw uint8) bool {
		m := uint64(mRaw)%4096 + 64
		k := int(kRaw)%8 + 1
		c, err := NewCounting(m, k)
		if err != nil {
			return false
		}
		for _, id := range ids {
			c.Add(id)
		}
		for _, id := range ids {
			if !c.MayContain(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
