package digest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTrip(t *testing.T) {
	f, err := NewForCapacity(500, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = rng.Uint64()
		f.Add(ids[i])
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Bits() != f.Bits() || g.K() != f.K() {
		t.Fatalf("shape changed: %d/%d -> %d/%d", f.Bits(), f.K(), g.Bits(), g.K())
	}
	for _, id := range ids {
		if !g.MayContain(id) {
			t.Fatalf("decoded filter lost %#x", id)
		}
	}
	// Membership answers agree exactly on arbitrary probes.
	for i := 0; i < 5000; i++ {
		id := rng.Uint64()
		if f.MayContain(id) != g.MayContain(id) {
			t.Fatalf("filters disagree on %#x", id)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),                      // short
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // zero bits
		append(make([]byte, 12), 1, 2, 3),    // misaligned body
	}
	for i, data := range cases {
		var f Filter
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Bad hash count.
	good, _ := NewForCapacity(10, 8)
	data, _ := good.MarshalBinary()
	data[8] = 200
	if _, err := Decode(data); err == nil {
		t.Error("bad hash count accepted")
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(ids []uint64) bool {
		fl, err := NewForCapacity(len(ids)+1, 8)
		if err != nil {
			return false
		}
		for _, id := range ids {
			fl.Add(id)
		}
		data, err := fl.MarshalBinary()
		if err != nil {
			return false
		}
		g, err := Decode(data)
		if err != nil {
			return false
		}
		for _, id := range ids {
			if !g.MayContain(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
