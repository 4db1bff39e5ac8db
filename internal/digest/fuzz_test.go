package digest

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The node decodes two things a peer sends it: a full counting-filter
// snapshot (a 200 digest answer, DecodeCounting) and a journal delta (a 206
// answer, AppendDecodedOps). Each fuzz target checks, on arbitrary bytes:
//
//  1. Decoding never panics (it may only error), and any message it
//     accepts re-encodes to the identical bytes.
//  2. Our own encoding of a filter or op stream built from the input
//     round-trips exactly, with no false negative afterwards.

// FuzzDigestMarshalRoundTrip fuzzes the full-snapshot decoder.
func FuzzDigestMarshalRoundTrip(f *testing.F) {
	valid := seedCounting(f, 256, 4).AppendBinary(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated body
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, countingHeaderSize))
	badK := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(badK[8:12], 17)
	f.Add(badK)
	odd := countingHeader(100, 4) // m not a multiple of 64
	f.Add(append(odd, make([]byte, 100)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := DecodeCounting(data); err == nil {
			if out := c.AppendBinary(nil); !bytes.Equal(out, data) {
				t.Fatalf("re-marshal differs: in %d bytes, out %d bytes", len(data), len(out))
			}
		}

		src, err := NewCountingForCapacity(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		ids := idsOf(data)
		for _, id := range ids {
			src.Add(id)
		}
		wire := src.AppendBinary(nil)
		got, err := DecodeCounting(wire)
		if err != nil {
			t.Fatalf("decode of our own encoding failed: %v", err)
		}
		if got.Bits() != src.Bits() || got.k != src.k {
			t.Fatalf("shape changed: %d/%d counters, %d/%d hashes", got.Bits(), src.Bits(), got.k, src.k)
		}
		if !bytes.Equal(got.AppendBinary(nil), wire) {
			t.Fatal("Marshal(Decode(Marshal(c))) != Marshal(c)")
		}
		for _, id := range ids {
			if !got.MayContain(id) {
				t.Fatalf("decoded filter lost id %d (false negative)", id)
			}
		}
	})
}

// FuzzDigestDeltaRoundTrip fuzzes the delta decoder, and replays our own
// op stream onto a decoded snapshot as a peer does.
func FuzzDigestDeltaRoundTrip(f *testing.F) {
	valid := AppendOp(AppendOp(nil, Op{ID: 1}), Op{ID: 1 << 40, Remove: true})
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // op length not a multiple of 9
	f.Add([]byte{})
	bad := bytes.Clone(valid)
	bad[OpSize] = 0x07 // bad action byte
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		if ops, err := AppendDecodedOps(nil, data); err == nil {
			var out []byte
			for _, op := range ops {
				out = AppendOp(out, op)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("re-encode differs: in %d bytes, out %d bytes", len(data), len(out))
			}
		}

		// Every second id is added and later removed, the rest only added.
		ids := idsOf(data)
		var wire []byte
		for i, id := range ids {
			wire = AppendOp(wire, Op{ID: id})
			if i%2 == 1 {
				wire = AppendOp(wire, Op{ID: id, Remove: true})
			}
		}
		ops, err := AppendDecodedOps(nil, wire)
		if err != nil {
			t.Fatalf("decode of our own encoding failed: %v", err)
		}
		var again []byte
		for _, op := range ops {
			again = AppendOp(again, op)
		}
		if !bytes.Equal(again, wire) {
			t.Fatal("Encode(Decode(Encode(ops))) != Encode(ops)")
		}
		owner := seedCounting(t, 256, 4)
		replica, err := DecodeCounting(owner.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			replica.Apply(op)
		}
		for i, id := range ids {
			if i%2 == 0 && !replica.MayContain(id) {
				t.Fatalf("replayed filter lost id %d (false negative)", id)
			}
		}
	})
}

// seedCounting builds a small counting filter holding two ids.
func seedCounting(tb testing.TB, m uint64, k int) *Counting {
	tb.Helper()
	c, err := NewCounting(m, k)
	if err != nil {
		tb.Fatal(err)
	}
	c.Add(1)
	c.Add(1 << 40)
	return c
}

// countingHeader is a snapshot header declaring m counters and k hashes.
func countingHeader(m uint64, k uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, m), k)
}

// idsOf derives 16-bit ids from the fuzz input, two bytes each.
func idsOf(data []byte) []uint64 {
	ids := make([]uint64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ids = append(ids, uint64(data[i])<<8|uint64(data[i+1]))
	}
	return ids
}
