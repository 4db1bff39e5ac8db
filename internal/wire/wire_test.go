package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestFrameRoundTripUncompressed(t *testing.T) {
	for _, kind := range []Kind{KindHintBatch, KindDigestFull, KindDigestDelta} {
		payload := []byte("twenty-byte-ish payload for " + kind.String())
		frame := AppendFrame(nil, kind, payload, 0)
		f, rest, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes after a single frame", kind, len(rest))
		}
		if f.Kind != kind || f.Compressed || f.RawLen != len(payload) {
			t.Fatalf("%v: header = %+v", kind, f)
		}
		got, err := f.Payload(nil)
		if err != nil {
			t.Fatalf("%v: payload: %v", kind, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v: payload mangled", kind)
		}
	}
}

func TestFrameCompression(t *testing.T) {
	// Highly compressible payload well above the threshold.
	payload := bytes.Repeat([]byte("abcdefgh"), 4096)
	frame := AppendFrame(nil, KindDigestFull, payload, 256)
	if len(frame) >= len(payload) {
		t.Fatalf("compressible payload did not shrink: %d >= %d", len(frame), len(payload))
	}
	f, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Compressed {
		t.Fatal("frame not marked compressed")
	}
	if f.RawLen != len(payload) {
		t.Fatalf("raw length %d, want %d", f.RawLen, len(payload))
	}
	got, err := f.Payload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("inflated payload differs")
	}

	// Incompressible payload: the frame must fall back to raw even though
	// it crosses the threshold.
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 4096)
	rng.Read(noise)
	frame = AppendFrame(nil, KindHintBatch, noise, 256)
	f, _, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Compressed {
		t.Fatal("incompressible payload stored compressed")
	}

	// Below the threshold: never compressed.
	frame = AppendFrame(nil, KindHintBatch, payload[:64], 256)
	if f, _, _ := Decode(frame); f.Compressed {
		t.Fatal("payload below compressMin stored compressed")
	}
}

func TestFrameAppendsToExistingBuffer(t *testing.T) {
	prefix := []byte("prefix")
	frame := AppendFrame(append([]byte(nil), prefix...), KindDigestDelta, []byte("payload"), 0)
	if !bytes.HasPrefix(frame, prefix) {
		t.Fatal("AppendFrame clobbered the existing buffer contents")
	}
	f, rest, err := Decode(frame[len(prefix):])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode after prefix: %v (rest %d)", err, len(rest))
	}
	if got, _ := f.Payload(nil); string(got) != "payload" {
		t.Fatalf("payload = %q", got)
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good := AppendFrame(nil, KindHintBatch, bytes.Repeat([]byte("x"), 100), 0)
	cases := map[string]func([]byte) []byte{
		"short":           func(b []byte) []byte { return b[:HeaderSize-1] },
		"bad magic":       func(b []byte) []byte { b[0] = 'z'; return b },
		"bad version":     func(b []byte) []byte { b[2] = 9; return b },
		"zero kind":       func(b []byte) []byte { b[3] = 0; return b },
		"unknown kind":    func(b []byte) []byte { b[3] = 200; return b },
		"unknown flags":   func(b []byte) []byte { b[4] = 0x80; return b },
		"reserved":        func(b []byte) []byte { b[5] = 1; return b },
		"truncated":       func(b []byte) []byte { return b[:len(b)-1] },
		"oversize stored": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<30); return b },
		"raw mismatch":    func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 7); return b },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), good...))
		if _, _, err := Decode(b); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	// A compressed frame whose declared raw length does not exceed the
	// stored length is corrupt by construction.
	comp := AppendFrame(nil, KindDigestFull, bytes.Repeat([]byte("y"), 4096), 64)
	if f, _, _ := Decode(comp); !f.Compressed {
		t.Fatal("setup: expected a compressed frame")
	}
	binary.LittleEndian.PutUint32(comp[12:], 1)
	if _, _, err := Decode(comp); err == nil {
		t.Error("compressed frame with raw <= stored accepted")
	}
}

// TestDecodeRejectsLengthsPastInt32 plants stored/raw lengths in the range
// that a direct int cast turns negative on 32-bit platforms; both must be
// rejected as errors (never panic) regardless of GOARCH.
func TestDecodeRejectsLengthsPastInt32(t *testing.T) {
	comp := AppendFrame(nil, KindDigestFull, bytes.Repeat([]byte("y"), 4096), 64)
	for _, raw := range []uint32{1 << 31, 0xFFFFFFFF} {
		b := append([]byte(nil), comp...)
		binary.LittleEndian.PutUint32(b[12:], raw)
		if _, _, err := Decode(b); err == nil {
			t.Errorf("raw length %#x accepted", raw)
		}
	}
	plain := AppendFrame(nil, KindHintBatch, bytes.Repeat([]byte("x"), 100), 0)
	for _, stored := range []uint32{1 << 31, 0xFFFFFFFF} {
		b := append([]byte(nil), plain...)
		binary.LittleEndian.PutUint32(b[8:], stored)
		binary.LittleEndian.PutUint32(b[12:], stored)
		if _, _, err := Decode(b); err == nil {
			t.Errorf("stored length %#x accepted", stored)
		}
	}
}

func TestPayloadRejectsBadCompressedStreams(t *testing.T) {
	frame := AppendFrame(nil, KindDigestFull, bytes.Repeat([]byte("z"), 4096), 64)
	f, _, err := Decode(frame)
	if err != nil || !f.Compressed {
		t.Fatalf("setup: %v compressed=%v", err, f.Compressed)
	}
	// Declare one byte less than the stream inflates to: the exact-length
	// check must fire.
	f.RawLen--
	if _, err := f.Payload(nil); err == nil {
		t.Error("undersized raw length accepted")
	}
	// Garbage stored bytes must error, not panic.
	g := Frame{Kind: KindDigestFull, Compressed: true, RawLen: 4096, stored: []byte("not flate")}
	if _, err := g.Payload(nil); err == nil {
		t.Error("garbage compressed stream accepted")
	}
}

func TestDecodeSequentialFrames(t *testing.T) {
	buf := AppendFrame(nil, KindHintBatch, []byte("first"), 0)
	buf = AppendFrame(buf, KindDigestDelta, []byte("second"), 0)
	f1, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	f2, rest, err := Decode(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after second frame", len(rest))
	}
	p1, _ := f1.Payload(nil)
	p2, _ := f2.Payload(nil)
	if string(p1) != "first" || string(p2) != "second" {
		t.Fatalf("payloads = %q, %q", p1, p2)
	}
}

func TestAppendDeflateInflateRoundTrip(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox "), 512)
	comp, ok := AppendDeflate(nil, src)
	if !ok {
		t.Fatal("compressible input reported incompressible")
	}
	out, err := InflateInto(nil, comp, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("round trip differs")
	}
	// Scratch reuse: a big-enough scratch must be reused, not reallocated.
	scratch := make([]byte, len(src))
	out, err = InflateInto(scratch, comp, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &scratch[0] {
		t.Error("InflateInto ignored usable scratch capacity")
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	payload := bytes.Repeat([]byte("record-bytes-20-long"), 512) // ~10 KB batch
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], KindHintBatch, payload, 0)
	}
}

// --- Peer-plane header ---

func TestPeerHeaderRoundTrip(t *testing.T) {
	for _, h := range []PeerHeader{
		{Op: PeerObject, Sampled: true, ID: 1, A: 0xDEADBEEF, Len: 27},
		{Op: PeerHolder, Response: true, Status: 404, ID: 1<<64 - 1, A: 7, B: 1500},
		{Op: PeerHints, ID: 9, A: 1, B: 2, C: 1<<64 - 1, Len: 1<<31 - 1},
		{Op: PeerPing},
	} {
		buf := AppendPeerHeader([]byte("prefix"), h)
		if len(buf) != len("prefix")+PeerHeaderSize {
			t.Fatalf("%+v encoded to %d bytes, want %d", h, len(buf)-len("prefix"), PeerHeaderSize)
		}
		got, err := DecodePeerHeader(buf[len("prefix"):])
		if err != nil || got != h {
			t.Errorf("round trip of %+v = %+v, %v", h, got, err)
		}
	}
}

func TestPeerHeaderDecodeRejects(t *testing.T) {
	good := AppendPeerHeader(nil, PeerHeader{Op: PeerPing, ID: 1})
	corrupt := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] = v
		return b
	}
	for name, buf := range map[string][]byte{
		"short":           good[:PeerHeaderSize-1],
		"bad magic":       corrupt(0, 'x'),
		"op zero":         corrupt(2, 0),
		"op past the end": corrupt(2, byte(peerOpMax)+1),
		"unknown flag":    corrupt(3, 0x80),
		"reserved byte":   corrupt(7, 1),
		"length past max": corrupt(43, 0x80),
	} {
		if h, err := DecodePeerHeader(buf); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, h)
		}
	}
}
