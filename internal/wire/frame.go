// Package wire holds two binary framings. The peer-plane header (peer.go) is
// what cache nodes say to each other: one fixed header per call, the op's
// bytes bare behind it. The frame codec in this file is a length-prefixed,
// append-based layout used by the bench probe that times the hint-record
// codec; no cache node decodes one. Encoding appends into caller-supplied buffers
// (no per-record allocations), and a frame's payload may be flate-
// compressed through the pooled helpers in flate.go.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "bw"
//	2       1     format version (1)
//	3       1     kind (KindHintBatch, KindDigestFull, KindDigestDelta)
//	4       1     flags (bit 0: payload is flate-compressed)
//	5       3     reserved, must be zero
//	8       4     stored payload length (bytes following the header)
//	12      4     raw payload length (after decompression; equals stored
//	              length for uncompressed frames)
//	16      ...   payload
//
// The explicit raw length lets a decoder size its output buffer exactly and
// lets a receiver enforce its protocol limit BEFORE inflating (callers must
// check Frame.RawLen against their limit — see Payload). See DESIGN.md §13.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind identifies what a frame carries.
type Kind uint8

// Frame kinds. The zero value is invalid on the wire.
const (
	// KindHintBatch is a batch of 20-byte hint-update records
	// (hintcache.AppendUpdate encoding); a PeerHints body is the same, bare.
	KindHintBatch Kind = 1
	// KindDigestFull is a complete counting-filter digest snapshot
	// (digest.Counting.AppendBinary encoding), a PeerDigest 200 body bare.
	KindDigestFull Kind = 2
	// KindDigestDelta is an ordered run of digest add/remove ops
	// (digest.AppendOp encoding), a PeerDigest 206 body bare.
	KindDigestDelta Kind = 3

	kindMax = KindDigestDelta
)

// String labels the kind.
func (k Kind) String() string {
	switch k {
	case KindHintBatch:
		return "hint-batch"
	case KindDigestFull:
		return "digest-full"
	case KindDigestDelta:
		return "digest-ops"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// frameVersion is the current format version.
const frameVersion = 1

// flagFlate marks a flate-compressed payload.
const flagFlate = 0x01

// AppendFrame appends one framed payload to dst and returns the extended
// slice. When compressMin > 0 and the payload is at least that many bytes,
// the payload is flate-compressed (pooled writers, BestSpeed) and the
// compressed form is kept only if it is actually smaller; compressMin <= 0
// never compresses.
func AppendFrame(dst []byte, kind Kind, payload []byte, compressMin int) []byte {
	start := len(dst)
	// Flags and lengths are filled in once the stored form is known.
	dst = append(dst, 'b', 'w', frameVersion, byte(kind), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	flags := byte(0)
	if compressMin > 0 && len(payload) >= compressMin {
		if c, ok := AppendDeflate(dst, payload); ok {
			dst = c
			flags = flagFlate
		}
	}
	if flags == 0 {
		dst = append(dst, payload...)
	}
	dst[start+4] = flags
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(len(dst)-start-HeaderSize))
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(len(payload)))
	return dst
}

// Frame is one decoded frame. The stored payload aliases the decode buffer;
// it is only valid while that buffer is.
type Frame struct {
	Kind       Kind
	Compressed bool
	// RawLen is the payload length after decompression. Callers MUST
	// check it against their protocol's size limit before calling
	// Payload — it is attacker-controlled until then.
	RawLen int

	stored []byte
}

// Decode parses one frame at the start of buf. rest is whatever follows the
// frame (empty for a single-frame message). The returned frame's payload
// aliases buf.
func Decode(buf []byte) (Frame, []byte, error) {
	if len(buf) < HeaderSize {
		return Frame{}, nil, fmt.Errorf("wire: message too short for a frame header (%d bytes)", len(buf))
	}
	if buf[0] != 'b' || buf[1] != 'w' {
		return Frame{}, nil, fmt.Errorf("wire: bad magic %#x %#x", buf[0], buf[1])
	}
	if buf[2] != frameVersion {
		return Frame{}, nil, fmt.Errorf("wire: unsupported format version %d", buf[2])
	}
	kind := Kind(buf[3])
	if kind == 0 || kind > kindMax {
		return Frame{}, nil, fmt.Errorf("wire: unknown frame kind %d", buf[3])
	}
	flags := buf[4]
	if flags&^byte(flagFlate) != 0 {
		return Frame{}, nil, fmt.Errorf("wire: unknown flags %#x", flags)
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return Frame{}, nil, fmt.Errorf("wire: nonzero reserved bytes")
	}
	// Length validation happens in 64-bit space: a direct int cast of an
	// attacker-controlled uint32 goes negative on 32-bit platforms, where
	// a negative bound sails past the truncation check and panics the
	// payload reslice below.
	stored := uint64(binary.LittleEndian.Uint32(buf[8:12]))
	raw := uint64(binary.LittleEndian.Uint32(buf[12:16]))
	if stored > uint64(len(buf)-HeaderSize) {
		return Frame{}, nil, fmt.Errorf("wire: truncated frame: header claims %d payload bytes, %d present",
			stored, len(buf)-HeaderSize)
	}
	if raw > math.MaxInt32 {
		return Frame{}, nil, fmt.Errorf("wire: raw payload length %d exceeds the frame maximum", raw)
	}
	compressed := flags&flagFlate != 0
	if !compressed && raw != stored {
		return Frame{}, nil, fmt.Errorf("wire: uncompressed frame with raw length %d != stored length %d", raw, stored)
	}
	if compressed && raw <= stored {
		// The encoder only keeps the compressed form when it shrank; a
		// frame claiming otherwise is corrupt (and bounds the
		// decompression ratio a decoder can be made to pay).
		return Frame{}, nil, fmt.Errorf("wire: compressed frame with raw length %d <= stored length %d", raw, stored)
	}
	f := Frame{
		Kind:       kind,
		Compressed: compressed,
		RawLen:     int(raw),
		stored:     buf[HeaderSize : HeaderSize+int(stored)],
	}
	return f, buf[HeaderSize+int(stored):], nil
}

// Payload returns the frame's decoded payload. Uncompressed payloads are
// returned as a direct view of the decode buffer (zero copy); compressed
// payloads are inflated into scratch's capacity (grown as needed). Callers
// must validate RawLen against their size limit first.
func (f *Frame) Payload(scratch []byte) ([]byte, error) {
	if !f.Compressed {
		return f.stored, nil
	}
	return InflateInto(scratch, f.stored, f.RawLen)
}
