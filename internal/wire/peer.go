package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Peer-plane framing: what two cache nodes say to each other once GET /peer
// has upgraded a connection (DESIGN.md §15). A call and its answer are each
// one frame: this fixed header, then Len body bytes. A caller holds its
// connection for one call at a time and the peer answers calls in the order
// they arrive; the caller numbers its calls and the answer echoes the ID and
// the op, so an answer that is not the call's is caught.
//
// Header layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "bp"
//	2       1     op (PeerObject … PeerPing)
//	3       1     flags (bit 0: response, bit 1: sampled)
//	4       2     status (responses; zero in requests)
//	6       2     reserved, must be zero
//	8       8     call ID
//	16      24    A, B, C: the op's fixed fields (table below)
//	40      4     body length
//
// What each op puts in the fixed fields and the body (unused ones are
// zero / empty; statuses are HTTP's numbers, zero meaning the server
// aborted the call unanswered):
//
//	op      request                              response
//	object  A trace ID if sampled; body = URL    A version, B serve self-time ns; body = object
//	                                             (404 not here; 409 not here, a fill in flight)
//	holder  A trace ID if sampled, B URL hash,   A holder machine ID, B serve self-time ns;
//	        C asker machine ID (0: none)         from a home holding the object itself:
//	                                             A its own machine ID, C version; body = object
//	                                             (404 no holder on record)
//	hints   A sender machine ID, B unused,       status only (400 not whole records)
//	        C oldest-enqueue Unix ns;
//	        body = the batch's 20-byte records
//	digest  A journal cursor (0: none)           B next cursor, C generated-at Unix ns;
//	                                             200: body = the counting filter;
//	                                             206: body = the journal ops since A
//	ping    —                                    status only
//
// A body is the op's bytes and nothing else: Len is the one length a call
// declares. It is attacker-controlled: a receiver checks Len against the
// op's limit before reading or allocating anything.

// PeerOp names a peer-plane exchange.
type PeerOp uint8

// Peer ops. The zero value is invalid on the wire.
const (
	PeerObject PeerOp = 1 + iota
	PeerHolder
	PeerHints
	PeerDigest
	PeerPing

	peerOpMax = PeerPing
)

// PeerHeaderSize is the fixed peer-frame header length in bytes.
const PeerHeaderSize = 44

const (
	peerFlagResponse = 0x01
	peerFlagSampled  = 0x02
)

// PeerHeader is the fixed part of one peer-plane frame.
type PeerHeader struct {
	Op       PeerOp
	Response bool
	// Sampled marks a call made on behalf of a sampled /fetch: the server
	// records its span under the trace ID the call carries.
	Sampled bool
	Status  uint16
	ID      uint64
	A, B, C uint64
	// Len is the number of body bytes that follow the header.
	Len int
}

// AppendPeerHeader appends h's encoding to dst.
func AppendPeerHeader(dst []byte, h PeerHeader) []byte {
	flags := byte(0)
	if h.Response {
		flags |= peerFlagResponse
	}
	if h.Sampled {
		flags |= peerFlagSampled
	}
	dst = append(dst, 'b', 'p', byte(h.Op), flags)
	dst = binary.LittleEndian.AppendUint16(dst, h.Status)
	dst = append(dst, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, h.ID)
	dst = binary.LittleEndian.AppendUint64(dst, h.A)
	dst = binary.LittleEndian.AppendUint64(dst, h.B)
	dst = binary.LittleEndian.AppendUint64(dst, h.C)
	return binary.LittleEndian.AppendUint32(dst, uint32(h.Len))
}

// DecodePeerHeader parses the header at the start of buf.
func DecodePeerHeader(buf []byte) (PeerHeader, error) {
	if len(buf) < PeerHeaderSize {
		return PeerHeader{}, fmt.Errorf("wire: %d bytes is short of a peer header", len(buf))
	}
	if buf[0] != 'b' || buf[1] != 'p' {
		return PeerHeader{}, fmt.Errorf("wire: bad peer magic %#x %#x", buf[0], buf[1])
	}
	op, flags := PeerOp(buf[2]), buf[3]
	if op == 0 || op > peerOpMax {
		return PeerHeader{}, fmt.Errorf("wire: unknown peer op %d", buf[2])
	}
	if flags&^byte(peerFlagResponse|peerFlagSampled) != 0 || buf[6] != 0 || buf[7] != 0 {
		return PeerHeader{}, fmt.Errorf("wire: unknown peer flags %#x or nonzero reserved bytes", flags)
	}
	// Validated in 64-bit space, as Decode does: an int cast of a hostile
	// uint32 goes negative on 32-bit platforms.
	n := uint64(binary.LittleEndian.Uint32(buf[40:44]))
	if n > math.MaxInt32 {
		return PeerHeader{}, fmt.Errorf("wire: peer body length %d exceeds the frame maximum", n)
	}
	return PeerHeader{
		Op:       op,
		Response: flags&peerFlagResponse != 0,
		Sampled:  flags&peerFlagSampled != 0,
		Status:   binary.LittleEndian.Uint16(buf[4:6]),
		ID:       binary.LittleEndian.Uint64(buf[8:16]),
		A:        binary.LittleEndian.Uint64(buf[16:24]),
		B:        binary.LittleEndian.Uint64(buf[24:32]),
		C:        binary.LittleEndian.Uint64(buf[32:40]),
		Len:      int(n),
	}, nil
}
