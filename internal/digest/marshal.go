package digest

import (
	"encoding/binary"
	"fmt"
)

// Wire format: 8-byte bit count, 4-byte hash count, then the filter words
// little-endian. The encoder is append-based so callers that reuse a
// marshal buffer (the cluster's cached digest snapshot, the simulator's
// transfer accounting) pay zero allocations per encode once the buffer has
// grown to the filter's size.

// headerSize is the marshaled header length in bytes.
const headerSize = 12

// AppendBinary encodes the filter onto dst and returns the extended slice.
func (f *Filter) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, f.m)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.k))
	need := len(dst) + len(f.bits)*8
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, w := range f.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// MarshalBinary encodes the filter into a fresh buffer.
func (f *Filter) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, headerSize+len(f.bits)*8)), nil
}

// UnmarshalBinary decodes a filter, replacing the receiver's contents. The
// receiver's word slice is reused when its capacity suffices, so a peer
// slot that re-pulls a same-sized digest decodes allocation-free.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("digest: message too short (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint64(data[0:8])
	k := int(binary.LittleEndian.Uint32(data[8:12]))
	if k < 1 || k > 16 {
		return fmt.Errorf("digest: bad hash count %d", k)
	}
	if m == 0 || m%64 != 0 {
		return fmt.Errorf("digest: bad bit count %d", m)
	}
	words := int(m / 64)
	if len(data) != headerSize+words*8 {
		return fmt.Errorf("digest: length %d does not match %d bits", len(data), m)
	}
	bits := f.bits
	if cap(bits) < words {
		bits = make([]uint64, words)
	}
	bits = bits[:words]
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[headerSize+i*8:])
	}
	f.bits = bits
	f.m = m
	f.k = k
	f.n = 0 // unknown after transfer; only stats are affected
	return nil
}

// Decode parses a marshaled filter into a fresh Filter.
func Decode(data []byte) (*Filter, error) {
	f := &Filter{}
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return f, nil
}
