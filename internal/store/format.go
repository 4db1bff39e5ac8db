package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Log record format: a fixed 40-byte header followed by the body.
// Everything is little-endian.
//
//	[0:4)   magic "BCS2"
//	[4:8)   flags (bit 1: tombstone; every other bit must be clear)
//	[8:16)  object id (the url hash)
//	[16:24) object version
//	[24:28) body length
//	[28:32) stored body length (what follows the header): the body length
//	[32:36) CRC-32C of the body bytes
//	[36:40) CRC-32C of header bytes [0:36)
//
// The header checksum and the stored length let recovery walk a segment
// header to header without reading a body; the body checksum is verified on
// every read, so a torn write (nothing is fsynced) or bit rot is caught
// before the object is served. A tombstone is a header with no body: every
// earlier record of its id is void. Bit 0 once marked a flate-compressed
// body; a header carrying it, or any other unknown flag, is invalid.
const (
	magic     = 0x42435332 // "BCS2"
	headerLen = 40
	maxBody   = math.MaxUint32

	flagTomb = 1 << 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errTooLarge = errors.New("store: body exceeds the 4 GiB record limit")
	errClosed   = errors.New("store: closed")
)

type header struct {
	flags   uint32
	id      uint64
	version int64
	size    uint32 // body length
	stored  uint32 // bytes following the header: size
	bodyCRC uint32 // CRC-32C over the body
}

func (h header) encode(buf *[headerLen]byte) {
	binary.LittleEndian.PutUint32(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], h.flags)
	binary.LittleEndian.PutUint64(buf[8:16], h.id)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.version))
	binary.LittleEndian.PutUint32(buf[24:28], h.size)
	binary.LittleEndian.PutUint32(buf[28:32], h.stored)
	binary.LittleEndian.PutUint32(buf[32:36], h.bodyCRC)
	binary.LittleEndian.PutUint32(buf[36:40], crc32.Checksum(buf[0:36], castagnoli))
}

// decodeHeader reports false for a header that fails its checksum or magic,
// carries a flag other than the tombstone bit, or whose lengths disagree: a
// body record stores exactly its body, a tombstone nothing.
func decodeHeader(buf []byte) (header, bool) {
	if len(buf) < headerLen ||
		binary.LittleEndian.Uint32(buf[36:40]) != crc32.Checksum(buf[0:36], castagnoli) ||
		binary.LittleEndian.Uint32(buf[0:4]) != magic {
		return header{}, false
	}
	h := header{
		flags:   binary.LittleEndian.Uint32(buf[4:8]),
		id:      binary.LittleEndian.Uint64(buf[8:16]),
		version: int64(binary.LittleEndian.Uint64(buf[16:24])),
		size:    binary.LittleEndian.Uint32(buf[24:28]),
		stored:  binary.LittleEndian.Uint32(buf[28:32]),
		bodyCRC: binary.LittleEndian.Uint32(buf[32:36]),
	}
	ok := h.flags&^flagTomb == 0 && h.stored == h.size && (h.flags == 0 || h.stored == 0)
	return h, ok
}
