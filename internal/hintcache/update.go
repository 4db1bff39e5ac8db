package hintcache

import (
	"encoding/binary"
	"fmt"
)

// Action identifies what a hint update announces.
type Action uint32

// Update actions. Inform advertises a new copy; Invalidate advertises that
// a copy is gone (the prototype's inform/invalidate interface, Section 3.2).
const (
	ActionInform Action = iota + 1
	ActionInvalidate
)

// String labels the action.
func (a Action) String() string {
	switch a {
	case ActionInform:
		return "inform"
	case ActionInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("Action(%d)", uint32(a))
	}
}

// UpdateSize is the wire size of one hint update: a 4-byte action, an 8-byte
// object identifier, and an 8-byte machine identifier (Section 3.2).
const UpdateSize = 20

// Update is one entry in a batched hint-update message.
type Update struct {
	Action  Action
	URLHash uint64
	Machine uint64
}

// AppendUpdate encodes u onto dst and returns the extended slice.
func AppendUpdate(dst []byte, u Update) []byte {
	var b [UpdateSize]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(u.Action))
	binary.LittleEndian.PutUint64(b[4:12], u.URLHash)
	binary.LittleEndian.PutUint64(b[12:20], u.Machine)
	return append(dst, b[:]...)
}

// AppendDecodedUpdates parses a wire message onto dst and returns the
// extended slice, so callers can recycle the decode buffer across batches.
// It rejects messages whose length is not a multiple of UpdateSize or that
// contain an unknown action; on error the returned slice holds whatever
// decoded cleanly before the fault.
func AppendDecodedUpdates(dst []Update, msg []byte) ([]Update, error) {
	if len(msg)%UpdateSize != 0 {
		return dst, fmt.Errorf("hintcache: update message length %d not a multiple of %d",
			len(msg), UpdateSize)
	}
	for off := 0; off < len(msg); off += UpdateSize {
		u := Update{
			Action:  Action(binary.LittleEndian.Uint32(msg[off : off+4])),
			URLHash: binary.LittleEndian.Uint64(msg[off+4 : off+12]),
			Machine: binary.LittleEndian.Uint64(msg[off+12 : off+20]),
		}
		if u.Action != ActionInform && u.Action != ActionInvalidate {
			return dst, fmt.Errorf("hintcache: unknown action %d at offset %d", u.Action, off)
		}
		dst = append(dst, u)
	}
	return dst, nil
}
