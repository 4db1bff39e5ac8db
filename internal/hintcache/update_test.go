package hintcache

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestUpdateWireSize(t *testing.T) {
	msg := AppendUpdate(nil, Update{Action: ActionInform, URLHash: 1, Machine: 2})
	if len(msg) != UpdateSize {
		t.Fatalf("encoded update is %d bytes, want %d (paper: 20-byte updates)", len(msg), UpdateSize)
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	in := []Update{
		{Action: ActionInform, URLHash: 0xdeadbeef, Machine: 42},
		{Action: ActionInvalidate, URLHash: 7, Machine: 9},
		{Action: ActionInform, URLHash: ^uint64(0), Machine: ^uint64(0)},
	}
	var msg []byte
	for _, u := range in {
		msg = AppendUpdate(msg, u)
	}
	out, err := AppendDecodedUpdates(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d updates, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("update %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := AppendDecodedUpdates(nil, make([]byte, 19)); err == nil {
		t.Error("misaligned message accepted")
	}
	bad := AppendUpdate(nil, Update{Action: Action(99), URLHash: 1, Machine: 2})
	if _, err := AppendDecodedUpdates(nil, bad); err == nil {
		t.Error("unknown action accepted")
	}
	out, err := AppendDecodedUpdates(nil, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty message: got (%v, %v), want ([], nil)", out, err)
	}
}

func TestApply(t *testing.T) {
	c := NewStriped(64, 4, 1)
	if err := c.Apply(Update{Action: ActionInform, URLHash: 5, Machine: 50}); err != nil {
		t.Fatal(err)
	}
	if m, ok := c.Lookup(5); !ok || m != 50 {
		t.Fatalf("after inform: (%d, %v)", m, ok)
	}
	// A stale invalidate names another holder: the record stays.
	if err := c.Apply(Update{Action: ActionInvalidate, URLHash: 5, Machine: 51}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(5); !ok {
		t.Fatal("a stale invalidate destroyed the record")
	}
	if err := c.Apply(Update{Action: ActionInvalidate, URLHash: 5, Machine: 50}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(5); ok {
		t.Error("record survived invalidate")
	}
	if err := c.Apply(Update{Action: Action(12), URLHash: 5}); err == nil {
		t.Error("unknown action applied without error")
	}
}

func TestActionString(t *testing.T) {
	if ActionInform.String() != "inform" || ActionInvalidate.String() != "invalidate" {
		t.Error("action labels wrong")
	}
	if Action(77).String() != "Action(77)" {
		t.Errorf("unknown action label = %q", Action(77).String())
	}
}

func TestUpdateRoundTripQuick(t *testing.T) {
	f := func(urlHash, machine uint64, inform bool) bool {
		a := ActionInvalidate
		if inform {
			a = ActionInform
		}
		in := Update{Action: a, URLHash: urlHash, Machine: machine}
		out, err := AppendDecodedUpdates(nil, AppendUpdate(nil, in))
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeAppendEquivalence: records appended one after another are the
// documented layout back to back — a little-endian 4-byte action, 8-byte
// object hash and 8-byte machine each — behind whatever dst already held.
func TestEncodeAppendEquivalence(t *testing.T) {
	us := []Update{
		{Action: ActionInform, URLHash: 1, Machine: 2},
		{Action: ActionInvalidate, URLHash: 3, Machine: 4},
	}
	appended, want := []byte("prefix"), []byte("prefix")
	for _, u := range us {
		appended = AppendUpdate(appended, u)
		want = binary.LittleEndian.AppendUint32(want, uint32(u.Action))
		want = binary.LittleEndian.AppendUint64(want, u.URLHash)
		want = binary.LittleEndian.AppendUint64(want, u.Machine)
	}
	if !bytes.Equal(appended, want) {
		t.Errorf("AppendUpdate wrote % x, want % x", appended, want)
	}
}
