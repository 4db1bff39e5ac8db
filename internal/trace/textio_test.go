package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	p := smallProfile()
	p.Requests = 2_000
	orig, err := ReadAll(MustGenerator(p))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := WriteText(&buf, NewSliceReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(orig)) {
		t.Fatalf("wrote %d requests, want %d", n, len(orig))
	}

	parsed, err := ReadAll(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("parsed %d requests, want %d", len(parsed), len(orig))
	}
	for i := range orig {
		if parsed[i] != orig[i] {
			t.Fatalf("request %d: parsed %+v != original %+v", i, parsed[i], orig[i])
		}
	}
}

func TestTextReaderSkipsCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\n0 0 1 2 100 1 -\n# mid comment\n1 5 3 4 200 2 ue\n"
	reqs, err := ReadAll(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if !reqs[1].Uncachable || !reqs[1].Error {
		t.Errorf("flags not parsed: %+v", reqs[1])
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",               // too few fields
		"x 0 1 2 100 1 -\n",     // bad seq
		"0 y 1 2 100 1 -\n",     // bad time
		"0 0 z 2 100 1 -\n",     // bad client
		"0 0 1 q 100 1 -\n",     // bad object
		"0 0 1 2 sz 1 -\n",      // bad size
		"0 0 1 2 100 vv -\n",    // bad version
		"0 0 1 2 100 1 weird\n", // bad flags
	}
	for _, in := range cases {
		r := NewTextReader(strings.NewReader(in))
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("input %q: expected a parse error, got %v", in, err)
		}
	}
}

func TestSliceReaderReset(t *testing.T) {
	reqs := []Request{{Seq: 0}, {Seq: 1}}
	r := NewSliceReader(reqs)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	r.Reset()
	got, err := r.Next()
	if err != nil || got.Seq != 0 {
		t.Fatalf("after reset got (%+v, %v), want seq 0", got, err)
	}
}

func TestObjectURLStable(t *testing.T) {
	if ObjectURL(7) != ObjectURL(7) {
		t.Error("ObjectURL not deterministic")
	}
	if ObjectURL(7) == ObjectURL(8) {
		t.Error("distinct objects share a URL")
	}
	if ObjectURL(0) == "" || !strings.HasPrefix(ObjectURL(0), "http://") {
		t.Errorf("unexpected URL form: %q", ObjectURL(0))
	}
}

// TestObjectURLMatchesItsFormat: the URL is byte for byte the format it was
// first written as, fmt's, across the widths of both numbers in it — every
// generated schedule, and so every determinism golden and scenario
// fingerprint, is built from these bytes — and costs one allocation.
func TestObjectURLMatchesItsFormat(t *testing.T) {
	for _, id := range []uint64{0, 63, 64, 4095, 1 << 32, math.MaxUint64} {
		want := fmt.Sprintf("http://server-%d.example.com/obj/%d", id/64, id)
		if got := ObjectURL(id); got != want {
			t.Errorf("ObjectURL(%d) = %q, want %q", id, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ObjectURL(math.MaxUint64) }); allocs != 1 {
		t.Errorf("ObjectURL allocates %.0f, want the string's 1", allocs)
	}
}
