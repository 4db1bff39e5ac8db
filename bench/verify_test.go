package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeNode serves /fetch the way a node would, with knobs for each kind of
// wrong answer the verifier must catch.
type fakeNode struct {
	size    int
	version int64
	flip    bool // corrupt one body byte
	short   bool // drop the last body byte
	status  int
}

func (f *fakeNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.status != 0 {
		http.Error(w, "broken", f.status)
		return
	}
	body := originBody(r.URL.Query().Get("url"), f.version, f.size)
	if f.flip {
		body[len(body)/2] ^= 0x20
	}
	if f.short {
		body = body[:len(body)-1]
	}
	w.Header()[headerCache] = []string{"LOCAL"}
	w.Header()[headerVersion] = []string{strconv.FormatInt(f.version, 10)}
	w.Write(body)
}

// fetchOnce drives the real client path (transport, body read, verifier)
// against the fake node.
func fetchOnce(cl *client, obj uint64) { cl.fetch(0, obj, time.Time{}) }

func newTestClient(t *testing.T, node *fakeNode) *client {
	t.Helper()
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)
	urls, queries := objectTables(4)
	cl := newClient(0, target{hosts: []string{strings.TrimPrefix(srv.URL, "http://")}}, urls, queries, int64(node.size))
	t.Cleanup(cl.close)
	return cl
}

func TestVerifierCountsEachKindOfWrongResponse(t *testing.T) {
	for _, size := range []int{100, 4096, 70000} {
		node := &fakeNode{size: size, version: 3}
		cl := newTestClient(t, node)

		fetchOnce(cl, 1)
		if cl.failed != 0 || len(cl.samples) != 1 {
			t.Fatalf("size %d: correct response rejected: %v", size, cl.firstErr)
		}

		cases := []struct {
			name  string
			spoil func()
			want  string
		}{
			{"flipped byte", func() { node.flip = true }, "differs from the origin pattern"},
			{"short body", func() { node.short = true }, "bytes, want"},
			{"regressed version", func() { node.version = 2 }, "version 2 after version 3"},
			{"status", func() { node.status = http.StatusBadGateway }, "status 502"},
		}
		for _, tc := range cases {
			*node = fakeNode{size: size, version: 3}
			tc.spoil()
			before := cl.failed
			cl.firstErr = nil
			fetchOnce(cl, 1)
			if cl.failed != before+1 {
				t.Errorf("size %d: %s not counted as a failure", size, tc.name)
			} else if !strings.Contains(cl.firstErr.Error(), tc.want) {
				t.Errorf("size %d: %s: error %q, want it to mention %q", size, tc.name, cl.firstErr, tc.want)
			}
		}
		if got := len(cl.samples); got != 1 {
			t.Errorf("size %d: wrong responses left %d latency samples, want 1", size, got)
		}

		// The failures feed error_rate through the window's counts.
		win := window{clients: []*client{cl}}
		if win.attempted() != 5 || win.failed() != 4 {
			t.Errorf("size %d: window counts %d attempted / %d failed, want 5 / 4", size, win.attempted(), win.failed())
		}
	}
}

func TestVerifierVersionFloorIsPerObjectAndFollowsWrites(t *testing.T) {
	node := &fakeNode{size: 512, version: 1}
	cl := newTestClient(t, node)
	fetchOnce(cl, 0)
	cl.v.wrote(0, 2) // this client bumped object 0 to version 2
	fetchOnce(cl, 0)
	if cl.failed != 1 {
		t.Fatalf("version 1 after writing version 2 was accepted")
	}
	fetchOnce(cl, 1) // another object is still free to be at version 1
	if cl.failed != 1 {
		t.Fatalf("object 1 inherited object 0's version floor: %v", cl.firstErr)
	}
	node.version = 5
	fetchOnce(cl, 0)
	if cl.failed != 1 {
		t.Fatalf("newer version rejected: %v", cl.firstErr)
	}
}
