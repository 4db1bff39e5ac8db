package cluster

import (
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/wire"
)

// draining reports whether the peer's sender has a drain goroutine running.
func draining(p *peer) bool {
	p.sender.mu.Lock()
	defer p.sender.mu.Unlock()
	return p.sender.idle != nil
}

// heldPeer is a stub peer that holds every hint call until the test answers
// it: arrived carries the object hashes of each batch as it comes in, and the
// call is answered with the next status sent on answer.
type heldPeer struct {
	*stubPeer
	arrived chan []uint64
	answer  chan uint16
}

func newHeldPeer(t *testing.T) *heldPeer {
	h := &heldPeer{arrived: make(chan []uint64, 16), answer: make(chan uint16, 16)}
	h.stubPeer = newStubPeer(t, func(req wire.PeerHeader, body []byte) (wire.PeerHeader, []byte) {
		if req.Op != wire.PeerHints {
			return wire.PeerHeader{Status: http.StatusNoContent}, nil
		}
		us, err := hintcache.AppendDecodedUpdates(nil, body)
		if err != nil {
			t.Errorf("hint call body: %v", err)
		}
		hashes := make([]uint64, len(us))
		for i, u := range us {
			hashes[i] = u.URLHash
		}
		h.arrived <- hashes
		return wire.PeerHeader{Status: <-h.answer}, nil
	})
	return h
}

// next is the next batch to reach the peer, still unanswered.
func (h *heldPeer) next(t *testing.T) []uint64 {
	t.Helper()
	select {
	case hashes := <-h.arrived:
		return hashes
	case <-time.After(5 * time.Second):
		t.Fatal("no hint batch reached the peer within 5s")
		return nil
	}
}

// TestSenderDrainsInOrderAndGoesIdle states what a peer's sender promises,
// against a peer that holds its answers:
//
//	(i)   a peer's batches arrive in enqueue order, a failed one retried to
//	      the end before the next starts, even when the next round was
//	      enqueued while the retries ran;
//	(ii)  a waited Flush returns only after a share that was already in
//	      flight when it was called has been delivered or abandoned, whether
//	      or not the Flush had anything of its own to send;
//	(iii) once Flush has returned, and once Close has, no sender has a
//	      drain goroutine running.
func TestSenderDrainsInOrderAndGoesIdle(t *testing.T) {
	held := newHeldPeer(t)
	n := newMetaNode(t, NodeConfig{Name: "sender"})
	target := peerOf(n, held.URL)
	expect := func(what string, want ...uint64) {
		t.Helper()
		if got := held.next(t); !slices.Equal(got, want) {
			t.Fatalf("%s: the peer received %v, want %v", what, got, want)
		}
	}
	// flush runs a waited round on the side and checks it is still waiting
	// a little later; the channel closes when it returns.
	flush := func(while string) chan struct{} {
		t.Helper()
		flushed := make(chan struct{})
		go func() {
			n.Flush()
			close(flushed)
		}()
		select {
		case <-flushed:
			t.Fatalf("Flush returned while %s", while)
		case <-time.After(50 * time.Millisecond):
		}
		return flushed
	}

	// (i) Round A is in flight and held; round B is enqueued behind it; A
	// fails once and is retried before B is sent.
	n.loc.publish(1, true)
	n.loc.round(false)
	expect("round A", 1)
	n.loc.publish(2, true)
	n.loc.round(false)
	if !draining(target) {
		t.Fatal("no drain running while a batch is unanswered")
	}
	held.answer <- http.StatusInternalServerError
	expect("round A's retry", 1)
	held.answer <- http.StatusNoContent
	expect("round B", 2)

	// (ii) B is in flight. A Flush with nothing to send waits for it.
	flushed := flush("an earlier round's share was unanswered")
	held.answer <- http.StatusNoContent
	<-flushed
	// (iii)
	if draining(target) {
		t.Error("a drain is still running after Flush returned")
	}

	// (ii) A Flush waits for its own share, delivered...
	n.loc.publish(3, true)
	flushed = flush("its own share was unanswered")
	expect("Flush's share", 3)
	held.answer <- http.StatusNoContent
	<-flushed
	if st := n.Stats(); st.BatchesSent != 3 || st.Retries != 1 || st.SendErrors != 0 {
		t.Errorf("batches sent, retries, send errors = %d, %d, %d; want 3, 1, 0", st.BatchesSent, st.Retries, st.SendErrors)
	}
	// ...or abandoned: every attempt refused, it returns once the retry
	// budget is spent.
	n.loc.publish(4, true)
	for i := 0; i < 3; i++ {
		held.answer <- http.StatusInternalServerError
	}
	n.Flush()
	if draining(target) {
		t.Error("a drain is still running after Flush abandoned its share")
	}
	if st := n.Stats(); st.BatchesSent != 3 || st.SendErrors != 1 {
		t.Errorf("after an abandoned share: batches sent %d, send errors %d; want 3, 1", st.BatchesSent, st.SendErrors)
	}

	// (iii) Close's last round finds a record queued; when it returns the
	// record has been sent and nothing is running.
	n.loc.publish(1, false)
	held.answer <- http.StatusNoContent
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if draining(target) {
		t.Error("a drain is still running after Close")
	}
	if st := n.Stats(); st.BatchesSent != 4 {
		t.Errorf("Close's last round: %d batches sent in all, want 4", st.BatchesSent)
	}
}

// TestFleetIdleAfterFlushAll is property (iii) fleet-wide, with every node
// feeding every other at once: after FlushAll on a fleet nobody is writing
// to, no node has a sender draining to any peer.
func TestFleetIdleAfterFlushAll(t *testing.T) {
	f := startFleet(t, 4, FleetConfig{ObjectSize: 128})
	var wg sync.WaitGroup
	for i := range f.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range urlsN("idle", 32) {
				if _, err := f.Fetch(i, u); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	f.FlushAll()
	for i, n := range f.Nodes {
		for _, p := range n.peerList() {
			if draining(p) {
				t.Errorf("node %d: sender to %s still draining after FlushAll", i, p.host)
			}
			if p.sender.q.len() != 0 {
				t.Errorf("node %d: %d records still queued for %s after FlushAll", i, p.sender.q.len(), p.host)
			}
		}
	}
}
