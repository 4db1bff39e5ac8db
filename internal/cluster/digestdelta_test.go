package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"beyondcache/internal/digest"
	"beyondcache/internal/wire"
)

// digestGet pulls a node's digest over the peer plane (optionally presenting
// a cursor) and returns the answer's status — 200 for a full snapshot, 206
// for a delta —, its body, and the journal cursor the node stamped on it.
func digestGet(t *testing.T, n *Node, since uint64) (status uint16, body []byte, cursor uint64) {
	t.Helper()
	r := dialTestPeer(t, n.URL()).mustCall(wire.PeerHeader{Op: wire.PeerDigest, A: since}, nil)
	if r.Status != http.StatusOK && r.Status != http.StatusPartialContent {
		t.Fatalf("digest pull status %d", r.Status)
	}
	return r.Status, r.body, r.B
}

// setDigestCapacity sizes the filters of nodes the test starts after it,
// restoring the default when the test ends.
func setDigestCapacity(t *testing.T, entries int) {
	old := digestCapacity
	digestCapacity = entries
	t.Cleanup(func() { digestCapacity = old })
}

// TestDigestDeltaBytesBound is the wire-bench smoke the CI runs on every
// push: at 64Ki resident objects and 1% churn, one delta round must cost at
// most 10% of a full snapshot transfer (the issue's acceptance bound; the
// actual ratio is ~2%).
func TestDigestDeltaBytesBound(t *testing.T) {
	const objects = 64 << 10
	setDigestCapacity(t, objects)
	n := newMetaNode(t, NodeConfig{Name: "delta-bound", UseDigests: true})
	for i := uint64(1); i <= objects; i++ {
		n.loc.publish(i, true)
	}

	status, full, cursor := digestGet(t, n, 0)
	if status != http.StatusOK {
		t.Fatalf("first pull status = %d, want 200 (a full snapshot)", status)
	}
	if err := (&digest.Counting{}).UnmarshalBinary(full); err != nil {
		t.Fatalf("first pull body is not a counting filter: %v", err)
	}
	fullBytes := len(full)

	// 1% churn: evict 1%/2 of the resident set and admit as many new
	// objects, so adds+removes together touch 1% of the population.
	const churn = objects / 100 / 2
	for i := uint64(1); i <= churn; i++ {
		n.loc.publish(i, false)
		n.loc.publish(objects+i, true)
	}

	status, payload, _ := digestGet(t, n, cursor)
	if status != http.StatusPartialContent {
		t.Fatalf("churn pull status = %d, want 206 (a delta)", status)
	}
	if _, err := digest.AppendDecodedOps(nil, payload); err != nil {
		t.Fatalf("churn pull body is not delta ops: %v", err)
	}
	deltaBytes := len(payload)
	if wantOps := 2 * churn; len(payload) != wantOps*9 {
		t.Errorf("delta payload = %d bytes, want %d ops * 9", len(payload), wantOps)
	}
	if 10*deltaBytes > fullBytes {
		t.Errorf("delta round = %d bytes, full snapshot = %d: delta exceeds the 10%% bound", deltaBytes, fullBytes)
	}

	st := n.Stats()
	if st.DigestServesFull != 1 || st.DigestServesDelta != 1 {
		t.Errorf("serves full=%d delta=%d, want 1/1", st.DigestServesFull, st.DigestServesDelta)
	}
	if st.DigestServeBytesDelta != int64(deltaBytes) || st.DigestServeBytesFull != int64(fullBytes) {
		t.Errorf("serve byte counters full=%d delta=%d, want %d/%d",
			st.DigestServeBytesFull, st.DigestServeBytesDelta, fullBytes, deltaBytes)
	}
	if st.DigestCursorLost != 0 {
		t.Errorf("cursor losses = %d, want 0", st.DigestCursorLost)
	}
}

// TestDigestDeltaFleetEquivalence checks the replication invariant over the
// real wire: after a full pull and then a delta pull, the puller's copy of
// the owner's digest is byte-identical to the owner's own filter — applying
// the journaled ops reproduces the counters exactly, removals included.
func TestDigestDeltaFleetEquivalence(t *testing.T) {
	f := startDigestFleet(t, 2)
	for i := 0; i < 48; i++ {
		if _, err := f.Fetch(0, fmt.Sprintf("http://example.com/eq/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushAll() // first exchange: full snapshots (no cursor yet)

	// Churn on the owner: new admissions and a few deletions.
	for i := 48; i < 64; i++ {
		if _, err := f.Fetch(0, fmt.Sprintf("http://example.com/eq/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := f.Purge(0, fmt.Sprintf("http://example.com/eq/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.FlushAll() // second exchange: cursor-based deltas

	owner, puller := f.Nodes[0], f.Nodes[1]
	if ops := puller.Stats().DigestDeltaOps; ops == 0 {
		t.Fatal("second exchange applied no delta ops (pull fell back to a full snapshot)")
	}
	want := ownDigestBytes(owner)

	copyOf := peerOf(puller, owner.URL())
	pulled := digestsOf(puller)
	pulled.mu.RLock()
	if copyOf.digest == nil {
		pulled.mu.RUnlock()
		t.Fatal("puller holds no copy of the owner's digest")
	}
	got := copyOf.digest.AppendBinary(nil)
	pulled.mu.RUnlock()

	if !bytes.Equal(got, want) {
		t.Errorf("delta-maintained peer copy diverged from owner filter (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDigestCursorLossFallsBackToFull ages a cursor out of the journal ring
// and checks the owner detects the loss, serves a full snapshot, and counts
// it.
func TestDigestCursorLossFallsBackToFull(t *testing.T) {
	// Capacity 16 floors the journal at 1024 slots.
	setDigestCapacity(t, 16)
	n := newMetaNode(t, NodeConfig{Name: "cursor-loss", UseDigests: true})
	n.loc.publish(1, true)
	_, _, cursor := digestGet(t, n, 0)

	// Push more ops than the ring holds; the early cursor ages out. Track
	// add+remove pairs so the tiny filter never saturates into a rebuild.
	for i := uint64(2); i <= 602; i++ {
		n.loc.publish(i, true)
		n.loc.publish(i, false)
	}
	if status, _, _ := digestGet(t, n, cursor); status != http.StatusOK {
		t.Fatalf("post-overflow pull status = %d, want 200 (full fallback)", status)
	}
	if st := n.Stats(); st.DigestCursorLost != 1 {
		t.Errorf("cursor losses = %d, want 1", st.DigestCursorLost)
	}
}

// TestDigestDeltaLargerThanSnapshotServesFull: when more ops are journaled
// past the cursor than the filter itself occupies, the full snapshot is the
// cheaper transfer — served without charging a cursor loss (the cursor was
// fine).
func TestDigestDeltaLargerThanSnapshotServesFull(t *testing.T) {
	// Capacity 16 at 8 bits/entry: a 140-byte snapshot; 16 journaled ops
	// (144 bytes) already exceed it.
	setDigestCapacity(t, 16)
	n := newMetaNode(t, NodeConfig{Name: "delta-beats-full", UseDigests: true})
	n.loc.publish(1, true)
	_, _, cursor := digestGet(t, n, 0)

	for i := uint64(2); i <= 40; i++ {
		n.loc.publish(i, true)
		n.loc.publish(i, false)
	}
	if status, _, _ := digestGet(t, n, cursor); status != http.StatusOK {
		t.Fatalf("oversized-delta pull status = %d, want 200 (a full snapshot)", status)
	}
	st := n.Stats()
	if st.DigestCursorLost != 0 {
		t.Errorf("cursor losses = %d, want 0 (cursor was valid, delta just too big)", st.DigestCursorLost)
	}
	if st.DigestServesFull != 2 {
		t.Errorf("full serves = %d, want 2", st.DigestServesFull)
	}
}

// TestDigestCursorAtomicWithFrame hammers the journal with churn while a
// puller replays serves against a local replica, checking two things on
// every response: the advertised cursor matches the ops the body
// actually carries (head == since + ops), and — once the churn quiesces —
// the delta-maintained replica is byte-identical to the owner's filter. A
// cursor read outside the lock that encoded the body attributes ops
// journaled in the gap to the response without delivering them, so the
// replica silently diverges.
func TestDigestCursorAtomicWithFrame(t *testing.T) {
	setDigestCapacity(t, 64<<10)
	n := newMetaNode(t, NodeConfig{Name: "cursor-atomic", UseDigests: true})
	for i := uint64(1); i <= 1024; i++ {
		n.loc.publish(i, true)
	}

	// Serve through the locator directly (no connection in between), so the
	// serve path runs tens of thousands of times against live churn.
	serve := func(since uint64) (uint16, []byte, uint64) {
		var resp wire.PeerHeader
		body := n.loc.serveDigest(since, &resp)
		return resp.Status, body, resp.B
	}

	replica := &digest.Counting{}
	status, payload, cursor := serve(0)
	if status != http.StatusOK {
		t.Fatalf("first serve status = %d, want 200 (a full snapshot)", status)
	}
	if err := replica.UnmarshalBinary(payload); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1 << 20); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n.loc.publish(i, true)
			n.loc.publish(i, false)
		}
	}()

	apply := func(round int, status uint16, payload []byte, since, next uint64) {
		t.Helper()
		switch status {
		case http.StatusPartialContent:
			ops, err := digest.AppendDecodedOps(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			if next != since+uint64(len(ops)) {
				t.Fatalf("round %d: since %d + %d ops delivered, but response advertises cursor %d (%d ops skipped)",
					round, since, len(ops), next, next-since-uint64(len(ops)))
			}
			for _, op := range ops {
				replica.Apply(op)
			}
		case http.StatusOK:
			if err := replica.UnmarshalBinary(payload); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("round %d: unexpected digest status %d", round, status)
		}
	}

	for round := 1; round <= 20000; round++ {
		status, payload, next := serve(cursor)
		apply(round, status, payload, cursor, next)
		cursor = next
	}
	close(stop)
	wg.Wait()

	// Churn has quiesced: one more pull drains the tail, after which the
	// replica must match the owner bit for bit — any op a skewed cursor
	// skipped shows up here as a counter mismatch.
	status, payload, next := serve(cursor)
	apply(-1, status, payload, cursor, next)

	want := ownDigestBytes(n)
	if got := replica.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Error("replayed replica diverged from the owner filter")
	}
}
