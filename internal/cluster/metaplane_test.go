package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/faults"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/wire"
)

// updateSink is a stub hint-batch receiver: it decodes every delivered batch
// and records the updates, the wire bytes, and the arrival time of each
// batch. Anything else it is asked (liveness probes) it acknowledges.
type updateSink struct {
	srv *stubPeer

	mu      sync.Mutex
	recs    []hintcache.Update
	wire    int64
	arrived []time.Time
}

func newUpdateSink(t testing.TB) *updateSink {
	t.Helper()
	s := &updateSink{}
	s.srv = newStubPeer(t, func(h wire.PeerHeader, body []byte) (wire.PeerHeader, []byte) {
		if h.Op != wire.PeerHints {
			return wire.PeerHeader{Status: http.StatusNoContent}, nil
		}
		us, err := hintcache.AppendDecodedUpdates(nil, body)
		if err != nil {
			return wire.PeerHeader{Status: http.StatusBadRequest}, nil
		}
		now := time.Now()
		s.mu.Lock()
		s.wire += int64(len(body))
		s.recs = append(s.recs, us...)
		s.arrived = append(s.arrived, now)
		s.mu.Unlock()
		return wire.PeerHeader{Status: http.StatusNoContent}, nil
	})
	return s
}

// hintBatch encodes updates the way a sender puts them on the wire: the
// hint call's body is the records, nothing around them.
func hintBatch(us ...hintcache.Update) []byte {
	var records []byte
	for _, u := range us {
		records = hintcache.AppendUpdate(records, u)
	}
	return records
}

func (s *updateSink) records() []hintcache.Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]hintcache.Update(nil), s.recs...)
}

func (s *updateSink) wireBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wire
}

// firstArrival blocks until the sink has received at least one batch (or
// the deadline passes) and returns the first batch's arrival time.
func (s *updateSink) firstArrival(t testing.TB, deadline time.Duration) time.Time {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		s.mu.Lock()
		if len(s.arrived) > 0 {
			at := s.arrived[0]
			s.mu.Unlock()
			return at
		}
		s.mu.Unlock()
		if time.Now().After(stop) {
			t.Fatalf("sink %s received nothing within %v", s.srv.URL, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newMetaNode starts a node for metadata-plane tests. The origin URL points
// nowhere: these tests never fetch objects.
func newMetaNode(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.OriginURL == "" {
		cfg.OriginURL = "http://127.0.0.1:1"
	}
	if cfg.UpdateInterval == 0 {
		cfg.UpdateInterval = time.Hour // tests flush explicitly
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("node close: %v", err)
		}
	})
	return n
}

// TestFlushCoalescesOverWire drives the full pipeline: repeated informs for
// one object dedupe and an inform-then-invalidate collapses to the
// invalidate, so one round delivers one record per touched object.
func TestFlushCoalescesOverWire(t *testing.T) {
	sink := newUpdateSink(t)
	n := newMetaNode(t, NodeConfig{Name: "coalesce"})
	n.AddPeer(sink.srv.URL)

	n.loc.publish(1, true)
	n.loc.publish(1, false)
	n.loc.publish(2, true)
	n.loc.publish(2, true)
	n.loc.publish(2, true)
	n.Flush()

	got := sink.records()
	want := []hintcache.Update{
		{Action: hintcache.ActionInvalidate, URLHash: 1, Machine: n.machineID},
		{Action: hintcache.ActionInform, URLHash: 2, Machine: n.machineID},
	}
	if len(got) != len(want) {
		t.Fatalf("sink received %d records %v, want %d (coalesced)", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := n.Stats()
	if st.Coalesced != 3 {
		t.Errorf("Coalesced = %d, want 3 (one invalidate collapse + two inform dedupes)", st.Coalesced)
	}
	if st.UpdatesSent != 2 {
		t.Errorf("UpdatesSent = %d, want 2", st.UpdatesSent)
	}
	if wb := sink.wireBytes(); wb != 2*hintcache.UpdateSize {
		t.Errorf("wire bytes = %d, want %d (2 records)", wb, 2*hintcache.UpdateSize)
	}
}

// TestSenderCountsErrorStatusAsFailure points a sender at a target that
// answers every hint batch with an error status: the batch must burn its
// retry budget and count as undelivered — no delivery counter moves — and
// the failed contact must reach the membership tracker instead of marking
// the peer alive, at R = 0 (partitioned=false) as at R = 2.
func TestSenderCountsErrorStatusAsFailure(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusRequestEntityTooLarge} {
		for _, partitioned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/partitioned=%v", status, partitioned), func(t *testing.T) {
				var posts atomic.Int64
				sink := newStubPeer(t, func(h wire.PeerHeader, _ []byte) (wire.PeerHeader, []byte) {
					if h.Op != wire.PeerHints {
						return wire.PeerHeader{Status: http.StatusNoContent}, nil // liveness probes succeed
					}
					posts.Add(1)
					return wire.PeerHeader{Status: uint16(status)}, nil
				})
				cfg := NodeConfig{Name: "error-status"}
				if partitioned {
					cfg.HintReplicas = 2
				}
				n := newMetaNode(t, cfg)
				n.AddPeer(sink.URL)

				n.loc.publish(7, true)
				n.Flush()

				if got := posts.Load(); got != 3 {
					t.Errorf("target saw %d attempts, want the full retry budget of 3", got)
				}
				st := n.Stats()
				if st.UpdatesSent != 0 || st.BatchesSent != 0 || st.WireHintBytes != 0 || st.WireHintBytesPartitioned != 0 {
					t.Errorf("delivery counters moved on a refused batch: %+v", st)
				}
				if st.SendErrors != 1 || st.Retries != 2 {
					t.Errorf("SendErrors = %d, Retries = %d; want 1 and 2", st.SendErrors, st.Retries)
				}
				mbr := &hintsOf(n).mbr
				mbr.mu.Lock()
				fails, contact := peerOf(n, sink.URL).fails, peerOf(n, sink.URL).contact
				mbr.mu.Unlock()
				if fails != 1 || contact != 0 {
					t.Errorf("membership saw fails=%d contact=%d, want one failed contact and no good one", fails, contact)
				}
			})
		}
	}
}

// TestPendingQueueBounded checks satellite 1: the node-level pending queue
// is capped, overflow drops the oldest informs first, and drops are
// counted. The shipped bound (hintQueueCap) is squeezed to 4 records.
func TestPendingQueueBounded(t *testing.T) {
	n := newMetaNode(t, NodeConfig{Name: "bounded"})
	plane := hintsOf(n)
	plane.pend = newPendq(4)
	for h := uint64(1); h <= 6; h++ {
		n.loc.publish(h, true)
	}
	if st := n.Stats(); st.PendingDropped != 2 {
		t.Errorf("PendingDropped = %d, want 2", st.PendingDropped)
	}
	if got := plane.pend.len(); got != 4 {
		t.Errorf("pending queue holds %d records, want 4", got)
	}
}

// TestUpdatesOversizeRejected checks that a batch over the limit draws 413
// whole instead of being truncated mid-record, and the node counts the
// reject.
func TestUpdatesOversizeRejected(t *testing.T) {
	n := newMetaNode(t, NodeConfig{Name: "oversize"}) // limit: 1 MB of records
	big := bytes.Repeat([]byte{0}, updatesLimit+hintcache.UpdateSize)
	if r := dialTestPeer(t, n.URL()).mustCall(wire.PeerHeader{Op: wire.PeerHints}, big); r.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("node oversized hint batch = %d, want 413", r.Status)
	}
	if st := n.Stats(); st.OversizeRejects != 1 {
		t.Errorf("OversizeRejects = %d, want 1", st.OversizeRejects)
	}

	// A batch that exactly fits the limit still decodes (no shearing). The
	// refusal above cost its connection, so this one dials afresh.
	fit := make([]hintcache.Update, updatesLimit/hintcache.UpdateSize)
	for i := range fit {
		fit[i] = hintcache.Update{Action: hintcache.ActionInform, URLHash: uint64(i) + 1, Machine: 42}
	}
	if r := dialTestPeer(t, n.URL()).mustCall(wire.PeerHeader{Op: wire.PeerHints}, hintBatch(fit...)); r.Status != http.StatusNoContent {
		t.Errorf("node valid hint batch = %d, want 204", r.Status)
	}
	if st := n.Stats(); st.UpdatesReceived != int64(len(fit)) {
		t.Errorf("UpdatesReceived = %d, want %d", st.UpdatesReceived, len(fit))
	}
}

// TestDigestPullChecksStatusFirst checks that a digest answer other than
// 200 or 206 is an error without the body being decoded, that a 200 whose
// body is not a counting filter (plain Bloom filter bytes, or a counting
// filter inside a bw frame) is one too, and that the peer's digest stays
// absent either way.
func TestDigestPullChecksStatusFirst(t *testing.T) {
	// A plain Bloom filter of 512 bits and 6 hashes as a Summary Cache peer
	// ships it: the 12-byte header (bit count, hash count), then m/8 bytes
	// of bits, all set, so a node that took it would find id 1 at the peer.
	const bloomBits = 512
	bareBody := binary.LittleEndian.AppendUint64(nil, bloomBits)
	bareBody = binary.LittleEndian.AppendUint32(bareBody, 6)
	bareBody = append(bareBody, bytes.Repeat([]byte{0xff}, bloomBits/8)...)
	counting, err := digest.NewCountingForCapacity(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	counting.Add(1)
	framedBody := wire.AppendFrame(nil, wire.KindDigestFull, counting.AppendBinary(nil), 0)
	for name, answer := range map[string]func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte){
		"status-500": func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
			return wire.PeerHeader{Status: http.StatusInternalServerError}, []byte("digest rebuild failed")
		},
		"bloom-body": func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
			return wire.PeerHeader{Status: http.StatusOK}, bareBody
		},
		"framed-body": func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
			return wire.PeerHeader{Status: http.StatusOK}, framedBody
		},
	} {
		t.Run(name, func(t *testing.T) {
			errSrv := newStubPeer(t, answer)

			n := newMetaNode(t, NodeConfig{Name: name, UseDigests: true})
			n.AddPeer(errSrv.URL)
			n.Flush()

			st := n.Stats()
			if st.DigestsPulled != 0 {
				t.Errorf("DigestsPulled = %d, want 0", st.DigestsPulled)
			}
			if st.SendErrors != 1 {
				t.Errorf("SendErrors = %d, want 1", st.SendErrors)
			}
			if peer := n.loc.lookup(1).peer; peer != nil {
				t.Errorf("lookup after failed pull = %q, want none", peer.url)
			}
		})
	}
}

// TestDigestPullsRunConcurrently boots eight slow digest peers and checks
// that one pull round costs roughly the slowest peer, not the sum: every
// peer's pull runs at once, not in waves.
func TestDigestPullsRunConcurrently(t *testing.T) {
	const peers = 8
	const delay = 300 * time.Millisecond
	own, err := digest.NewCountingForCapacity(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := own.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	n := newMetaNode(t, NodeConfig{Name: "parallel-pull", UseDigests: true})
	for i := 0; i < peers; i++ {
		srv := newStubPeer(t, func(wire.PeerHeader, []byte) (wire.PeerHeader, []byte) {
			time.Sleep(delay)
			return wire.PeerHeader{Status: http.StatusOK}, snapshot
		})
		n.AddPeer(srv.URL)
	}

	start := time.Now()
	n.Flush()
	elapsed := time.Since(start)

	if st := n.Stats(); st.DigestsPulled != peers {
		t.Errorf("DigestsPulled = %d, want %d", st.DigestsPulled, peers)
	}
	// Serial pulls would cost 8 x delay = 2.4s, and two waves of four
	// 2 x delay; allow headroom over one delay for scheduling noise.
	if bound := delay * 3 / 2; elapsed > bound {
		t.Errorf("the digest round took %v for %d peers at %v each, want all at once (< %v)", elapsed, peers, delay, bound)
	}
}

// TestChaosMetadataPlaneIsolation is the per-peer isolation contract: with
// one of four update targets blackholed, the three healthy targets must
// receive a queued hint within 2x the batch interval — the sick target's
// retry budget burns on its own sender. After healing, the blackholed
// target receives the batch too (the in-flight retries deliver it).
func TestChaosMetadataPlaneIsolation(t *testing.T) {
	const interval = 200 * time.Millisecond
	sinks := make([]*updateSink, 4)
	for i := range sinks {
		sinks[i] = newUpdateSink(t)
	}
	inj, err := faults.New(hostPortOf(sinks[0].srv.URL)+":blackhole", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := newMetaNode(t, NodeConfig{
		Name:           "isolation",
		UpdateInterval: interval,
		Faults:         inj,
	})
	t.Cleanup(func() { _ = inj.SetSpec("") }) // heal before the close-time flush
	for _, s := range sinks {
		n.AddPeer(s.srv.URL)
	}

	n.loc.publish(42, true)
	start := time.Now()
	n.loc.round(false)

	for i, s := range sinks[1:] {
		at := s.firstArrival(t, 2*interval)
		if d := at.Sub(start); d > 2*interval {
			t.Errorf("healthy sink %d received the hint after %v, want within %v", i+1, d, 2*interval)
		}
	}

	// Heal: the blackholed sender is mid-retry; its queued batch must
	// still arrive (first attempt times out after metadataTimeout, the
	// next one succeeds).
	if err := inj.SetSpec(""); err != nil {
		t.Fatal(err)
	}
	sinks[0].firstArrival(t, 2*metadataTimeout+2*time.Second)

	if got := sinks[1].records(); len(got) != 1 || got[0].URLHash != 42 {
		t.Errorf("healthy sink records = %v, want exactly the queued inform", got)
	}
}
