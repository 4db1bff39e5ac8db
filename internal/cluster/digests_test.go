package cluster

import (
	"fmt"
	"testing"
	"time"

	"beyondcache/internal/obs"
	"beyondcache/internal/wire"
)

func startDigestFleet(t *testing.T, nodes int) *Fleet {
	t.Helper()
	f, err := StartFleet(FleetConfig{
		Nodes:          nodes,
		UpdateInterval: time.Hour, // tests pull digests explicitly
		UseDigests:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	})
	return f
}

func TestDigestFleetRemoteHit(t *testing.T) {
	f := startDigestFleet(t, 3)
	const url = "http://example.com/dig"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	// Before any digest pull, node 1 misses to the origin.
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() {
		t.Fatalf("pre-pull fetch = %+v, want MISS", res)
	}
	// Pull digests fleet-wide: node 2 now resolves to a peer copy.
	f.FlushAll()
	res, err = f.Fetch(2, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote() {
		t.Fatalf("post-pull fetch = %+v, want REMOTE", res)
	}
	if f.Nodes[2].Stats().DigestsPulled == 0 {
		t.Error("no digests pulled")
	}
}

// TestDigestModeLeavesHintPlaneIdle: a digest node's fills feed its filter
// and journal only. They used to be queued as hint records as well, into a
// pending queue nothing drains in digest mode — the queue filled to its
// bound and every further fill counted as a dropped hint. The hint-plane
// families are still exposed, at zero.
func TestDigestModeLeavesHintPlaneIdle(t *testing.T) {
	f := startDigestFleet(t, 3)
	for i := 0; i < 100; i++ {
		if _, err := f.Fetch(i%3, fmt.Sprintf("http://example.com/idle/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// More transitions than the hint queue bound, past the HTTP surface.
	for h := uint64(1); h <= hintQueueCap+100; h++ {
		f.Nodes[0].loc.publish(h, true)
	}
	f.FlushAll()
	for i, n := range f.Nodes {
		p := scrapeNode(t, n)
		for _, family := range []string{
			"beyondcache_hint_pending_dropped_total",
			"beyondcache_hint_pending_records",
			"beyondcache_hint_directory_lag_objects",
		} {
			if v, ok := p.Value(family); !ok || v != 0 {
				t.Errorf("node %d %s = (%v, %v), want (0, true)", i, family, v, ok)
			}
		}
		peer := obs.L("peer", hostPortOf(f.Nodes[(i+1)%3].URL()))
		if v, ok := p.Value("beyondcache_hint_queue_depth", peer); !ok || v != 0 {
			t.Errorf("node %d hint_queue_depth%v = (%v, %v), want (0, true)", i, peer, v, ok)
		}
		if st := n.Stats(); st.UpdatesSent != 0 || st.DigestsPulled == 0 {
			t.Errorf("node %d sent %d hint updates and pulled %d digests, want none and some", i, st.UpdatesSent, st.DigestsPulled)
		}
	}
}

func TestDigestStalenessFalsePositiveOverWire(t *testing.T) {
	f := startDigestFleet(t, 2)
	const url = "http://example.com/staledig"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll() // node 1's copy of node 0's digest includes the object
	// Node 0 drops the object; node 1's digest snapshot is now stale
	// (digests cannot advertise deletions until the next pull).
	if err := f.Purge(0, url); err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() || !res.StaleHint() {
		t.Fatalf("fetch with stale digest = %+v, want MISS,STALE-HINT", res)
	}
	if f.Nodes[1].Stats().FalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", f.Nodes[1].Stats().FalsePositives)
	}
	// After a fresh pull the stale entry is gone: purge node 1's own
	// fallback copy first, then the fetch is a clean miss.
	if err := f.Purge(1, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	res, err = f.Fetch(1, url)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleHint() {
		t.Errorf("digest still stale after re-pull: %+v", res)
	}
}

func TestDigestEndpointDisabledInHintMode(t *testing.T) {
	f := startFleet(t, 1, FleetConfig{})
	r := dialTestPeer(t, f.Nodes[0].URL()).mustCall(wire.PeerHeader{Op: wire.PeerDigest}, nil)
	if r.Status != 404 {
		t.Errorf("hint-mode digest pull answered %d, want 404", r.Status)
	}
}
