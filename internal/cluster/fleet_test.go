package cluster

import "testing"

func TestFleetSurvivesDeadPeer(t *testing.T) {
	f := startFleet(t, 3, FleetConfig{})
	const url = "http://example.com/resilient"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll() // nodes 1 and 2 learn node 0 holds it

	// Kill node 0 (outside the fleet's Close bookkeeping: close it now,
	// and replace it so Cleanup's Close is a no-op double call is safe).
	if err := f.Nodes[0].Close(); err != nil {
		t.Fatal(err)
	}

	// Node 1's hint points at the dead node: the peer fetch fails, and
	// the request falls through to the origin — a slow miss, not an
	// error (the same path as a stale hint).
	res, err := f.Fetch(1, url)
	if err != nil {
		t.Fatalf("fetch with dead peer failed: %v", err)
	}
	if !res.Miss() || !res.StaleHint() {
		t.Errorf("fetch with dead peer = %+v, want MISS,STALE-HINT", res)
	}
	// Flushing to the dead peer records send errors but doesn't wedge.
	if _, err := f.Fetch(2, "http://example.com/other"); err != nil {
		t.Fatal(err)
	}
	f.Nodes[2].Flush()
	if f.Nodes[2].Stats().SendErrors == 0 {
		t.Error("no send errors recorded against the dead peer")
	}
}

func TestPurgeAllIgnoresAbsent(t *testing.T) {
	f := startFleet(t, 2, FleetConfig{})
	const url = "http://example.com/pa"
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	// Only node 0 has it; PurgeAll must not error on node 1.
	f.PurgeAll(url)
	res, err := f.Fetch(0, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() {
		t.Errorf("after PurgeAll fetch = %+v, want MISS", res)
	}
}
