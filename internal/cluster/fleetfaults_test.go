package cluster

import (
	"testing"
	"time"
)

// TestFleetLiveRespec pins the fleet's one fault plane on a fleet started
// with no fault settings: SetFaultSpec breaks a peer and heals it again,
// each node counts only its own draws, a restarted node is born holding the
// spec set live, and a spec that does not parse is refused.
func TestFleetLiveRespec(t *testing.T) {
	shorten(t, &hedgeCold, 10*time.Millisecond)
	f := startFleet(t, 3, FleetConfig{})

	const url = "http://example.com/respec"
	if _, err := f.Fetch(1, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll() // nodes 0 and 2 learn node 1 holds it

	// Partition node 1 as a target: node 0's hinted peer fetch now fails,
	// but the client still gets the object via the origin fallback.
	host1 := hostPortOf(f.Nodes[1].URL())
	if err := f.SetFaultSpec(host1 + ":partition"); err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(0, url)
	if err != nil {
		t.Fatalf("fetch under partition failed: %v", err)
	}
	if !res.Miss() {
		t.Errorf("fetch under partition = %q, want a MISS fallback", res.How)
	}
	if got := f.Nodes[0].FaultInjector().Counts().Drops; got == 0 {
		t.Error("node 0's injector never dropped a call; the partition spec had no effect")
	}
	if got := f.Nodes[2].FaultInjector().Counts().Drops; got != 0 {
		t.Errorf("node 2's injector counted %d drops; it made no call", got)
	}

	// A replacement node is born holding the spec set live.
	if err := f.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if !f.Nodes[0].FaultInjector().Decide(host1).Drop {
		t.Error("restarted node 0 does not drop calls to node 1; the live spec was lost")
	}

	// A spec that does not parse is refused and changes nothing.
	if err := f.SetFaultSpec("*:nonsense=1"); err == nil {
		t.Error("SetFaultSpec accepted a spec that does not parse")
	}
	if !f.Nodes[0].FaultInjector().Decide(host1).Drop {
		t.Error("a refused spec replaced the live one")
	}

	// Heal and refetch: the peer path works again.
	if err := f.SetFaultSpec(""); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(2, url); err != nil {
		t.Fatalf("fetch after heal failed: %v", err)
	}
	if f.Nodes[0].FaultInjector().Decide(host1).Drop {
		t.Error("node 0 still drops calls to node 1 after the heal")
	}
}
