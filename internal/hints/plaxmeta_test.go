package hints

import (
	"testing"

	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

func TestMetaRouterFiltersAndCounts(t *testing.T) {
	s := mustSim(t, Config{
		Topology:       sim.Topology{NumL1: 8, ClientsPerL1: 2, L1PerL2: 4},
		MetaRouterBits: 2,
	})
	// First copy of object 1 at node 0: routes to the object's root.
	s.Process(req(0, 0, 1, 100))
	load1, ok := s.MetaLoad()
	if !ok {
		t.Fatal("meta router not active")
	}
	if load1.Updates != 1 || load1.TotalReceived == 0 {
		t.Fatalf("first add load = %+v", load1)
	}
	// Second copy elsewhere: the filter should terminate the climb at
	// the first metadata node that already knew a copy, so per-update
	// hops do not grow with copies.
	s.Process(req(1, 1, 1, 100))
	load2, _ := s.MetaLoad()
	if load2.Updates != 2 {
		t.Fatalf("updates = %d, want 2", load2.Updates)
	}
	if load2.MeanHops > load1.MeanHops {
		t.Errorf("mean hops grew after a filtered add: %.2f -> %.2f",
			load1.MeanHops, load2.MeanHops)
	}
}

func TestMetaRouterRemoveRetracts(t *testing.T) {
	s := mustSim(t, Config{
		Topology:       sim.Topology{NumL1: 8, ClientsPerL1: 2, L1PerL2: 4},
		MetaRouterBits: 1,
		L1Capacity:     150,
	})
	s.Process(req(0, 0, 1, 100))
	before, _ := s.MetaLoad()
	// Object 2 evicts object 1 at node 0: the removal routes up too.
	s.Process(req(1, 0, 2, 100))
	after, _ := s.MetaLoad()
	if after.Updates <= before.Updates+1 {
		t.Errorf("eviction did not route a removal: %d -> %d updates",
			before.Updates, after.Updates)
	}
}

func TestMetaLoadInactive(t *testing.T) {
	s := mustSim(t, Config{})
	if _, ok := s.MetaLoad(); ok {
		t.Error("MetaLoad active without configuration")
	}
}

func TestAccessorsAndRefresh(t *testing.T) {
	s := mustSim(t, Config{HintEntries: 64})
	if got := s.Topology(); got != smallTopo() {
		t.Errorf("Topology() = %+v", got)
	}
	r := req(0, 0, 1, 100)
	s.Process(r)
	s.Process(req(1, 0, 1, 100)) // local hit
	if s.LocalHitRatio() != 0.5 {
		t.Errorf("LocalHitRatio = %g, want 0.5", s.LocalHitRatio())
	}
	if st := s.hintIndex.Stats(); st.Inserts == 0 {
		t.Errorf("hint table stats empty: %+v", st)
	}

	// InjectRefresh places a demand-standing copy at another node.
	r2 := trace.Request{Object: 1, Size: 100, Version: 1}
	if !s.InjectRefresh(3, r2) {
		t.Fatal("InjectRefresh failed")
	}
	if s.InjectRefresh(3, r2) {
		t.Error("duplicate InjectRefresh succeeded")
	}
	if !s.HasCopy(3, 1, 1) {
		t.Error("refreshed copy missing")
	}
	s.AgeObject(3, 1)   // demote; must not remove
	s.AgeObject(3, 999) // absent: no-op
	if !s.HasCopy(3, 1, 1) {
		t.Error("AgeObject removed the copy")
	}
	// The unbounded simulator keeps no hint table.
	plain := mustSim(t, Config{})
	if plain.hintIndex != nil {
		t.Error("unbounded simulator has a hint table")
	}
	if plain.LeafUpdates() != 0 {
		t.Error("fresh sim has leaf updates")
	}
}
