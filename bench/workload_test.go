package main

import "testing"

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := sequenceHash(w, 7, 2000), sequenceHash(w, 7, 2000)
		if a != b {
			t.Errorf("%s: same seed gave sequences %s and %s", w.Name, a, b)
		}
		if c := sequenceHash(w, 8, 2000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", w.Name, a)
		}
	}
}

// One client owns every operation on its objects: that is what lets the
// verifier treat a regressed version as wrong (see generator).
func TestClientsDrawDisjointObjectsInsideThePopulation(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		zipf := newZipf(w)
		owner := make(map[uint64]int)
		writes := 0
		for c := 0; c < numClients; c++ {
			g := newGenerator(w, zipf, 3, c)
			for n := 0; n < 20000; n++ {
				r := g.next()
				first, count := w.population(r.Node)
				if r.Node < 0 || r.Node >= w.Fleet.Nodes || r.Obj < first || r.Obj >= first+count {
					t.Fatalf("%s: request %+v outside node's population [%d,%d)", w.Name, r, first, first+count)
				}
				if prev, seen := owner[r.Obj]; seen && prev != c {
					t.Fatalf("%s: object %d drawn by clients %d and %d", w.Name, r.Obj, prev, c)
				}
				owner[r.Obj] = c
				if r.Write {
					writes++
				}
			}
		}
		if (w.WriteEvery > 0) != (writes > 0) {
			t.Errorf("%s: WriteEvery=%d but %d writes drawn", w.Name, w.WriteEvery, writes)
		}
	}
}
