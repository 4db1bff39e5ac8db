package overlay

import (
	"fmt"
	"math/rand"
	"testing"
)

func newOverlay(t *testing.T, replicas int) *Overlay {
	t.Helper()
	o, err := New(4, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func join(t *testing.T, o *Overlay, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		o.Join(id, fmt.Sprintf("http://127.0.0.1:%d", 10000+id%50000))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Fatal("bits 0 accepted")
	}
	if _, err := New(4, 0); err != nil {
		t.Fatalf("replicas 0 (every member an owner) rejected: %v", err)
	}
	if _, err := New(4, -1); err == nil {
		t.Fatal("negative replicas accepted")
	}
	if _, err := New(4, MaxReplicas+1); err == nil {
		t.Fatal("oversized replicas accepted")
	}
}

func TestEmptyViewIsTotal(t *testing.T) {
	o := newOverlay(t, 2)
	v := o.View()
	if v.Size() != 0 || v.Version() != 0 {
		t.Fatalf("empty view: size=%d version=%d", v.Size(), v.Version())
	}
	var buf [MaxReplicas]uint64
	if owners := v.Owners(12345, buf[:0]); len(owners) != 0 {
		t.Fatalf("empty view produced owners %v", owners)
	}
	if v.IsOwner(1, 2) || v.Contains(3) {
		t.Fatal("empty view claims membership")
	}
}

func TestOwnersSizeAndLiveness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := newOverlay(t, 3)
	live := map[uint64]bool{}
	for i := 0; i < 12; i++ {
		id := rng.Uint64()
		join(t, o, id)
		live[id] = true
	}
	v := o.View()
	if v.Size() != 12 {
		t.Fatalf("size %d, want 12", v.Size())
	}
	var buf [MaxReplicas]uint64
	for i := 0; i < 200; i++ {
		obj := rng.Uint64()
		owners := v.Owners(obj, buf[:0])
		if len(owners) != 3 {
			t.Fatalf("object %#x: %d owners, want 3", obj, len(owners))
		}
		seen := map[uint64]bool{}
		for _, m := range owners {
			if !live[m] {
				t.Fatalf("object %#x: dead owner %#x", obj, m)
			}
			if seen[m] {
				t.Fatalf("object %#x: duplicate owner %#x", obj, m)
			}
			seen[m] = true
			if !v.IsOwner(obj, m) {
				t.Fatalf("IsOwner disagrees with Owners for %#x/%#x", obj, m)
			}
		}
	}
}

func TestOwnersClampToMembership(t *testing.T) {
	o := newOverlay(t, 4)
	join(t, o, 11, 22)
	var buf [MaxReplicas]uint64
	owners := o.View().Owners(999, buf[:0])
	if len(owners) != 2 {
		t.Fatalf("%d owners from a 2-member overlay at R=4, want 2", len(owners))
	}
}

// TestOwnersAtZeroAreEveryMember: at R = 0 every live member owns every
// object, past MaxReplicas members too, and a leave moves every owner set.
func TestOwnersAtZeroAreEveryMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := newOverlay(t, 0)
	ids := make([]uint64, 2*MaxReplicas)
	for i := range ids {
		ids[i] = rng.Uint64()
		join(t, o, ids[i])
	}
	before := o.View()
	dst := make([]uint64, 0, before.Size())
	for i := 0; i < 200; i++ {
		obj := rng.Uint64()
		if owners := before.Owners(obj, dst); len(owners) != len(ids) {
			t.Fatalf("object %#x: %d owners of %d members at R=0", obj, len(owners), len(ids))
		}
		for _, m := range ids {
			if !before.IsOwner(obj, m) {
				t.Fatalf("object %#x: member %#x is not an owner at R=0", obj, m)
			}
		}
		if before.IsOwner(obj, 1) {
			t.Fatalf("object %#x: a non-member owns it", obj)
		}
	}
	o.Leave(ids[0])
	if SameOwners(before, o.View(), 42) {
		t.Fatal("a leave at R=0 left an owner set unmoved")
	}
}

func TestJoinLeaveVersioning(t *testing.T) {
	o := newOverlay(t, 2)
	if !o.Join(7, "http://a") {
		t.Fatal("first join reported no change")
	}
	v1 := o.View()
	if o.Join(7, "http://a") {
		t.Fatal("idempotent join reported change")
	}
	if o.View().Version() != v1.Version() {
		t.Fatal("no-op join bumped version")
	}
	if o.Join(0, "http://zero") {
		t.Fatal("zero ID joined")
	}
	if !o.Join(7, "http://b") {
		t.Fatal("address change reported no change")
	}
	if !o.Leave(7) {
		t.Fatal("leave of member reported no change")
	}
	if o.Leave(7) {
		t.Fatal("leave of non-member reported change")
	}
	if o.View().Size() != 0 {
		t.Fatal("members remain after final leave")
	}
}

// TestChurnMovesBoundedShare is the partitioning claim end to end: one
// node leaving a 16-member overlay moves only the share of objects the
// dead node owned (≈ R/N), and every surviving owner assignment stays on
// live members.
func TestChurnMovesBoundedShare(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	o := newOverlay(t, 2)
	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = rng.Uint64()
		join(t, o, ids[i])
	}
	before := o.View()
	victim := ids[5]
	o.Leave(victim)
	after := o.View()

	objects := make([]uint64, 2000)
	for i := range objects {
		objects[i] = rng.Uint64()
	}
	moved := 0
	for _, obj := range objects {
		if !SameOwners(before, after, obj) {
			moved++
		}
		if after.IsOwner(obj, victim) {
			t.Fatalf("dead node %#x still owns object %#x", victim, obj)
		}
	}
	// The victim owned ~R/N = 2/16 of the ring positions; surrogate
	// reshuffling can move a few more. A kill must never re-home most of
	// the directory.
	if frac := float64(moved) / float64(len(objects)); frac > 0.5 {
		t.Fatalf("one leave moved %.1f%% of objects", 100*frac)
	}
	if moved == 0 {
		t.Fatal("leave moved nothing — victim owned no objects?")
	}
}

func TestViewsAgreeAcrossBuildOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ids := make([]uint64, 10)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	a := newOverlay(t, 2)
	b := newOverlay(t, 2)
	join(t, a, ids...)
	for i := len(ids) - 1; i >= 0; i-- {
		join(t, b, ids[i])
	}
	// Different join orders must yield the same owner assignment — that is
	// what lets every node derive routing locally.
	var abuf, bbuf [MaxReplicas]uint64
	for i := 0; i < 500; i++ {
		obj := rng.Uint64()
		ao := a.View().Owners(obj, abuf[:0])
		bo := b.View().Owners(obj, bbuf[:0])
		if len(ao) != len(bo) {
			t.Fatalf("owner counts differ for %#x: %v vs %v", obj, ao, bo)
		}
		for k := range ao {
			if ao[k] != bo[k] {
				t.Fatalf("owner sets differ for %#x: %v vs %v", obj, ao, bo)
			}
		}
	}
}

// TestOwnerLookupsAllocateNothing pins the owner lookups at zero allocations:
// at R = 0 they run for every routed record and every admitted insert. Owners
// gets scratch the size of the view, as the locator's round gives it.
func TestOwnerLookupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, members := range []int{4, 16} {
		for _, replicas := range []int{0, 2} {
			t.Run(fmt.Sprintf("N=%d/R=%d", members, replicas), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(members)))
				o := newOverlay(t, replicas)
				for i := 1; i < members; i++ {
					join(t, o, rng.Uint64())
				}
				before := o.View() // one member short of v: every lookup walks both
				id := rng.Uint64()
				join(t, o, id)
				v := o.View()
				dst := make([]uint64, 0, v.Size())
				obj := rng.Uint64()
				for name, fn := range map[string]func(){
					"IsOwner":    func() { v.IsOwner(obj, id) },
					"Owners":     func() { dst = v.Owners(obj, dst) },
					"SameOwners": func() { SameOwners(before, v, obj) },
				} {
					if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
						t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
					}
				}
			})
		}
	}
}

// raceEnabled is set in a -race binary (race_test.go).
var raceEnabled bool
