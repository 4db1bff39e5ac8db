// Package overlay maintains the cluster's live hint-routing plane: the
// set of nodes currently believed alive, the Plaxton embedding derived
// from their hashed addresses (internal/plaxton), and the owner set every
// object ID routes to. The hint directory (DESIGN.md §14) stores each
// object's hint records only at its owners — the object's Plaxton root plus
// R-1 successors on the sorted machine-ID ring, or with R = 0 every member —
// so at R > 0 per-node directory memory and update fanout are O(R/N) of
// what a whole directory on every node costs.
//
// Membership mutates through Overlay (Join/Leave); routing reads go
// through the immutable View it publishes, so lookups on the miss path
// never take the membership lock.
package overlay

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"beyondcache/internal/plaxton"
)

// MaxReplicas bounds a nonzero owner-set size R, so an owner list at R > 0
// fits fixed-size stack scratch.
const MaxReplicas = 8

// View is an immutable snapshot of the routing plane at one membership
// version. All methods are safe for concurrent use and never block.
type View struct {
	nw       *plaxton.Network
	sorted   []uint64 // live machine IDs, ascending — the replica ring
	replicas int
	version  uint64
}

// Version returns the membership generation this view was built from.
// Versions increase with every membership change; equal versions mean an
// identical view.
func (v *View) Version() uint64 { return v.version }

// Size returns the live-member count.
func (v *View) Size() int { return len(v.sorted) }

// Contains reports whether id is a live member.
func (v *View) Contains(id uint64) bool {
	_, ok := slices.BinarySearch(v.sorted, id)
	return ok
}

// owners is the owner-set size: R, or every member when R is 0 or the
// membership is smaller than R. Zero for a nil or empty view.
func (v *View) owners() int {
	switch {
	case v == nil:
		return 0
	case v.replicas > 0 && v.replicas < len(v.sorted):
		return v.replicas
	}
	return len(v.sorted)
}

// root is the ring position of object's Plaxton root: where its owner set
// starts. The view must not be empty.
func (v *View) root(object uint64) int {
	p, _ := slices.BinarySearch(v.sorted, v.nw.Node(v.nw.Root(object)).ID)
	return p
}

// Owners appends object's owner set onto dst and returns it: the object's
// Plaxton root first, then its successors on the sorted-ID ring, R members
// total (every member at R = 0, or when the membership is smaller than R).
// Empty for an empty view. dst lets callers reuse scratch: [MaxReplicas]uint64
// on the stack holds any R > 0, a slice of Size() any R.
func (v *View) Owners(object uint64, dst []uint64) []uint64 {
	dst = dst[:0]
	r := v.owners()
	if r == 0 {
		return dst
	}
	p := v.root(object)
	for k := 0; k < r; k++ {
		dst = append(dst, v.sorted[(p+k)%len(v.sorted)])
	}
	return dst
}

// IsOwner reports whether member is in object's owner set: a live member
// whose ring distance from the object's root is under the owner-set size.
func (v *View) IsOwner(object, member uint64) bool {
	if v == nil {
		return false
	}
	i, ok := slices.BinarySearch(v.sorted, member)
	if !ok {
		return false
	}
	r, n := v.owners(), len(v.sorted)
	return r == n || (i-v.root(object)+n)%n < r
}

// SameOwners reports whether object's owner set is identical in a and b —
// the re-homing predicate: an object whose owners did not move needs no
// re-announcement.
func SameOwners(a, b *View, object uint64) bool {
	r := a.owners()
	if r != b.owners() {
		return false
	}
	if r == 0 {
		return true
	}
	pa, pb := a.root(object), b.root(object)
	for k := 0; k < r; k++ {
		if a.sorted[(pa+k)%len(a.sorted)] != b.sorted[(pb+k)%len(b.sorted)] {
			return false
		}
	}
	return true
}

// Overlay derives routing views from membership events. Join and Leave
// serialize on an internal lock; View is a lock-free atomic load.
type Overlay struct {
	bits     uint
	replicas int

	mu      sync.Mutex
	members map[uint64]string // machine ID -> base URL, alive only
	version uint64
	view    atomic.Pointer[View]
}

// New builds an empty overlay. bits is the Plaxton digit width; replicas
// is the owner-set size R, in [0, MaxReplicas], where 0 makes every member
// an owner of every object.
func New(bits uint, replicas int) (*Overlay, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("overlay: bits must be in [1,16], got %d", bits)
	}
	if replicas < 0 || replicas > MaxReplicas {
		return nil, fmt.Errorf("overlay: replicas must be in [0,%d], got %d", MaxReplicas, replicas)
	}
	o := &Overlay{bits: bits, replicas: replicas, members: make(map[uint64]string)}
	o.view.Store(&View{replicas: replicas})
	return o, nil
}

// View returns the current routing view.
func (o *Overlay) View() *View { return o.view.Load() }

// Join adds (or re-adds) a live member, reporting whether membership
// changed. A zero ID is ignored (zero is hintcache's reserved non-ID).
func (o *Overlay) Join(id uint64, addr string) bool {
	if id == 0 {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if cur, known := o.members[id]; known && cur == addr {
		return false
	}
	o.members[id] = addr
	o.rebuildLocked()
	return true
}

// Leave removes a member, reporting whether it was present.
func (o *Overlay) Leave(id uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, known := o.members[id]; !known {
		return false
	}
	delete(o.members, id)
	o.rebuildLocked()
	return true
}

// rebuildLocked publishes a new view after a membership change: the
// embedding and the replica ring are both built from the sorted member
// list, so every node that sees the same membership derives the same view.
func (o *Overlay) rebuildLocked() {
	o.version++
	v := &View{replicas: o.replicas, version: o.version}
	if len(o.members) > 0 {
		v.sorted = make([]uint64, 0, len(o.members))
		for id := range o.members {
			v.sorted = append(v.sorted, id)
		}
		slices.Sort(v.sorted)
		nodes := make([]plaxton.Node, len(v.sorted))
		for i, id := range v.sorted {
			nodes[i] = plaxton.Node{ID: id, Addr: o.members[id]}
		}
		// Cannot fail: IDs are map keys (unique, nonzero) and bits was
		// validated in New.
		v.nw, _ = plaxton.NewHashed(nodes, o.bits)
	}
	o.view.Store(v)
}
