// Package overlay maintains the cluster's live hint-routing plane: the
// set of nodes currently believed alive, the Plaxton embedding derived
// from their hashed addresses (internal/plaxton), and the owner set every
// object ID routes to. The partitioned hint directory (DESIGN.md §14)
// stores each object's hint records only at its owners — the object's
// Plaxton root plus R-1 successors on the sorted machine-ID ring — so
// per-node directory memory and update fanout are O(R/N) of the broadcast
// design's.
//
// Membership mutates through Overlay (Join/Leave); routing reads go
// through the immutable View it publishes, so lookups on the miss path
// never take the membership lock.
package overlay

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"beyondcache/internal/plaxton"
)

// MaxReplicas bounds the owner-set size R so owner lookups can use
// fixed-size stack scratch.
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

// Network exposes the underlying embedding for churn accounting
// (plaxton.TableDiff); nil for an empty view.
func (v *View) Network() *plaxton.Network { return v.nw }

// Contains reports whether id is a live member.
func (v *View) Contains(id uint64) bool {
	i := sort.Search(len(v.sorted), func(i int) bool { return v.sorted[i] >= id })
	return i < len(v.sorted) && v.sorted[i] == id
}

// Owners appends object's owner set onto dst and returns it: the object's
// Plaxton root first, then its successors on the sorted-ID ring, R members
// total (fewer when the membership is smaller than R). Empty for an empty
// view. dst lets callers reuse stack scratch ([MaxReplicas]uint64).
func (v *View) Owners(object uint64, dst []uint64) []uint64 {
	dst = dst[:0]
	if v == nil || v.nw == nil {
		return dst
	}
	rootID := v.nw.Node(v.nw.Root(object)).ID
	p := sort.Search(len(v.sorted), func(i int) bool { return v.sorted[i] >= rootID })
	if p == len(v.sorted) {
		p = 0
	}
	r := v.replicas
	if r > len(v.sorted) {
		r = len(v.sorted)
	}
	for k := 0; k < r; k++ {
		dst = append(dst, v.sorted[(p+k)%len(v.sorted)])
	}
	return dst
}

// IsOwner reports whether member is in object's owner set.
func (v *View) IsOwner(object, member uint64) bool {
	var buf [MaxReplicas]uint64
	for _, m := range v.Owners(object, buf[:0]) {
		if m == member {
			return true
		}
	}
	return false
}

// SameOwners reports whether object's owner set is identical in a and b —
// the re-homing predicate: an object whose owners did not move needs no
// re-announcement.
func SameOwners(a, b *View, object uint64) bool {
	var ab, bb [MaxReplicas]uint64
	ao := a.Owners(object, ab[:0])
	bo := b.Owners(object, bb[:0])
	if len(ao) != len(bo) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	return true
}

// Diff counts routing-table entries that changed between two views'
// embeddings over their shared nodes; (0, 0) when either view is empty.
// A zero changed count with a nonzero total proves no owner set moved, so
// re-homing can be skipped outright.
func Diff(a, b *View) (changed, total int) {
	if a == nil || b == nil || a.nw == nil || b.nw == nil {
		return 0, 0
	}
	return plaxton.TableDiff(a.nw, b.nw)
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
// is the owner-set size R, in [1, MaxReplicas].
func New(bits uint, replicas int) (*Overlay, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("overlay: bits must be in [1,16], got %d", bits)
	}
	if replicas < 1 || replicas > MaxReplicas {
		return nil, fmt.Errorf("overlay: replicas must be in [1,%d], got %d", MaxReplicas, replicas)
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
	o.rebuildLocked(plaxton.Node{ID: id, Addr: addr}, 0)
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
	o.rebuildLocked(plaxton.Node{}, id)
	return true
}

// rebuildLocked publishes a new view after a membership change, riding the
// embedding's incremental Add/Remove path when possible and falling back
// to a full rebuild (first member, re-join under a new address).
func (o *Overlay) rebuildLocked(join plaxton.Node, leave uint64) {
	o.version++
	v := &View{replicas: o.replicas, version: o.version}
	defer o.view.Store(v)
	if len(o.members) == 0 {
		return
	}

	var nw *plaxton.Network
	var err error
	if prev := o.view.Load().nw; prev != nil {
		switch {
		case join.ID != 0:
			if _, exists := prev.Index(join.ID); !exists {
				nw, err = prev.AddNode(join)
			}
		case leave != 0:
			nw, err = prev.RemoveNodeID(leave)
		}
	}
	if nw == nil || err != nil {
		nodes := make([]plaxton.Node, 0, len(o.members))
		for id, addr := range o.members {
			nodes = append(nodes, plaxton.Node{ID: id, Addr: addr})
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		// Cannot fail: IDs are map keys (unique, nonzero) and bits was
		// validated in New.
		nw, _ = plaxton.NewHashed(nodes, o.bits)
	}
	v.nw = nw
	v.sorted = make([]uint64, 0, len(o.members))
	for id := range o.members {
		v.sorted = append(v.sorted, id)
	}
	sort.Slice(v.sorted, func(i, j int) bool { return v.sorted[i] < v.sorted[j] })
}
