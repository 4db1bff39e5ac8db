package hints

import (
	"time"
)

// maxStaleRecords bounds how many recent removals are remembered per object.
// Older stale hints have almost always expired (propagation delay) before
// they would matter, so the bound only trims pathological tails.
const maxStaleRecords = 8

// holderRec records a live copy of an object at a leaf cache.
type holderRec struct {
	node    int32
	version int64
	addedAt time.Duration
}

// staleRec records a recently removed copy whose hint may still be visible
// to other nodes (the source of false positives).
type staleRec struct {
	node      int32
	removedAt time.Duration
}

// objState is the global directory's knowledge about one object, plus the
// metadata-hierarchy filtering state used for Table 5 accounting. States
// live by value inside directory pages; ownCount == nil marks a slot whose
// object has never been seen (initialized states always carve a non-empty
// ownCount, since every topology has at least one L2 subtree).
type objState struct {
	holders []holderRec
	stales  []staleRec

	// ownCount[s] is the number of copies currently inside L2 subtree s.
	ownCount []int16
	// knownRemote is a bitmask over L2 subtrees: bit s set means subtree
	// s has been informed (by the root) of a copy outside itself.
	knownRemote uint64
	// minVersion is a conservative lower bound on the versions held (never
	// above the true minimum; exact after removals). The per-request
	// consistency sweep compares it first and skips scanning holders when
	// no copy can be stale — the overwhelmingly common case.
	minVersion int64
	// rootHolder is the subtree whose copy the root currently advertises,
	// or -1.
	rootHolder int16
}

// maxDirSlots bounds the flat state table at 8M slots. Object IDs are dense
// popularity ranks, so this is never reached by the trace simulators; a
// stray huge ID spills to a map instead of allocating the whole ID space.
const maxDirSlots = 1 << 23

// ownCountSlabLen sizes the chunk new ownCount slices are carved from.
// Chunks are never reallocated, so carved slices stay valid forever.
const ownCountSlabLen = 1 << 14

// directory tracks every copy in the system together with visibility
// windows, and simulates the hint-update traffic through both a metadata
// hierarchy (with subtree filtering, Section 3.1.2) and a centralized
// directory, counting the updates each root receives (Table 5).
type directory struct {
	slots    []objState
	overflow map[uint64]*objState
	slab     []int16
	numL2    int

	// Table 5 counters.
	rootUpdates    int64 // updates reaching the hierarchy root, post-filter
	centralUpdates int64 // updates reaching a centralized directory
	leafUpdates    int64 // updates leaving leaf caches (L1 -> parent hops)
}

func newDirectory(numL2 int) *directory {
	return &directory{numL2: numL2}
}

// carveOwnCount hands out a zeroed []int16 of numL2 entries from the slab.
func (d *directory) carveOwnCount() []int16 {
	if len(d.slab) < d.numL2 {
		d.slab = make([]int16, ownCountSlabLen)
	}
	oc := d.slab[:d.numL2:d.numL2]
	d.slab = d.slab[d.numL2:]
	return oc
}

// peek returns the state for object if it has ever been initialized, else
// nil. It never allocates: one bounds check and one load on the hot path.
func (d *directory) peek(object uint64) *objState {
	if object < uint64(len(d.slots)) {
		st := &d.slots[object]
		if st.ownCount == nil {
			return nil
		}
		return st
	}
	if object < maxDirSlots {
		return nil
	}
	return d.overflow[object]
}

// state returns the state for object, initializing its slot on first touch.
// Returned pointers are valid until the next state() call for a new object
// (which may grow the table); no caller retains them across updates.
func (d *directory) state(object uint64) *objState {
	if object >= maxDirSlots {
		st := d.overflow[object]
		if st == nil {
			st = &objState{ownCount: d.carveOwnCount(), rootHolder: -1}
			if d.overflow == nil {
				d.overflow = make(map[uint64]*objState)
			}
			d.overflow[object] = st
		}
		return st
	}
	if object >= uint64(len(d.slots)) {
		n := uint64(512)
		for n <= object {
			n *= 2
		}
		grown := make([]objState, n)
		copy(grown, d.slots)
		d.slots = grown
	}
	st := &d.slots[object]
	if st.ownCount == nil {
		st.ownCount = d.carveOwnCount()
		st.rootHolder = -1
	}
	return st
}

// addCopy records a new copy of object at node (in subtree s2) at time t.
func (d *directory) addCopy(object uint64, node int32, s2 int, version int64, t time.Duration) {
	st := d.state(object)

	// Drop any stale record for this node: the copy is back.
	for i := 0; i < len(st.stales); i++ {
		if st.stales[i].node == node {
			st.stales = append(st.stales[:i], st.stales[i+1:]...)
			i--
		}
	}
	// Replace an existing holder record (version refresh) or append.
	for i := range st.holders {
		if st.holders[i].node == node {
			st.holders[i].version = version
			st.holders[i].addedAt = t
			d.leafUpdates++
			d.centralUpdates++
			return
		}
	}
	if st.holders == nil {
		// Most objects accumulate a few holders; starting at capacity 4
		// skips the 1->2->4 growth reallocations on every fresh object.
		st.holders = make([]holderRec, 0, 4)
	}
	if len(st.holders) == 0 || version < st.minVersion {
		st.minVersion = version
	}
	st.holders = append(st.holders, holderRec{node: node, version: version, addedAt: t})

	// Update traffic accounting.
	d.leafUpdates++
	d.centralUpdates++

	// Metadata-hierarchy filter: the L2 parent forwards the add to the
	// root only if it previously knew of no copy at all — neither in its
	// own subtree nor via a root broadcast.
	hadOwn := st.ownCount[s2] > 0
	st.ownCount[s2]++
	if !hadOwn && st.knownRemote&(1<<uint(s2)) == 0 {
		d.rootUpdates++
		st.rootHolder = int16(s2)
		// The root broadcasts the new location down to every other
		// subtree.
		for s := 0; s < d.numL2; s++ {
			if s != s2 {
				st.knownRemote |= 1 << uint(s)
			}
		}
	}
}

// removeCopy records that node's copy is gone (evicted or invalidated).
func (d *directory) removeCopy(object uint64, node int32, s2 int, t time.Duration) {
	st := d.peek(object)
	if st == nil {
		return
	}
	found := false
	for i := range st.holders {
		if st.holders[i].node == node {
			st.holders = append(st.holders[:i], st.holders[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	if st.stales == nil {
		st.stales = make([]staleRec, 0, maxStaleRecords)
	}
	st.stales = append(st.stales, staleRec{node: node, removedAt: t})
	if len(st.stales) > maxStaleRecords {
		st.stales = append(st.stales[:0], st.stales[len(st.stales)-maxStaleRecords:]...)
	}
	// Removals are rare next to reads: recompute the exact version floor.
	if len(st.holders) > 0 {
		m := st.holders[0].version
		for _, h := range st.holders[1:] {
			if h.version < m {
				m = h.version
			}
		}
		st.minVersion = m
	} else {
		st.minVersion = 0
	}

	d.leafUpdates++
	d.centralUpdates++

	if st.ownCount[s2] > 0 {
		st.ownCount[s2]--
	}
	// The removal climbs to the root only when the subtree lost its last
	// copy and the root was advertising that subtree.
	if st.ownCount[s2] == 0 && st.rootHolder == int16(s2) {
		d.rootUpdates++
		st.rootHolder = -1
		st.knownRemote = 0
		// Another subtree with live copies re-advertises to the root,
		// which re-broadcasts ("use the next best location").
		for s := 0; s < d.numL2; s++ {
			if st.ownCount[s] > 0 {
				d.rootUpdates++
				st.rootHolder = int16(s)
				for o := 0; o < d.numL2; o++ {
					if o != s {
						st.knownRemote |= 1 << uint(o)
					}
				}
				break
			}
		}
	}
}

// holdersOlderThan appends the nodes holding a version older than v to dst
// and returns it. Callers pass a reused scratch slice: this runs on every
// request, so it must not allocate on the (overwhelmingly common) path
// where no holder is stale.
func (d *directory) holdersOlderThan(object uint64, v int64, dst []int32) []int32 {
	st := d.peek(object)
	if st == nil || st.minVersion >= v || len(st.holders) == 0 {
		return dst
	}
	for _, h := range st.holders {
		if h.version < v {
			dst = append(dst, h.node)
		}
	}
	return dst
}

// purgeExpiredStales drops stale records whose hint visibility window has
// closed.
func (st *objState) purgeExpiredStales(t, delay time.Duration) {
	kept := st.stales[:0]
	for _, s := range st.stales {
		if s.removedAt+delay > t {
			kept = append(kept, s)
		}
	}
	st.stales = kept
}

// lookupResult is what a hint query returns.
type lookupResult struct {
	// found is false when no candidate is visible (true miss / false
	// negative).
	found bool
	// genuine is true when the chosen candidate actually holds the data.
	genuine bool
	// node is the chosen candidate.
	node int32
	// near is true when the candidate shares the requester's L2 subtree.
	near bool
}

// lookup finds the nearest visible candidate copy of object for requester
// (in subtree reqS2) at time t, under a hint-propagation delay. Additions
// become visible to other nodes delay after they happen; removals likewise,
// during which window the dangling hint is a false-positive candidate.
// Genuine candidates win over stale ones within the same distance class
// because a genuine copy's hint is at least as fresh as the stale record it
// replaced.
func (d *directory) lookup(object uint64, requester int32, reqS2 int, l2OfNode func(int32) int,
	t, delay time.Duration) lookupResult {

	st := d.peek(object)
	if st == nil {
		return lookupResult{}
	}
	st.purgeExpiredStales(t, delay)

	var nearGenuine, farGenuine, nearStale, farStale *int32
	for i := range st.holders {
		h := &st.holders[i]
		if h.node == requester || h.addedAt+delay > t {
			continue
		}
		if l2OfNode(h.node) == reqS2 {
			if nearGenuine == nil {
				nearGenuine = &h.node
			}
		} else if farGenuine == nil {
			farGenuine = &h.node
		}
	}
	for i := range st.stales {
		s := &st.stales[i]
		if s.node == requester {
			continue
		}
		if l2OfNode(s.node) == reqS2 {
			if nearStale == nil {
				nearStale = &s.node
			}
		} else if farStale == nil {
			farStale = &s.node
		}
	}

	switch {
	case nearGenuine != nil:
		return lookupResult{found: true, genuine: true, node: *nearGenuine, near: true}
	case nearStale != nil:
		return lookupResult{found: true, genuine: false, node: *nearStale, near: true}
	case farGenuine != nil:
		return lookupResult{found: true, genuine: true, node: *farGenuine, near: false}
	case farStale != nil:
		return lookupResult{found: true, genuine: false, node: *farStale, near: false}
	default:
		return lookupResult{}
	}
}

// anyHolder returns some live holder of the object, or -1.
func (d *directory) anyHolder(object uint64) int32 {
	st := d.peek(object)
	if st == nil || len(st.holders) == 0 {
		return -1
	}
	return st.holders[0].node
}
