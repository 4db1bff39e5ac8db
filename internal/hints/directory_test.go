package hints

import (
	"testing"
	"testing/quick"
	"time"
)

// holderNodes returns the nodes currently holding the object.
func (d *directory) holderNodes(object uint64) []int32 {
	st := d.peek(object)
	if st == nil {
		return nil
	}
	out := make([]int32, len(st.holders))
	for i, h := range st.holders {
		out[i] = h.node
	}
	return out
}

// l2of maps nodes to subtrees of 2 for directory-level tests.
func l2of(n int32) int { return int(n) / 2 }

func TestDirectoryAddRemoveInvariants(t *testing.T) {
	d := newDirectory(4)
	d.addCopy(1, 0, 0, 1, 0)
	d.addCopy(1, 1, 0, 1, time.Second)
	d.addCopy(1, 4, 2, 1, 2*time.Second)

	holders := d.holderNodes(1)
	if len(holders) != 3 {
		t.Fatalf("holders = %v, want 3", holders)
	}
	// Re-adding the same node refreshes, not duplicates.
	d.addCopy(1, 0, 0, 2, 3*time.Second)
	if got := len(d.holderNodes(1)); got != 3 {
		t.Errorf("after refresh: %d holders, want 3", got)
	}
	d.removeCopy(1, 1, 0, 4*time.Second)
	if got := len(d.holderNodes(1)); got != 2 {
		t.Errorf("after remove: %d holders, want 2", got)
	}
	// Removing an absent node is a no-op.
	before := d.centralUpdates
	d.removeCopy(1, 9, 3, 5*time.Second)
	if d.centralUpdates != before {
		t.Error("phantom removal counted as an update")
	}
}

func TestDirectoryFilteringCounters(t *testing.T) {
	d := newDirectory(4)
	// First copy anywhere: reaches the root.
	d.addCopy(1, 0, 0, 1, 0)
	if d.rootUpdates != 1 {
		t.Fatalf("root updates = %d, want 1", d.rootUpdates)
	}
	// Second copy in a DIFFERENT subtree: filtered (that subtree already
	// learned of the first copy via the root broadcast).
	d.addCopy(1, 4, 2, 1, time.Second)
	if d.rootUpdates != 1 {
		t.Errorf("root updates = %d after filtered add, want 1", d.rootUpdates)
	}
	// Copy in the SAME subtree as the first: also filtered.
	d.addCopy(1, 1, 0, 1, 2*time.Second)
	if d.rootUpdates != 1 {
		t.Errorf("root updates = %d, want 1", d.rootUpdates)
	}
	// Centralized directory saw every one of the three adds.
	if d.centralUpdates != 3 {
		t.Errorf("central updates = %d, want 3", d.centralUpdates)
	}

	// Removing the root-advertised subtree's copies: the removal climbs,
	// and the surviving subtree re-advertises.
	d.removeCopy(1, 1, 0, 3*time.Second)
	d.removeCopy(1, 0, 0, 4*time.Second)
	// root received: the removal (+1) and the re-advertisement (+1).
	if d.rootUpdates != 3 {
		t.Errorf("root updates = %d after failover, want 3", d.rootUpdates)
	}
	st := d.peek(1)
	if st.rootHolder != 2 {
		t.Errorf("rootHolder = %d, want subtree 2", st.rootHolder)
	}
}

func TestDirectoryLookupPreference(t *testing.T) {
	d := newDirectory(4)
	// Requester is node 0 (subtree 0). A far copy exists at node 6.
	d.addCopy(1, 6, 3, 1, 0)
	res := d.lookup(1, 0, 0, l2of, time.Minute, 0)
	if !res.found || !res.genuine || res.near {
		t.Fatalf("far lookup = %+v", res)
	}
	// A near copy appears at node 1: preferred over the far one.
	d.addCopy(1, 1, 0, 1, time.Minute)
	res = d.lookup(1, 0, 0, l2of, 2*time.Minute, 0)
	if !res.near || res.node != 1 {
		t.Errorf("near copy not preferred: %+v", res)
	}
	// The requester's own copy is never a candidate.
	d.addCopy(1, 0, 0, 1, 2*time.Minute)
	res = d.lookup(1, 0, 0, l2of, 3*time.Minute, 0)
	if res.node == 0 {
		t.Error("lookup returned the requester itself")
	}
}

func TestDirectoryStaleWindow(t *testing.T) {
	const delay = time.Minute
	d := newDirectory(4)
	d.addCopy(1, 2, 1, 1, 0)
	d.removeCopy(1, 2, 1, 10*time.Minute)
	// Within the propagation window the dangling hint is a false-positive
	// candidate.
	res := d.lookup(1, 0, 0, l2of, 10*time.Minute+30*time.Second, delay)
	if !res.found || res.genuine {
		t.Fatalf("within window: %+v, want stale candidate", res)
	}
	// After the window the record expires: clean miss.
	res = d.lookup(1, 0, 0, l2of, 12*time.Minute, delay)
	if res.found {
		t.Errorf("after window: %+v, want nothing", res)
	}
}

func TestDirectoryAddVisibilityDelay(t *testing.T) {
	const delay = time.Minute
	d := newDirectory(4)
	d.addCopy(1, 2, 1, 1, 0)
	// 10 seconds later, other nodes have not heard yet.
	if res := d.lookup(1, 0, 0, l2of, 10*time.Second, delay); res.found {
		t.Errorf("add visible before delay: %+v", res)
	}
	// After the delay it is.
	if res := d.lookup(1, 0, 0, l2of, 2*time.Minute, delay); !res.found || !res.genuine {
		t.Errorf("add not visible after delay: %+v", res)
	}
}

func TestDirectoryHoldersOlderThan(t *testing.T) {
	d := newDirectory(4)
	d.addCopy(1, 0, 0, 1, 0)
	d.addCopy(1, 2, 1, 2, 0)
	old := d.holdersOlderThan(1, 2, nil)
	if len(old) != 1 || old[0] != 0 {
		t.Errorf("holdersOlderThan = %v, want [0]", old)
	}
	if got := d.holdersOlderThan(99, 5, nil); got != nil {
		t.Errorf("unknown object returned %v", got)
	}
	// Scratch reuse: results append to the passed buffer.
	scratch := make([]int32, 0, 4)
	if got := d.holdersOlderThan(1, 2, scratch[:0]); len(got) != 1 || got[0] != 0 {
		t.Errorf("holdersOlderThan with scratch = %v, want [0]", got)
	}
}

func TestDirectoryStaleRecordsBounded(t *testing.T) {
	d := newDirectory(4)
	for i := 0; i < 50; i++ {
		node := int32(i % 8)
		d.addCopy(1, node, int(node)/2, 1, time.Duration(2*i)*time.Second)
		d.removeCopy(1, node, int(node)/2, time.Duration(2*i+1)*time.Second)
	}
	if got := len(d.peek(1).stales); got > maxStaleRecords {
		t.Errorf("stale records = %d, want <= %d", got, maxStaleRecords)
	}
}

// TestDirectoryQuickInvariants drives random add/remove sequences and
// checks structural invariants: no duplicate holders, subtree counts match
// holder placement, and a valid rootHolder always has copies.
func TestDirectoryQuickInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		d := newDirectory(4)
		var now time.Duration
		for _, op := range ops {
			now += time.Second
			node := int32(op % 8)
			s2 := int(node) / 2
			obj := uint64(op % 5)
			if op%3 == 0 {
				d.removeCopy(obj, node, s2, now)
			} else {
				d.addCopy(obj, node, s2, int64(op%4)+1, now)
			}
			st := d.peek(obj)
			if st == nil {
				continue
			}
			seen := map[int32]bool{}
			counts := make([]int16, 4)
			for _, h := range st.holders {
				if seen[h.node] {
					return false // duplicate holder
				}
				seen[h.node] = true
				counts[h.node/2]++
			}
			for s := 0; s < 4; s++ {
				if counts[s] != st.ownCount[s] {
					return false // subtree bookkeeping drifted
				}
			}
			if st.rootHolder >= 0 && st.ownCount[st.rootHolder] == 0 {
				return false // root advertises an empty subtree
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
