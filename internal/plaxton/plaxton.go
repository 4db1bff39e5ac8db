// Package plaxton implements the randomized tree-embedding algorithm of
// Plaxton, Rajaram, and Richa that the paper uses to make the hint
// distribution hierarchy self-configuring (Section 3.1.3).
//
// Every node gets a pseudo-random ID (the MD5 signature of its address) and
// every object gets a pseudo-random ID (the MD5 signature of its URL). For a
// given object, the nodes whose IDs match the object's ID in the most
// low-order digits form the top of that object's virtual tree; each node's
// level-(l+1) parent is the *nearest* node that matches the node's bottom l
// digits and additionally matches in digit l. Different objects therefore
// use different trees (load distribution), parents at low levels tend to be
// close (locality), and node arrival/departure disturbs only the table
// entries that referenced the node (automatic reconfiguration).
package plaxton

import (
	"fmt"
	"math"
)

// Node is a participant in the embedding.
type Node struct {
	// ID is the node's pseudo-random identifier (MD5 of its address via
	// hintcache.HashMachine in production; arbitrary unique values in
	// tests).
	ID uint64
	// Addr is the node's network address, carried through for callers.
	Addr string
}

// DistanceFunc reports the network distance between two nodes by index. It
// must be symmetric and non-negative.
type DistanceFunc func(i, j int) float64

// Network is an immutable embedding over a fixed node set. Build a new
// Network (or use AddNode/RemoveNode, which rebuild) when membership
// changes.
type Network struct {
	nodes []Node
	dist  DistanceFunc
	bits  uint // digit width; arity = 1 << bits
	arity int
	// levels is the number of digit positions considered; enough that
	// every object's group chain shrinks to a single node.
	levels int

	// table[n][l*arity+d] is the index of the nearest node whose bottom
	// l digits equal n's bottom l digits and whose digit l equals d, or
	// -1 if no such node exists.
	table [][]int32

	// groupSize[n][l] is the number of nodes whose bottom l digits equal
	// n's bottom l digits.
	groupSize [][]int32

	// hashed marks networks built by NewHashed: membership changes rebuild
	// through NewHashed again, so a long join/leave chain never stacks
	// index-remapping distance closures.
	hashed bool
}

// New builds the embedding. bits is the digit width (1 → binary trees,
// 2 → 4-ary, ...). Node IDs must be unique.
func New(nodes []Node, bits uint, dist DistanceFunc) (*Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("plaxton: no nodes")
	}
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("plaxton: bits must be in [1,16], got %d", bits)
	}
	if dist == nil {
		return nil, fmt.Errorf("plaxton: nil distance function")
	}
	seen := make(map[uint64]int, len(nodes))
	for i, n := range nodes {
		if j, dup := seen[n.ID]; dup {
			return nil, fmt.Errorf("plaxton: nodes %d and %d share ID %#x", j, i, n.ID)
		}
		seen[n.ID] = i
	}

	nw := &Network{
		nodes: append([]Node(nil), nodes...),
		dist:  dist,
		bits:  bits,
		arity: 1 << bits,
	}
	// Enough levels that any two distinct 64-bit IDs differ within range,
	// but stop early once every group is a singleton.
	maxLevels := int(64 / bits)
	nw.levels = nw.computeLevels(maxLevels)
	nw.build()
	return nw, nil
}

// NewHashed builds the embedding the live cluster uses. Cluster nodes know
// each other only by hashed address — there is no coordinate space to
// measure real network distance in — but the embedding only needs SOME
// fixed symmetric metric to pick parents deterministically, so distances
// are derived by hashing each ID pair. Every node that sees the same
// membership derives byte-identical tables without exchanging any
// measurements.
func NewHashed(nodes []Node, bits uint) (*Network, error) {
	local := append([]Node(nil), nodes...)
	nw, err := New(local, bits, func(i, j int) float64 {
		return hashDist(local[i].ID, local[j].ID)
	})
	if err != nil {
		return nil, err
	}
	nw.hashed = true
	return nw, nil
}

// hashDist derives a deterministic, symmetric, strictly positive
// pseudo-distance from a pair of distinct node IDs (0 for a node and
// itself).
func hashDist(a, b uint64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	// Keep the value inside float64's exact-integer range so comparisons
	// stay total.
	return float64(x>>11) + 1
}

// computeLevels finds the smallest level count at which every group is a
// singleton (plus one working level), capped at maxLevels.
func (nw *Network) computeLevels(maxLevels int) int {
	for l := 1; l <= maxLevels; l++ {
		groups := make(map[uint64]int)
		mask := nw.mask(l)
		unique := true
		for _, n := range nw.nodes {
			groups[n.ID&mask]++
		}
		for _, c := range groups {
			if c > 1 {
				unique = false
				break
			}
		}
		if unique {
			return l
		}
	}
	return maxLevels
}

// mask returns the bitmask covering the bottom l digits.
func (nw *Network) mask(l int) uint64 {
	shift := uint(l) * nw.bits
	if shift >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << shift) - 1
}

// digit extracts digit l of id.
func (nw *Network) digit(id uint64, l int) int {
	return int((id >> (uint(l) * nw.bits)) & uint64(nw.arity-1))
}

// build computes the routing table and group sizes.
func (nw *Network) build() {
	n := len(nw.nodes)
	nw.table = make([][]int32, n)
	nw.groupSize = make([][]int32, n)
	for i := range nw.table {
		nw.table[i] = make([]int32, nw.levels*nw.arity)
		nw.groupSize[i] = make([]int32, nw.levels+1)
	}

	// Bucket nodes by bottom-l-digit prefix per level, then fill entries.
	for l := 0; l <= nw.levels; l++ {
		mask := nw.mask(l)
		buckets := make(map[uint64][]int32)
		for i, node := range nw.nodes {
			key := node.ID & mask
			buckets[key] = append(buckets[key], int32(i))
		}
		for i, node := range nw.nodes {
			nw.groupSize[i][l] = int32(len(buckets[node.ID&mask]))
		}
		if l == nw.levels {
			break
		}
		// table[n][l][d]: nearest member of n's level-l group whose
		// digit l is d.
		for i, node := range nw.nodes {
			members := buckets[node.ID&mask]
			row := nw.table[i][l*nw.arity : (l+1)*nw.arity]
			for d := 0; d < nw.arity; d++ {
				row[d] = -1
			}
			best := make([]float64, nw.arity)
			for d := range best {
				best[d] = math.Inf(1)
			}
			for _, m := range members {
				d := nw.digit(nw.nodes[m].ID, l)
				var dd float64
				if int(m) != i {
					dd = nw.dist(i, int(m))
				}
				if dd < best[d] || (dd == best[d] && (row[d] == -1 || nw.nodes[m].ID < nw.nodes[row[d]].ID)) {
					best[d] = dd
					row[d] = m
				}
			}
		}
	}
}

// Len returns the number of nodes.
func (nw *Network) Len() int { return len(nw.nodes) }

// Node returns the node at index i.
func (nw *Network) Node(i int) Node { return nw.nodes[i] }

// Arity returns the tree arity (1 << bits).
func (nw *Network) Arity() int { return nw.arity }

// Levels returns the number of digit levels in use.
func (nw *Network) Levels() int { return nw.levels }

// step returns the node to contact from cur at level l for the object, and
// whether a step exists (cur may already be the root).
func (nw *Network) step(object uint64, cur int, l int) int32 {
	row := nw.table[cur][l*nw.arity : (l+1)*nw.arity]
	want := nw.digit(object, l)
	// Cyclic surrogate: take the first populated digit at or after the
	// object's digit. Emptiness of a digit is a global property of the
	// group, so every member routes into the same next group and all
	// paths converge on a unique root.
	for k := 0; k < nw.arity; k++ {
		d := (want + k) % nw.arity
		if row[d] >= 0 {
			return row[d]
		}
	}
	return -1 // unreachable for non-empty groups
}

// Path returns the metadata path for object starting at node index from:
// the sequence of node indices visited, ending at the object's root. The
// first element is always from itself. Updates about the object flow along
// this path (Figure 7b).
func (nw *Network) Path(object uint64, from int) []int {
	path := []int{from}
	cur := from
	for l := 0; l < nw.levels; l++ {
		if nw.groupSize[cur][l] == 1 {
			break // cur is the unique member: the root.
		}
		next := nw.step(object, cur, l)
		if next < 0 {
			break
		}
		if int(next) != cur {
			path = append(path, int(next))
			cur = int(next)
		}
	}
	return path
}

// Root returns the index of the object's root node: the endpoint every
// node's Path converges to. It walks Path's route from node 0 without
// recording it, so an owner lookup allocates nothing.
func (nw *Network) Root(object uint64) int {
	cur := 0
	for l := 0; l < nw.levels && nw.groupSize[cur][l] > 1; l++ {
		next := nw.step(object, cur, l)
		if next < 0 {
			break
		}
		cur = int(next)
	}
	return cur
}

// ParentDistance returns the distance from node i to its level-l next hop
// for the given object, or 0 if i is its own next hop. Used to verify the
// locality property (parents near the leaves are close).
func (nw *Network) ParentDistance(object uint64, i, l int) float64 {
	next := nw.step(object, i, l)
	if next < 0 || int(next) == i {
		return 0
	}
	return nw.dist(i, int(next))
}

// Index returns the position of the node carrying id.
func (nw *Network) Index(id uint64) (int, bool) {
	for i, n := range nw.nodes {
		if n.ID == id {
			return i, true
		}
	}
	return 0, false
}

// AddNode rebuilds the embedding with an extra node and returns the new
// network. The receiver is unchanged.
func (nw *Network) AddNode(n Node) (*Network, error) {
	nodes := append(append([]Node(nil), nw.nodes...), n)
	if nw.hashed {
		return NewHashed(nodes, nw.bits)
	}
	return New(nodes, nw.bits, nw.dist)
}

// RemoveNode rebuilds the embedding without node i, remapping the distance
// function to the surviving indices. The receiver is unchanged.
func (nw *Network) RemoveNode(i int) (*Network, error) {
	if i < 0 || i >= len(nw.nodes) {
		return nil, fmt.Errorf("plaxton: remove index %d out of range", i)
	}
	nodes := make([]Node, 0, len(nw.nodes)-1)
	remap := make([]int, 0, len(nw.nodes)-1)
	for j, n := range nw.nodes {
		if j == i {
			continue
		}
		nodes = append(nodes, n)
		remap = append(remap, j)
	}
	if nw.hashed {
		return NewHashed(nodes, nw.bits)
	}
	old := nw.dist
	dist := func(a, b int) float64 { return old(remap[a], remap[b]) }
	return New(nodes, nw.bits, dist)
}

// RemoveNodeID rebuilds the embedding without the node carrying id — the
// live membership path, where departures are known by machine ID rather
// than index.
func (nw *Network) RemoveNodeID(id uint64) (*Network, error) {
	i, ok := nw.Index(id)
	if !ok {
		return nil, fmt.Errorf("plaxton: no node with ID %#x", id)
	}
	return nw.RemoveNode(i)
}

// TableDiff counts how many routing-table entries changed between two
// embeddings over the nodes they share (matched by ID). It quantifies the
// paper's claim that reconfiguration "disturbs very little of the previous
// configuration".
func TableDiff(a, b *Network) (changed, total int) {
	if a.arity != b.arity {
		return 0, 0
	}
	bIndex := make(map[uint64]int, b.Len())
	for i, n := range b.nodes {
		bIndex[n.ID] = i
	}
	levels := a.levels
	if b.levels < levels {
		levels = b.levels
	}
	for i, n := range a.nodes {
		j, ok := bIndex[n.ID]
		if !ok {
			continue
		}
		for l := 0; l < levels; l++ {
			for d := 0; d < a.arity; d++ {
				total++
				ae := a.table[i][l*a.arity+d]
				be := b.table[j][l*b.arity+d]
				var aID, bID uint64
				if ae >= 0 {
					aID = a.nodes[ae].ID
				}
				if be >= 0 {
					bID = b.nodes[be].ID
				}
				if aID != bID {
					changed++
				}
			}
		}
	}
	return changed, total
}
