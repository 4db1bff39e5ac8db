package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/trace"
)

// numClients is the closed-loop client count: one goroutine and one
// keep-alive connection per node each. The sandbox has two cores, so a third
// client would only queue behind the first two.
const numClients = 2

// workload is one traffic mix and the fleet it runs against. Every
// FleetConfig field not named in Fleet keeps its default.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	// Objects is the population: fleet-wide, or per node when PerNode.
	Objects int
	Alpha   float64
	// PerNode gives every node its own disjoint population, so no request
	// can be served by a peer (disk-spill).
	PerNode bool
	// Prewarm fetches every object of a node's population at that node
	// during set-up; without it the measured window starts cold.
	Prewarm bool
	// WriteEvery turns one request in WriteEvery into a write: bump the
	// origin's version, purge every node's copy, then fetch (0 = no writes).
	WriteEvery    int
	OriginLatency time.Duration
	// Disk gives every node a disk tier under the run's temp directory.
	Disk bool

	// Fleet holds the FleetConfig fields the workload sets; set-up adds
	// CacheDirs when Disk is set.
	Fleet cluster.FleetConfig
}

var workloads = []workload{
	{
		Name:    "hot-local",
		Why:     "4 KiB objects resident on every node: ~100% LOCAL, so per-request cost (handler, cache, net/http) is everything; closed loop, 2 clients",
		Objects: 512, Alpha: 0.8, Prewarm: true,
		Fleet: cluster.FleetConfig{Nodes: 3, ObjectSize: 4 << 10},
	},
	{
		Name: "shared-remote",
		Why:  "64 KiB objects, population = aggregate fleet memory, cold start: broadcast hints turn misses into cache-to-cache transfers; closed loop, 2 clients",
		// No origin latency: the origin's time.Sleep does not slow down with
		// the machine as everything else does (2 ms was 84 % of a client's
		// cycle, and even 0.5 ms, ~1 ms with timer lag, tripled every spread),
		// so no reference can divide the drift out of it. A MISS then costs
		// about what a REMOTE does (64 KiB over one more loopback hop either
		// way): here hit_rate and origin_fetches_per_req carry the paper's
		// point, not the latency ladder. Without the sleep the clients ask
		// ~2.5 times as often, and hints that lag 100 ms behind find their
		// object evicted (REMOTE 8 %); at 25 ms the mix is the one the issue
		// measured, LOCAL 57 / REMOTE 21 / MISS 22 %.
		Objects: 2048, Alpha: 0.8,
		Fleet: cluster.FleetConfig{Nodes: 4, ObjectSize: 64 << 10, CacheBytes: 32 << 20, UpdateInterval: 25 * time.Millisecond},
	},
	{
		Name:    "disk-spill",
		Why:     "16 KiB objects behind 2 MiB of memory: ~85% LOCAL-DISK, every read verifies and promotes, every promote spills; closed loop, 2 clients",
		Objects: 2048, Alpha: 0.6, PerNode: true, Prewarm: true, Disk: true,
		// SpillQueue holds a node's whole population, so the warm-up's burst
		// of first-time spills cannot overflow it and drop objects; the
		// window's first second or two still has the write-behind worker
		// catching up, which a median over forty slices does not see.
		Fleet: cluster.FleetConfig{Nodes: 2, ObjectSize: 16 << 10, CacheBytes: 2 << 20, DiskCapacity: 256 << 20, SpillQueue: 2048},
	},
	{
		Name:    "partition-churn",
		Why:     "1 KiB objects on 6 nodes, population = aggregate memory, partitioned hint directory (R=2), 1 write in 50: routed informs, invalidates and hint-home consults; closed loop, 2 clients",
		Objects: 32768, Alpha: 0.8, WriteEvery: 50,
		// CacheBytes makes the population (32 MiB) about the fleet's aggregate
		// memory, as on shared-remote: with room for everything on every
		// node the mix never settles inside the window, and a faster machine
		// warms further and so runs faster still.
		Fleet: cluster.FleetConfig{Nodes: 6, ObjectSize: 1 << 10, CacheBytes: 6 << 20, HintPartition: true, HintReplicas: 2, UpdateInterval: 100 * time.Millisecond},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// totalObjects is the number of distinct object IDs the workload touches.
func (w *workload) totalObjects() int {
	if w.PerNode {
		return w.Objects * w.Fleet.Nodes
	}
	return w.Objects
}

// population returns the object IDs node's clients may request there.
func (w *workload) population(node int) (first, count uint64) {
	if w.PerNode {
		return uint64(node * w.Objects), uint64(w.Objects)
	}
	return 0, uint64(w.Objects)
}

// request is one generated operation.
type request struct {
	Node  int
	Obj   uint64
	Write bool
}

// generator draws one client's request sequence. The seed reaches nothing
// else: fleet, sizes and populations are fixed by the workload.
//
// Client c draws Zipf ranks over its own interleaved share of the
// population (object = rank*numClients + c), so every operation on an object
// comes from one closed-loop client, in order. That is what makes "a client
// never sees an older version than one it saw or wrote" a guarantee of the
// system rather than a race between one client's purge and the other's
// in-flight fill, and so checkable as a correctness condition. Nodes are
// still shared: any node may be asked for any object.
type generator struct {
	w      *workload
	client int
	rng    *rand.Rand
	zipf   *trace.Zipf
}

func newGenerator(w *workload, zipf *trace.Zipf, seed int64, client int) *generator {
	return &generator{
		w:      w,
		client: client,
		rng:    rand.New(rand.NewSource(seed*numClients + int64(client))),
		zipf:   zipf,
	}
}

// newZipf builds the rank sampler one client draws from.
func newZipf(w *workload) *trace.Zipf {
	return trace.NewZipf(w.Objects/numClients, w.Alpha)
}

func (g *generator) next() request {
	node := g.rng.Intn(g.w.Fleet.Nodes)
	rank := g.zipf.Sample(g.rng)
	first, _ := g.w.population(node)
	r := request{Node: node, Obj: first + uint64(rank*numClients+g.client)}
	if g.w.WriteEvery > 0 {
		r.Write = g.rng.Intn(g.w.WriteEvery) == 0
	}
	return r
}

// sequenceHash is the SHA-256 of the first n requests of every client under
// seed — the fingerprint the determinism test and each run record carry.
func sequenceHash(w *workload, seed int64, n int) string {
	zipf := newZipf(w)
	sum := sha256.New()
	var b [17]byte
	for c := 0; c < numClients; c++ {
		g := newGenerator(w, zipf, seed, c)
		for i := 0; i < n; i++ {
			r := g.next()
			binary.LittleEndian.PutUint64(b[0:8], uint64(r.Node))
			binary.LittleEndian.PutUint64(b[8:16], r.Obj)
			b[16] = 0
			if r.Write {
				b[16] = 1
			}
			sum.Write(b[:])
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}
