// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment), microbenchmarks of the core data
// structures, end-to-end simulator throughput, and ablations of the design
// choices DESIGN.md calls out. The prototype's hint lookups (4.3us in
// memory, 10.8ms on disk, Section 3.2.1) are internal/hintcache's
// BenchmarkHintLookup*.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run at a very small trace scale per iteration;
// use cmd/cachesim for full-resolution output.
package beyondcache_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/cache"
	"beyondcache/internal/cluster"
	"beyondcache/internal/core"
	"beyondcache/internal/experiments"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/hints"
	"beyondcache/internal/netmodel"
	"beyondcache/internal/plaxton"
	"beyondcache/internal/push"
	"beyondcache/internal/sim"
	"beyondcache/internal/trace"
)

// benchScale keeps one experiment iteration under a second.
const benchScale = trace.Scale(0.001)

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale}
}

// runExperiment is the shared driver for the per-figure benchmarks.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// --- One benchmark per table and figure ------------------------------------

func BenchmarkFigure1(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkTable3(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkFigure2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkTable5(b *testing.B)   { runExperiment(b, "table5") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkTable6(b *testing.B)   { runExperiment(b, "table6") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFigure4(b *testing.B)  { runExperiment(b, "fig4") }

// Extension experiments (the paper's qualitative arguments, quantified).
func BenchmarkExtICP(b *testing.B)         { runExperiment(b, "icp") }
func BenchmarkExtPlaxton(b *testing.B)     { runExperiment(b, "plaxton") }
func BenchmarkExtConsistency(b *testing.B) { runExperiment(b, "consistency") }
func BenchmarkExtReplacement(b *testing.B) { runExperiment(b, "replacement") }
func BenchmarkExtCrawl(b *testing.B)       { runExperiment(b, "crawl") }
func BenchmarkExtLoad(b *testing.B)        { runExperiment(b, "load") }
func BenchmarkExtDigests(b *testing.B)     { runExperiment(b, "digests") }
func BenchmarkExtAllPolicies(b *testing.B) { runExperiment(b, "allpolicies") }

// --- Hint wire records -------------------------------------------------------

// BenchmarkUpdateCodec measures the 20-byte wire record encode/decode.
func BenchmarkUpdateCodec(b *testing.B) {
	batch := make([]hintcache.Update, 128)
	for i := range batch {
		batch[i] = hintcache.Update{Action: hintcache.ActionInform, URLHash: uint64(i) + 1, Machine: 7}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := make([]byte, 0, len(batch)*hintcache.UpdateSize)
		for _, u := range batch {
			msg = hintcache.AppendUpdate(msg, u)
		}
		if _, err := hintcache.AppendDecodedUpdates(nil, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(batch) * hintcache.UpdateSize))
}

// --- Simulator throughput ----------------------------------------------------

// benchRequests pre-generates a workload once.
func benchRequests(b *testing.B) []trace.Request {
	b.Helper()
	p := trace.DECProfile(benchScale)
	reqs, err := trace.ReadAll(trace.MustGenerator(p))
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func BenchmarkHierarchyProcess(b *testing.B) {
	reqs := benchRequests(b)
	sys, err := core.NewSystem(core.Config{Policy: core.PolicyHierarchy, Model: netmodel.NewTestbed()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Process(reqs[i%len(reqs)])
	}
}

func BenchmarkHintsProcess(b *testing.B) {
	reqs := benchRequests(b)
	sys, err := core.NewSystem(core.Config{Policy: core.PolicyHints, Model: netmodel.NewTestbed()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Process(reqs[i%len(reqs)])
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := trace.DECProfile(benchScale)
	g := trace.MustGenerator(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Next(); err != nil {
			g = trace.MustGenerator(p)
		}
	}
}

// --- Ablations of the design choices DESIGN.md calls out --------------------

// BenchmarkAblationHintWays sweeps hint-table associativity, reporting the
// global hit ratio each achieves at a fixed table size. Justifies the
// prototype's 4-way choice.
func BenchmarkAblationHintWays(b *testing.B) {
	p := trace.DECProfile(benchScale)
	entries := hintcache.EntriesForBytes(64 << 10)
	for _, ways := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				h, err := hints.New(hints.Config{
					Model:       netmodel.NewTestbed(),
					HintEntries: entries,
					HintWays:    ways,
					Warmup:      p.Warmup(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(trace.MustGenerator(p), h); err != nil {
					b.Fatal(err)
				}
				hit = h.HitRatio()
			}
			b.ReportMetric(hit, "hitratio")
		})
	}
}

// BenchmarkAblationPlaxtonArity sweeps the metadata-tree arity, reporting
// the mean path length updates traverse (wider trees are flatter but each
// parent serves more children).
func BenchmarkAblationPlaxtonArity(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	nodes := make([]plaxton.Node, 64)
	used := map[uint64]bool{}
	for i := range nodes {
		id := rng.Uint64()
		for used[id] {
			id = rng.Uint64()
		}
		used[id] = true
		nodes[i] = plaxton.Node{ID: id}
	}
	dist := func(a, c int) float64 {
		d := a - c
		if d < 0 {
			d = -d
		}
		return float64(d)
	}
	for _, bits := range []uint{1, 2, 4} {
		b.Run(fmt.Sprintf("arity=%d", 1<<bits), func(b *testing.B) {
			nw, err := plaxton.New(nodes, bits, dist)
			if err != nil {
				b.Fatal(err)
			}
			var pathLen float64
			var samples int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj := rng.Uint64()
				p := nw.Path(obj, i%len(nodes))
				pathLen += float64(len(p))
				samples++
			}
			b.ReportMetric(pathLen/float64(samples), "pathlen")
		})
	}
}

// BenchmarkAblationSpeculativeEviction compares the repository's
// speculative-second-class eviction (pushes can never displace demand data)
// against plain LRU treatment of pushed copies, reporting the mean response
// time each yields under push-all.
func BenchmarkAblationSpeculativeEviction(b *testing.B) {
	p := trace.DECProfile(benchScale)
	fullCap := int64(5) << 30
	capBytes := int64(float64(fullCap) * float64(benchScale))
	for _, plain := range []bool{false, true} {
		name := "speculative-second-class"
		if plain {
			name = "plain-lru"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				rep := runPushAll(b, p, capBytes, plain)
				mean = float64(rep.MeanResponse.Milliseconds())
			}
			b.ReportMetric(mean, "mean_ms")
		})
	}
}

func runPushAll(b *testing.B, p trace.Profile, capBytes int64, plainLRU bool) core.Report {
	b.Helper()
	sys, err := core.NewSystem(core.Config{
		Policy:       core.PolicyHintsPush,
		PushStrategy: push.HierAll,
		Model:        netmodel.NewRousskovMax(),
		L1Capacity:   capBytes,
		Warmup:       p.Warmup(),
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if plainLRU {
		sys.Hints().SetEvictDemandFirst(true)
	}
	rep, err := sys.Run(trace.MustGenerator(p))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// --- Concurrency: lock striping and singleflight ----------------------------

// BenchmarkShardedCacheParallel measures concurrent throughput of the
// lock-striped object cache against the same structure collapsed to a single
// shard (one lock). Run with -cpu to see the scaling curve.
func BenchmarkShardedCacheParallel(b *testing.B) {
	const (
		objects = 4096
		objSize = 512
	)
	body := make([]byte, objSize)
	for _, shards := range []int{1, 0} {
		name := "shards=1"
		if shards == 0 {
			name = "shards=default"
		}
		b.Run(name, func(b *testing.B) {
			s := cache.NewSharded(shards, int64(objects*objSize*2))
			for i := 0; i < objects; i++ {
				s.Put(cache.Object{ID: uint64(i) + 1, Size: objSize, Version: 1}, body)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				for pb.Next() {
					id := uint64(rng.Intn(objects)) + 1
					if rng.Intn(10) == 0 {
						s.Put(cache.Object{ID: id, Size: objSize, Version: 1}, body)
					} else {
						s.Get(id)
					}
				}
			})
		})
	}
}

// nullResponseWriter is an allocation-free http.ResponseWriter: the
// benchmarks reuse one per goroutine so that measured time is the node's
// fetch path, not recorder allocation and GC sweep.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }

// benchNodeFetch drives a node's /fetch handler in-process (no sockets).
// wrap lets the baseline reintroduce a single global mutex around every
// request — the lock-convoy design the refactor removed. Two workloads:
//
//	hits:     prewarmed working set, every request a local hit. Measures the
//	          CPU cost of the probe path; needs real cores to show striping.
//	coldmiss: every request a distinct cold object against an origin with
//	          500us latency. Measures the paper's "do not slow down misses"
//	          property: misses must overlap, not queue behind one lock, so
//	          the convoy shows even on a single-CPU host.
func benchNodeFetch(b *testing.B, mode string, cfg cluster.NodeConfig, wrap func(http.Handler) http.Handler) {
	b.Helper()
	origin := cluster.NewOrigin(1024)
	osrv := httptest.NewServer(origin.Handler())
	defer osrv.Close()
	cfg.OriginURL = osrv.URL
	cfg.UpdateInterval = time.Hour
	n, err := cluster.NewNode(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}

	h := n.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	const objects = 512
	paths := make([]string, objects)
	for i := range paths {
		// Trace-shaped URLs, past the 32 bytes a string conversion keeps
		// on the stack, as bench and loadgen send.
		paths[i] = "/fetch?url=" + neturl.QueryEscape(trace.ObjectURL(uint64(i)))
	}
	if mode == "hits" {
		for _, p := range paths { // prewarm: every timed request is a local hit
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("prewarm status %d", rec.Code)
			}
		}
	} else {
		origin.SetLatency(500 * time.Microsecond)
	}
	var seq atomic.Int64 // distinct cold URL per op across all goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine pre-built requests and a reusable writer keep the
		// hit loop allocation-free; the handler never mutates the request.
		reqs := make([]*http.Request, objects)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, paths[i], nil)
		}
		w := &nullResponseWriter{h: make(http.Header)}
		rng := rand.New(rand.NewSource(1))
		for pb.Next() {
			req := reqs[rng.Intn(objects)]
			if mode == "coldmiss" {
				req = httptest.NewRequest(http.MethodGet, "/fetch?url="+neturl.QueryEscape(
					fmt.Sprintf("http://example.com/cold/%d", seq.Add(1))), nil)
			}
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != 0 && w.code != http.StatusOK {
				b.Errorf("status %d", w.code)
				return
			}
		}
	})
}

// BenchmarkNodeFetchParallel compares two lockings of the node fetch path
// under the two workloads benchNodeFetch describes:
//
//	global-mutex: every request serialized behind one mutex — the single-lock
//	              baseline, where one lock guards cache, hints, and stats;
//	sharded:      the node as it ships.
func BenchmarkNodeFetchParallel(b *testing.B) {
	for _, mode := range []string{"hits", "coldmiss"} {
		b.Run(mode, func(b *testing.B) {
			b.Run("global-mutex", func(b *testing.B) {
				var mu sync.Mutex
				benchNodeFetch(b, mode, cluster.NodeConfig{Name: "bench"},
					func(h http.Handler) http.Handler {
						return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
							mu.Lock()
							defer mu.Unlock()
							h.ServeHTTP(w, r)
						})
					})
			})
			b.Run("sharded", func(b *testing.B) {
				benchNodeFetch(b, mode, cluster.NodeConfig{Name: "bench"}, nil)
			})
		})
	}
}

// BenchmarkNodeFetchSpans measures what structured-span recording costs the
// prewarmed hit path at the three sampling settings: recording disabled
// (TraceSample < 0), the 1/64 default, and every request sampled. The
// guard this backs (TestHitPathAllocBudget): an unsampled request must
// record nothing and allocate nothing — off and default must stay within
// noise of the BenchmarkNodeFetchParallel/hits/sharded baseline — and even
// sample=all must stay within a few percent of it.
func BenchmarkNodeFetchSpans(b *testing.B) {
	for _, c := range []struct {
		name   string
		sample float64
	}{
		{"sample=off", -1},
		{"sample=default", 0},
		{"sample=all", 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchNodeFetch(b, "hits", cluster.NodeConfig{Name: "bench", TraceSample: c.sample}, nil)
		})
	}
}

// BenchmarkAblationDirectoryVsHints reports the speedup of local hint
// caches over a centralized directory (the design's core bet: metadata
// lookups must not cost a network round trip).
func BenchmarkAblationDirectoryVsHints(b *testing.B) {
	p := trace.DECProfile(benchScale)
	run := func(policy core.Policy) core.Report {
		sys, err := core.NewSystem(core.Config{
			Policy: policy,
			Model:  netmodel.NewTestbed(),
			Warmup: p.Warmup(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run(trace.MustGenerator(p))
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		dir := run(core.PolicyDirectory)
		hint := run(core.PolicyHints)
		speedup = core.Speedup(dir, hint)
	}
	b.ReportMetric(speedup, "speedup")
}
