package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/obs"
)

// tmpRoot holds the disk tiers of a run. It is relative to the working
// directory because the benchmark may write only inside its checkout;
// .gitignore names it. Runs remove what they create in it and main removes
// the (then empty) directory itself.
const tmpRoot = ".bench_tmp"

// bench is one booted fleet with its clients, ready for a measured window.
type bench struct {
	w     *workload
	fleet *cluster.Fleet
	// ref is the in-band speed reference: a null server every client sends
	// one fetch in refEvery to, all through the window. The machine's speed
	// drifts by 10-15 % for minutes at a time (see slices.go); the reference
	// fetch costs the same code whatever the fleet does, so a latency
	// divided by the reference latency of the same half second does not.
	ref     *nullServer
	clients []*client
	gens    []*generator
	tmp     string
}

// setUp boots the workload's fleet, prewarms it, and builds the clients and
// their generators: everything between process start and the moment the
// measured window may open.
func setUp(w *workload, seed int64, traced bool) (*bench, error) {
	b := &bench{w: w}
	cfg := w.Fleet
	if w.Disk {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		tmp, err := os.MkdirTemp(tmpRoot, w.Name+"-")
		if err != nil {
			return nil, err
		}
		b.tmp = tmp
		for i := 0; i < cfg.Nodes; i++ {
			cfg.CacheDirs = append(cfg.CacheDirs, filepath.Join(tmp, fmt.Sprintf("node-%d", i)))
		}
	}
	fleet, err := cluster.StartFleet(cfg)
	if err != nil {
		b.close()
		return nil, err
	}
	b.fleet = fleet
	fleet.Origin.SetLatency(w.OriginLatency)
	// One metadata round converges partition-mode membership before any
	// record is routed, as every partitioned fleet test does.
	fleet.FlushAll()

	tgt := target{fleet: fleet}
	for _, n := range fleet.Nodes {
		tgt.hosts = append(tgt.hosts, n.Addr())
	}
	urls, queries := objectTables(w.totalObjects())
	if b.ref, err = startNullServer(w, urls, queries); err != nil {
		b.close()
		return nil, err
	}
	zipf := newZipf(w)
	for c := 0; c < numClients; c++ {
		cl := newClient(c, tgt, urls, queries, cfg.ObjectSize)
		cl.refHost, cl.refV = b.ref.host, newVerifier(urls, cfg.ObjectSize)
		b.clients = append(b.clients, cl)
		b.gens = append(b.gens, newGenerator(w, zipf, seed, c))
	}
	if w.Prewarm {
		if err := b.prewarm(); err != nil {
			b.close()
			return nil, err
		}
	}
	if traced {
		for _, cl := range b.clients {
			cl.tracer = &tracer{client: fmt.Sprintf("client-%d", cl.id)}
		}
	}
	return b, nil
}

// prewarm has each client fetch its own objects of every node's population
// at that node, then flushes the informs so no hint batch of the warm-up
// lands inside the measured window. (runWindow starts every client's samples
// afresh, so the warm-up's are not counted.)
func (b *bench) prewarm() error {
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			start := time.Now()
			for node := range b.fleet.Nodes {
				first, count := b.w.population(node)
				for obj := first + uint64(cl.id); obj < first+count; obj += numClients {
					cl.fetch(node, obj, start)
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, cl := range b.clients {
		if cl.failed > 0 {
			return fmt.Errorf("prewarm: %d fetches failed, first: %w", cl.failed, cl.firstErr)
		}
	}
	b.fleet.FlushAll()
	return nil
}

// close stops the fleet and removes its disk tiers. Safe on a half-built
// bench. Every server is shut down at once rather than through Fleet.Close's
// one-by-one loop: a server holding a connection some node's transport
// dialed but never used waits out its whole 3 s shutdown grace, and one
// grace period per fleet is enough to pay.
func (b *bench) close() {
	for _, cl := range b.clients {
		cl.close()
	}
	if b.ref != nil {
		b.ref.stop()
	}
	if b.fleet != nil {
		var wg sync.WaitGroup
		shut := func(what string, closeFn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := closeFn(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: close %s: %v\n", what, err)
				}
			}()
		}
		for i, n := range b.fleet.Nodes {
			shut(fmt.Sprintf("node %d", i), n.Close)
		}
		shut("origin", b.fleet.Origin.Close)
		wg.Wait()
	}
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
}

// boundary is a snapshot of every counter read at the edges of a window,
// from outside the program: node stats summed over the fleet, a few
// /metrics families the stats struct does not carry, the origin's fetch
// count and the Go runtime.
type boundary struct {
	stats         cluster.Stats
	cacheEvicts   float64
	spilled       float64
	spillDropped  float64
	verifyFails   float64
	originFetches int64
	mem           runtime.MemStats
}

func (b *bench) snapshot() boundary {
	var s boundary
	for _, n := range b.fleet.Nodes {
		addInt64Fields(&s.stats, n.Stats(), 1)
		expo, err := obs.ParseExposition(n.Metrics().String())
		if err != nil {
			continue
		}
		s.cacheEvicts += familySum(expo, "beyondcache_cache_evictions_total")
		s.spilled += familySum(expo, "beyondcache_store_spilled_total")
		s.spillDropped += familySum(expo, "beyondcache_store_spill_dropped_total")
		s.verifyFails += familySum(expo, "beyondcache_store_verify_failures_total")
	}
	s.originFetches = b.fleet.Origin.Fetches()
	runtime.ReadMemStats(&s.mem)
	return s
}

// familySum adds every series of a counter family (all label sets).
func familySum(e *obs.Exposition, name string) float64 {
	f := e.Family(name)
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Series {
		sum += s.Value
	}
	return sum
}

// addInt64Fields adds sign*src's int64 fields onto dst's, field by field:
// the fleet-wide sum (sign 1) and the window delta (sign -1) of a stats
// struct without naming its forty-odd counters.
func addInt64Fields(dst *cluster.Stats, src cluster.Stats, sign int64) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() == reflect.Int64 {
			d.Field(i).SetInt(d.Field(i).Int() + sign*s.Field(i).Int())
		}
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
