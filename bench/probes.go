package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"beyondcache/internal/cache"
	"beyondcache/internal/digest"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/overlay"
	"beyondcache/internal/resilience"
	"beyondcache/internal/store"
	"beyondcache/internal/wire"
)

// Layer probes (source C): single-goroutine timed calls into each package's
// public functions at the workload's object size and population. A probe
// reports the median over probeBatches batches, so one GC pause or
// descheduling cannot move it.
const probeBatches = 21

// probe times batches of ops calls of fn(i) and returns the median ns per
// call and the median heap allocations per call.
func probe(ops int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	var ms runtime.MemStats
	for b := range ns {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		for i := 0; i < ops; i++ {
			fn(b*ops + i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns[b] = float64(elapsed.Nanoseconds()) / float64(ops)
		allocs[b] = float64(ms.Mallocs-mallocs) / float64(ops)
	}
	return medianFloat(ns), medianFloat(allocs)
}

// discardWriter is the cheapest http.ResponseWriter: it keeps headers in a
// reused map and drops the body, so handler_local_* measures the handler.
type discardWriter struct{ hdr http.Header }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// probeHandler times Node.Handler().ServeHTTP for a LOCAL hit on the live
// fleet: the in-process rung of the ladder, with no sockets and no client.
func probeHandler(m metricSet, b *bench) {
	node := b.fleet.Nodes[0]
	first, _ := b.w.population(0)
	req := httptest.NewRequest(http.MethodGet, "/fetch?"+b.clients[0].queries[first], nil)
	h := node.Handler()
	w := &discardWriter{hdr: http.Header{}}
	h.ServeHTTP(w, req) // fills the object if the workload started cold
	m["cluster.handler_local_ns"], m["cluster.handler_local_allocs"] = probe(2000, func(int) {
		clear(w.hdr)
		h.ServeHTTP(w, req)
	})
}

// nullServer is the cheapest correct answer to a fetch: an http.Server whose
// handler serves, from memory, the origin's body for each client's pinned
// object (object <client id>, version 1) at the workload's size. Everything a
// fetch from it costs is the tool's own: client, net/http, loopback.
type nullServer struct {
	host string
	srv  *http.Server
	done chan struct{}
}

func startNullServer(w *workload, urls, queries []string) (*nullServer, error) {
	bodies := make(map[string][]byte, numClients)
	for c := 0; c < numClients; c++ {
		bodies[queries[c]] = originBody(urls[c], 1, int(w.Fleet.ObjectSize))
	}
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.URL.RawQuery]
		if !ok {
			http.NotFound(rw, r)
			return
		}
		hdr := rw.Header()
		hdr[headerCache] = []string{"LOCAL"}
		hdr[headerVersion] = []string{"1"}
		hdr["Content-Length"] = []string{strconv.Itoa(len(body))}
		rw.Write(body)
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("null server: %w", err)
	}
	n := &nullServer{host: lis.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(lis) // returns ErrServerClosed on Shutdown
	}()
	return n, nil
}

func (n *nullServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if n.srv.Shutdown(ctx) != nil {
		n.srv.Close()
	}
	<-n.done
}

// probeFloor runs the workload's own generator and clients flat out against
// a null server for d: the tool's floor, to be subtracted from
// cpu_us_per_req and compared with fetch_p50_us before blaming the fleet for
// either.
func probeFloor(m metricSet, w *workload, seed int64, d time.Duration) error {
	urls, queries := objectTables(w.totalObjects())
	null, err := startNullServer(w, urls, queries)
	if err != nil {
		return err
	}
	defer null.stop()
	tgt := target{}
	for i := 0; i < w.Fleet.Nodes; i++ {
		tgt.hosts = append(tgt.hosts, null.host)
	}
	zipf := newZipf(w)
	var clients []*client
	var gens []*generator
	for c := 0; c < numClients; c++ {
		cl := newClient(c, tgt, urls, queries, w.Fleet.ObjectSize)
		cl.pinned = true
		defer cl.close()
		clients = append(clients, cl)
		gens = append(gens, newGenerator(w, zipf, seed, c))
	}
	win := runWindow(clients, gens, d)
	if win.failed() > 0 {
		return fmt.Errorf("floor probe: %d of %d fetches failed, first: %w", win.failed(), win.attempted(), win.firstErr())
	}
	all, _ := win.latencies()
	m["client.null_fetch_p50_us"] = us(percentile(all, 0.50))
	m["client.null_cpu_us_per_req"] = ratio(float64(win.cpu().Microseconds()), float64(win.attempted()))
	m["client.null_rps"] = float64(win.attempted()) / win.elapsed.Seconds()
	return nil
}

// originBody renders the origin's deterministic body for (url, version).
func originBody(url string, version int64, size int) []byte {
	pattern := url + "#" + strconv.FormatInt(version, 10) + "|"
	body := make([]byte, 0, size+len(pattern))
	for len(body) < size {
		body = append(body, pattern...)
	}
	return body[:size]
}

// probeLayers times the packages under the fleet one call at a time.
func probeLayers(m metricSet, w *workload) error {
	size := w.Fleet.ObjectSize
	pop := w.totalObjects()
	ids := make([]uint64, pop)
	for i := range ids {
		ids[i] = hintcache.HashURL(strconv.Itoa(i))
	}
	body := make([]byte, size)
	// sink takes every probed call's result, so the compiler cannot drop the
	// call.
	var sink uint64
	defer runtime.KeepAlive(&sink)

	// cache: the sharded object cache, sized to hold the population.
	data := cache.NewSharded(0, int64(pop+1)*size)
	for _, id := range ids {
		data.Put(cache.Object{ID: id, Size: size, Version: 1}, body)
	}
	m["cache.get_ns"], _ = probe(5000, func(i int) {
		o, _, _ := data.Get(ids[i%pop])
		sink += o.ID
	})
	m["cache.put_ns"], _ = probe(5000, func(i int) {
		data.Put(cache.Object{ID: ids[i%pop], Size: size, Version: 1}, body)
	})

	// hintcache + wire: one update batch of the size a flush round carries.
	hints := hintcache.NewStriped(65536, 4, 0)
	const batch = 256
	updates := make([]hintcache.Update, batch)
	for i := range updates {
		updates[i] = hintcache.Update{Action: hintcache.ActionInform, URLHash: ids[i%pop], Machine: 7}
	}
	if err := hints.ApplyBatch(updates); err != nil {
		return err
	}
	m["hintcache.lookup_ns"], _ = probe(5000, func(i int) {
		mach, _ := hints.Lookup(ids[i%batch%pop])
		sink += mach
	})
	ns, _ := probe(200, func(int) { _ = hints.ApplyBatch(updates) })
	m["hintcache.apply_ns_per_update"] = ns / batch
	var recs, frame []byte
	ns, _ = probe(200, func(int) {
		recs = recs[:0]
		for _, u := range updates {
			recs = hintcache.AppendUpdate(recs, u)
		}
		frame = wire.AppendFrame(frame[:0], wire.KindHintBatch, recs, 0)
	})
	m["wire.encode_ns_per_update"] = ns / batch
	var decoded []hintcache.Update
	var decodeErr error
	ns, _ = probe(200, func(int) {
		f, _, err := wire.Decode(frame)
		if err == nil {
			var payload []byte
			if payload, err = f.Payload(nil); err == nil {
				decoded, err = hintcache.AppendDecodedUpdates(decoded[:0], payload)
			}
		}
		if err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil || len(decoded) != batch {
		return fmt.Errorf("wire probe: decoded %d of %d updates: %v", len(decoded), batch, decodeErr)
	}
	m["wire.decode_ns_per_update"] = ns / batch

	// overlay: owner lookup over a membership of the workload's fleet size.
	ov, err := overlay.New(4, 2)
	if err != nil {
		return err
	}
	for i := 0; i < w.Fleet.Nodes; i++ {
		addr := "127.0.0.1:" + strconv.Itoa(9000+i)
		ov.Join(hintcache.HashMachine(addr), addr)
	}
	view := ov.View()
	var owners [overlay.MaxReplicas]uint64
	m["overlay.owners_ns"], _ = probe(5000, func(i int) {
		sink += uint64(len(view.Owners(ids[i%pop], owners[:0])))
	})

	// digest: counting filter at the population, and what a 1% churn delta
	// costs beside a full snapshot.
	filter, err := digest.NewCountingForCapacity(pop, 8)
	if err != nil {
		return err
	}
	m["digest.add_ns"], _ = probe(5000, func(i int) { filter.Add(ids[i%pop]) })
	m["digest.contains_ns"], _ = probe(5000, func(i int) {
		if filter.MayContain(ids[i%pop]) {
			sink++
		}
	})
	journal := digest.NewJournal(pop)
	churn := pop/100 + 1
	for i := 0; i < churn; i++ {
		journal.Append(digest.Op{ID: ids[i]})
	}
	delta, _ := journal.AppendSince(nil, 0)
	m["digest.delta_bytes_ratio"] = ratio(float64(len(delta)), float64(len(filter.AppendBinary(nil))))

	// resilience: what wrapping an upstream call in the hedged race costs
	// when the primary answers at once.
	instant := func(context.Context) (int, error) { return 1, nil }
	m["resilience.race_overhead_ns"], _ = probe(2000, func(int) {
		r := resilience.Race(context.Background(), 50*time.Millisecond, instant, instant)
		sink += uint64(r.Value)
	})

	// obs: the two per-request costs on the hit path.
	hist := obs.NewHistogram(nil)
	m["obs.hist_observe_ns"], _ = probe(5000, func(i int) { hist.Observe(time.Duration(i) * time.Microsecond) })
	upstream := []obs.Hop{
		{Node: "127.0.0.1:9001", Outcome: "PEER-SERVE", Elapsed: 40 * time.Microsecond},
		{Node: "127.0.0.1:9001", Outcome: "PEER", Elapsed: 200 * time.Microsecond},
	}
	term := obs.Hop{Node: "node-0", Outcome: "REMOTE", Elapsed: 250 * time.Microsecond}
	m["obs.format_chain_ns"], _ = probe(5000, func(int) { sink += uint64(len(obs.FormatChain(upstream, term))) })

	return probeStore(m, size)
}

// probeStore times the disk store at the workload's object size: Put, a
// verified Get, and the boot recovery scan over what Put left behind. The
// files sit in the OS page cache, so these are the sandbox's numbers, not a
// device's.
func probeStore(m metricSet, size int64) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 31)
	}
	const ops = 50
	var putErr error
	m["store.put_ns"], _ = probe(ops, func(i int) {
		if err := st.Put(cache.Object{ID: uint64(i + 1), Size: size, Version: 1}, body); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		return fmt.Errorf("store probe: %w", putErr)
	}
	const stored = ops * probeBatches
	missing := 0
	m["store.get_ns"], _ = probe(ops, func(i int) {
		if _, _, ok := st.Get(uint64(i%stored + 1)); !ok {
			missing++
		}
	})
	if missing > 0 {
		return fmt.Errorf("store probe: %d of %d reads missed", missing, stored)
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	rec := reopened.Recover(0, func(cache.Object) {})
	if rec.Objects != stored {
		return fmt.Errorf("store probe: recovered %d of %d objects", rec.Objects, stored)
	}
	m["store.recover_ms_per_kobj"] = float64(rec.Duration.Microseconds()) / 1e3 / (stored / 1000.0)
	return nil
}
