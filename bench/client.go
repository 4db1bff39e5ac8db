package main

import (
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"sync"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/trace"
)

// sample is one verified fetch as the client saw it: when it completed
// (offset from the window's start), how long it took, and its class.
type sample struct {
	at  time.Duration
	ns  int64
	cls class
}

// noHeader is the (never written) header map every request shares.
var noHeader = http.Header{}

// target is what a client drives: a fleet, or the null handler the floor
// probe serves. Writes need the fleet's origin and purge path, so only a
// fleet target can take a workload that has them.
type target struct {
	hosts []string // host:port per node
	fleet *cluster.Fleet
}

// refEvery makes every refEvery-th iteration of a client's loop start with a
// reference fetch (see bench.ref).
const refEvery = 8

// client is one closed-loop caller: it sends its next request only after
// the previous response has been read and checked, over one keep-alive
// connection per node.
type client struct {
	id      int
	tr      *http.Transport
	tgt     target
	urls    []string // object URL per object ID (shared, read-only)
	queries []string // "url=<escaped>" per object ID (shared, read-only)
	v       *verifier
	buf     []byte
	tracer  *tracer // nil with tracing off
	// pinned makes run fetch only object <id> and skip writes, whatever the
	// generator draws: a null server holds one body per client.
	pinned bool
	// refHost, when set, is the null server this client sends its reference
	// fetches to; refV checks them apart from the fleet's versions.
	refHost string
	refV    *verifier

	samples    []sample
	refSamples []sample
	purgeNs    []int64
	failed     int
	firstErr   error
	seq        uint64
}

func newClient(id int, tgt target, urls, queries []string, size int64) *client {
	return &client{
		id: id,
		tr: &http.Transport{
			// One keep-alive connection per node, strictly: without the cap
			// the transport dials a second connection whenever the next
			// request to a host is issued before the read loop has parked the
			// previous one as idle, and the benchmark would time its own
			// connection churn.
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			// A response that never comes must end the run, not hang it.
			ResponseHeaderTimeout: 30 * time.Second,
		},
		tgt:     tgt,
		urls:    urls,
		queries: queries,
		v:       newVerifier(urls, size),
		buf:     make([]byte, size+1),
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// objectTables renders the URL and pre-escaped query of every object ID.
func objectTables(n int) (urls, queries []string) {
	urls = make([]string, n)
	queries = make([]string, n)
	for i := range urls {
		urls[i] = trace.ObjectURL(uint64(i))
		queries[i] = "url=" + neturl.QueryEscape(urls[i])
	}
	return urls, queries
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// get performs one GET /fetch against host and checks the response with v.
// The returned latency runs from just before the request is handed to the
// transport until the last body byte is read; verification follows, outside
// it. ok is false, and the failure counted, when the fetch failed or the
// response was wrong.
func (c *client) get(host string, obj uint64, v *verifier) (start time.Time, elapsed time.Duration, hdr http.Header, ok bool) {
	req := &http.Request{
		Method: http.MethodGet,
		URL:    &neturl.URL{Scheme: "http", Host: host, Path: "/fetch", RawQuery: c.queries[obj]},
		Header: noHeader,
		Host:   host,
	}
	start = time.Now()
	resp, err := c.tr.RoundTrip(req)
	if err != nil {
		c.fail(fmt.Errorf("%s object %d: %w", host, obj, err))
		return start, 0, nil, false
	}
	n, err := readBody(resp.Body, c.buf)
	resp.Body.Close()
	elapsed = time.Since(start)
	if err != nil {
		c.fail(fmt.Errorf("%s object %d: read body: %w", host, obj, err))
		return start, elapsed, nil, false
	}
	if err := v.check(obj, resp.StatusCode, resp.Header, c.buf[:n]); err != nil {
		c.fail(fmt.Errorf("%s object %d: %w", host, obj, err))
		return start, elapsed, nil, false
	}
	return start, elapsed, resp.Header, true
}

// fetch performs, verifies and files one fetch of the workload.
func (c *client) fetch(node int, obj uint64, windowStart time.Time) {
	start, elapsed, hdr, ok := c.get(c.tgt.hosts[node], obj, c.v)
	if !ok {
		return
	}
	var xcache string
	if h := hdr[headerCache]; len(h) > 0 {
		xcache = h[0]
	}
	cls := classOf(xcache)
	c.samples = append(c.samples, sample{at: start.Sub(windowStart) + elapsed, ns: int64(elapsed), cls: cls})
	if c.tracer != nil {
		c.seq++
		var xtrace string
		if h := hdr[headerTrace]; len(h) > 0 {
			xtrace = h[0]
		}
		c.tracer.record(uint64(c.id)<<56|c.seq, cls, start.Sub(windowStart), elapsed, xtrace)
	}
}

// fetchRef performs one reference fetch: this client's pinned object from
// the null server.
func (c *client) fetchRef(windowStart time.Time) {
	start, elapsed, _, ok := c.get(c.refHost, uint64(c.id), c.refV)
	if ok {
		c.refSamples = append(c.refSamples, sample{at: start.Sub(windowStart) + elapsed, ns: int64(elapsed)})
	}
}

// readBody fills buf from r until EOF and returns the byte count. buf is one
// byte longer than the expected body, so an oversize body shows up as a
// length the verifier rejects rather than being cut to fit.
func readBody(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// write is the workload's one write operation: bump the origin's version of
// the object, then drop every node's copy.
func (c *client) write(obj uint64) {
	start := time.Now()
	version := c.tgt.fleet.Origin.Bump(c.urls[obj])
	c.tgt.fleet.PurgeAll(c.urls[obj])
	c.purgeNs = append(c.purgeNs, int64(time.Since(start)))
	c.v.wrote(obj, version)
}

// run drives the closed loop until the deadline.
func (c *client) run(g *generator, start time.Time, d time.Duration) {
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if c.refHost != "" && i%refEvery == 0 {
			c.fetchRef(start)
		}
		r := g.next()
		if c.pinned {
			r.Obj, r.Write = uint64(c.id), false
		}
		if r.Write {
			c.write(r.Obj)
		}
		c.fetch(r.Node, r.Obj, start)
	}
}

// mark is the process's CPU time at one instant of a window.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

// window is the result of one measured closed-loop window.
type window struct {
	elapsed time.Duration
	clients []*client
	// marks are CPU readings at the window's start, every sliceLen, and at
	// its end, in time order.
	marks []mark
}

// maxClientRate pre-sizes a client's sample slices, in fetches per second
// (twice the fastest rate seen), so the window does not pay for their growth.
const maxClientRate = 50_000

// runWindow runs every client's closed loop for d and waits for them,
// reading the process's CPU time every sliceLen.
func runWindow(clients []*client, gens []*generator, d time.Duration) window {
	// Reserved here and not in setUp, whose time is a metric: zeroing tens of
	// megabytes would be most of a cold fleet's set-up.
	reserve := int(d.Seconds() * maxClientRate)
	for _, c := range clients {
		c.samples = make([]sample, 0, reserve)
		c.refSamples = make([]sample, 0, reserve/refEvery)
	}
	start := time.Now()
	marks := []mark{{0, processCPU()}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, mark{time.Since(start), processCPU()})
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, g *generator) {
			defer wg.Done()
			c.run(g, start, d)
		}(c, gens[i])
	}
	wg.Wait()
	close(stop)
	<-sampled
	elapsed := time.Since(start)
	marks = append(marks, mark{elapsed, processCPU()})
	return window{elapsed: elapsed, clients: clients, marks: marks}
}

// cpu is the process's CPU time over the whole window.
func (w window) cpu() time.Duration { return w.marks[len(w.marks)-1].cpu - w.marks[0].cpu }

// attempted counts the workload's fetches, verified or failed. Reference
// fetches are not the workload's, but one that fails is counted (in failed,
// and so here) rather than dropped.
func (w window) attempted() int {
	n := 0
	for _, c := range w.clients {
		n += len(c.samples) + c.failed
	}
	return n
}

func (w window) failed() int {
	n := 0
	for _, c := range w.clients {
		n += c.failed
	}
	return n
}

func (w window) firstErr() error {
	for _, c := range w.clients {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// latencies returns every sample's latency, and the same split by class.
func (w window) latencies() (all []int64, byClass [numClasses][]int64) {
	for _, c := range w.clients {
		for _, s := range c.samples {
			all = append(all, s.ns)
			byClass[s.cls] = append(byClass[s.cls], s.ns)
		}
	}
	return all, byClass
}

func (w window) refLatencies() []int64 {
	var out []int64
	for _, c := range w.clients {
		for _, s := range c.refSamples {
			out = append(out, s.ns)
		}
	}
	return out
}

func (w window) purges() []int64 {
	var out []int64
	for _, c := range w.clients {
		out = append(out, c.purgeNs...)
	}
	return out
}
