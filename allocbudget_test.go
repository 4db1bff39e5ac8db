// The hit-path allocation budget, as a test instead of a human reading
// benchmark output: the prewarmed local-hit path must stay within its
// budget (9 allocs/op, ~181 B/op) — and it must stay there with a
// persistent disk tier configured, since the disk probe belongs to the miss
// path only.
package beyondcache_test

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"testing"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/trace"
)

// hitPathAllocBudget and hitPathBytesBudget are what the handler may
// allocate for one prewarmed LOCAL hit: the cost measured with span
// recording off and at the default 1/64 sampling alike — an unsampled
// request records nothing (recording every request takes 12 and 372 B).
const (
	hitPathAllocBudget = 9
	hitPathBytesBudget = 181
)

// TestHitPathAllocBudget re-measures the prewarmed hit path (the same
// harness as BenchmarkNodeFetchParallel/hits) against that budget, on a
// memory-only node and on one carrying a disk tier. Allocs are exact; bytes
// get 25% headroom for size-class noise.
func TestHitPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in short mode")
	}
	for _, c := range []struct {
		name string
		cfg  cluster.NodeConfig
	}{
		{"memory-only", cluster.NodeConfig{Name: "bench"}},
		{"disk-tier", cluster.NodeConfig{Name: "bench", CacheDir: t.TempDir()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				benchNodeFetch(b, "hits", c.cfg, nil)
			})
			allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp()
			t.Logf("hit path: %d allocs/op, %d B/op (budget %d allocs, %d B)",
				allocs, bytes, hitPathAllocBudget, hitPathBytesBudget)
			if allocs > hitPathAllocBudget {
				t.Errorf("hit path allocates %d/op, budget is %d/op", allocs, hitPathAllocBudget)
			}
			if limit := int64(hitPathBytesBudget * 5 / 4); bytes > limit {
				t.Errorf("hit path allocates %d B/op, budget is %d B/op (+25%%)", bytes, limit)
			}
		})
	}
}

// remoteFillAllocBudget is what one REMOTE fill may allocate, both nodes
// counted: the requesting node's handler and flight, the raced fill (the
// primary's context, the hedge timer and its state, the leg closures), the
// object call and the hook that cuts its connection's deadline when the race
// abandons it, the serving node's answer, the body, the cache insert and the
// hint it queues. Measured at 26, the call bounded by its connection's
// deadline; a deadline context of its own per call, with its timer, took 33
// (35 when calls shared a connection, each behind a channel of its own), and
// the race that ran its primary on a goroutine of its own, behind a channel
// and two contexts, 43.
const remoteFillAllocBudget = 28

// TestRemoteFillAllocBudget holds a hint-driven cache-to-cache fill to its
// allocation budget: the straight-line race must not grow back a goroutine,
// a channel or a context per leg.
func TestRemoteFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 300
	f, err := cluster.StartFleet(cluster.FleetConfig{Nodes: 2, ObjectSize: 1024, UpdateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := make([]*http.Request, objects)
	for i := range reqs {
		url := fmt.Sprintf("http://example.com/remote/%d", i)
		if _, err := f.Fetch(1, url); err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, "/fetch?url="+neturl.QueryEscape(url), nil)
	}
	f.FlushAll() // node 0 now holds a hint for every object, all naming node 1
	h := f.Nodes[0].Handler()
	w := &nullResponseWriter{h: make(http.Header)}
	next := 0
	fetch := func() {
		w.code = 0
		h.ServeHTTP(w, reqs[next])
		next++
	}
	fetch() // dials the peer connection
	before := f.Nodes[0].Stats()
	allocs := testing.AllocsPerRun(objects-2, fetch)
	after := f.Nodes[0].Stats()
	if got := after.RemoteHits - before.RemoteHits; got != objects-1 {
		t.Fatalf("%d of %d fills were REMOTE: the budget below would measure something else", got, objects-1)
	}
	t.Logf("REMOTE fill: %.1f allocs (budget %d)", allocs, remoteFillAllocBudget)
	if allocs > remoteFillAllocBudget {
		t.Errorf("a REMOTE fill allocates %.1f, budget is %d", allocs, remoteFillAllocBudget)
	}
}

// homeServedFillAllocBudget is what one fill answered by the hint home's own
// copy may allocate, both nodes counted: the REMOTE fill's parts
// (remoteFillAllocBudget), with the consult's cancellation hook where the
// transfer's was, the holder call's answer carrying the body where the
// object call's did, and the home's record of the asker. Measured at 25; with
// a deadline context and its timer per consult it took 32, and when the home
// answered with its own machine ID and was then asked for the object in a
// second call, 45.
const homeServedFillAllocBudget = 27

// TestHomeServedFillAllocBudget holds a fill that the hint home serves from
// its own copy to its allocation budget. On a 3-node fleet at R = 2, objects
// are filled at nodes 1 and 2 and fetched once at node 0: those that come
// back REMOTE from their home, in one consult, are kept; node
// 0 purges them and a round clears its records. Their second fills are
// measured.
func TestHomeServedFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 300
	f, err := cluster.StartFleet(cluster.FleetConfig{Nodes: 3, HintPartition: true, ObjectSize: 1024, UpdateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.FlushAll() // membership: every node sees the other two
	// The set-up is bounded in time, not in tries: a breaker that opens on
	// a stall of the box refuses node 0's consults for its cooldown (the
	// default 5 s), which a count of tries burns through in milliseconds.
	// Each skip waits the cooldown out.
	const setupBudget, breakerCooldown = time.Minute, 5 * time.Second
	var (
		reqs []*http.Request
		last cluster.FetchResult
	)
	deadline := time.Now().Add(setupBudget)
	for i := 0; len(reqs) < objects; i++ {
		if time.Now().After(deadline) {
			st := f.Nodes[0].Stats()
			t.Fatalf("%d of %d objects came back REMOTE from their home in %v; node 0: %d breaker skips, %d hedges, %d hint-home errors; last fetch %s, hops %+v",
				len(reqs), i, setupBudget, st.BreakerSkips, st.HedgesStarted, st.HintHomeErrors, last.How, last.Hops)
		}
		url := fmt.Sprintf("http://example.com/home/%d", i)
		for _, at := range []int{1, 2} {
			if _, err := f.Fetch(at, url); err != nil {
				t.Fatal(err)
			}
		}
		// No round has run: an owner of the object goes to the origin, or to
		// a holder a consult of nodes 1 and 2 recorded at it; a non-owner's
		// consult finds a home holding the object.
		before := f.Nodes[0].Stats()
		res, err := f.Fetch(0, url)
		if err != nil {
			t.Fatal(err)
		}
		last = res
		after := f.Nodes[0].Stats()
		if after.BreakerSkips != before.BreakerSkips {
			t.Logf("object %d: node 0's breaker skipped a peer (%s, hops %+v); waiting out its cooldown", i, res.How, res.Hops)
			time.Sleep(breakerCooldown)
		}
		if !res.Remote() || after.HintHomeHits == before.HintHomeHits {
			continue
		}
		if err := f.Purge(0, url); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/fetch?url="+neturl.QueryEscape(url), nil))
	}
	f.FlushAll() // node 0's invalidates reach the homes; its queue is empty
	h := f.Nodes[0].Handler()
	w := &nullResponseWriter{h: make(http.Header)}
	next := 0
	fetch := func() {
		w.code = 0
		h.ServeHTTP(w, reqs[next])
		next++
	}
	fetch() // the connection's first lease
	before := f.Nodes[0].Stats()
	allocs := testing.AllocsPerRun(objects-2, fetch)
	after := f.Nodes[0].Stats()
	if remote, consults := after.RemoteHits-before.RemoteHits, after.HintHomeHits-before.HintHomeHits; remote != objects-1 || consults != objects-1 {
		t.Fatalf("%d REMOTE fills and %d consult hits of %d: the budget below would measure something else", remote, consults, objects-1)
	}
	t.Logf("home-served fill: %.1f allocs (budget %d; a REMOTE fill's is %d)", allocs, homeServedFillAllocBudget, remoteFillAllocBudget)
	if allocs > homeServedFillAllocBudget {
		t.Errorf("a fill served by the home allocates %.1f, budget is %d", allocs, homeServedFillAllocBudget)
	}
}

// missFillAllocBudget is what one candidate-less MISS fill may allocate,
// the in-process origin's serving side counted: the node's handler and
// flight, the request line's escaped URL, the answer's X-Trace-Hop, the
// body, the two hops, the cache insert and the hint it queues — and the
// origin's net/http server. The fetch is bounded by its connection's
// deadline, and the origin's plain head is recognised in place. Measured at
// 46; with a deadline context, its timer and its cancel hook per fetch, and
// http.ReadResponse's response, header map and values and body reader, it
// took 67, and through http.Client and http.Transport (a request, its
// context, a round trip handed between three goroutines) 105.
const missFillAllocBudget = 50

// TestMissFillAllocBudget holds an origin fill to its allocation budget: the
// origin link must not grow back a request object, a pool round trip or a
// goroutine per fetch.
func TestMissFillAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 300
	f, err := cluster.StartFleet(cluster.FleetConfig{Nodes: 1, ObjectSize: 1024, UpdateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := make([]*http.Request, objects)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/fetch?url="+neturl.QueryEscape(fmt.Sprintf("http://example.com/miss/%d", i)), nil)
	}
	h := f.Nodes[0].Handler()
	w := &nullResponseWriter{h: make(http.Header)}
	next := 0
	fetch := func() {
		w.code = 0
		h.ServeHTTP(w, reqs[next])
		next++
	}
	fetch() // dials the origin connection
	before := f.Nodes[0].Stats()
	allocs := testing.AllocsPerRun(objects-2, fetch)
	after := f.Nodes[0].Stats()
	if got := after.Misses - before.Misses; got != objects-1 {
		t.Fatalf("%d of %d fills were MISS: the budget below would measure something else", got, objects-1)
	}
	t.Logf("MISS fill: %.1f allocs (budget %d)", allocs, missFillAllocBudget)
	if allocs > missFillAllocBudget {
		t.Errorf("a MISS fill allocates %.1f, budget is %d", allocs, missFillAllocBudget)
	}
}

// frontDoorHitAllocBudget is what the serving side of one LOCAL hit over a
// real loopback connection may allocate, the client (one write of the head the
// benchmark's client sends, reads into a fixed buffer) allocating nothing: the
// request-target string and the unescaped object URL, and nothing else — the
// request, its URL and its header map are the connection's, refilled in place
// by the front door's recogniser and the map left as it is while the header
// lines repeat, and the door renders the answer's head itself into the
// connection's scratch, the minted request ID and the X-Trace chain appended
// in place. Measured at 2. Through the handler's header map it took 10 (the
// request-target string and TestHitPathAllocBudget's 9: a string and a slice
// per header value); through http.ReadRequest, with a request, a URL, a
// header map and its values and a copy under the door's context per request,
// it took 18 (17 without User-Agent), and through http.Server 27.
const frontDoorHitAllocBudget = 2

// TestFrontDoorHitAllocBudget holds the client-facing hop to its allocation
// budget: the front door must not grow back a per-request request, URL,
// response object, header map or buffer.
func TestFrontDoorHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const size = 4096
	f, err := cluster.StartFleet(cluster.FleetConfig{Nodes: 1, ObjectSize: size, UpdateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	url := trace.ObjectURL(78976) // as long as the URLs bench sends
	if _, err := f.Fetch(0, url); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", f.Nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	req := []byte("GET /fetch?url=" + neturl.QueryEscape(url) + " HTTP/1.1\r\nHost: node\r\nUser-Agent: Go-http-client/1.1\r\n\r\n")
	buf, headEnd := make([]byte, 16<<10), []byte("\r\n\r\n")
	hit := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		for n, want := 0, -1; want < 0 || n < want; {
			m, err := c.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += m
			if i := bytes.Index(buf[:n], headEnd); want < 0 && i >= 0 {
				want = i + len(headEnd) + size
			}
		}
	}
	hit() // the connection's goroutine and buffers
	before := f.Nodes[0].Stats()
	allocs := testing.AllocsPerRun(2000, hit)
	if got := f.Nodes[0].Stats().LocalHits - before.LocalHits; got != 2001 {
		t.Fatalf("%d of 2001 fetches were LOCAL hits: the budget below would measure something else", got)
	}
	t.Logf("LOCAL hit through the front door: %.1f allocs (budget %d)", allocs, frontDoorHitAllocBudget)
	if allocs > frontDoorHitAllocBudget {
		t.Errorf("a LOCAL hit through the front door allocates %.1f, budget is %d", allocs, frontDoorHitAllocBudget)
	}
}

// purgeAllocBudget is what one Fleet.Purge of a cached object may allocate,
// both sides counted: the request line's escaped URL, and the node's
// request-target string and unescaped object URL. The call is bounded by its
// connection's deadline, the 204's head is recognised in place, and the
// door parses no length the answer never set. Measured at 3; with a deadline
// context and its timer, http.ReadResponse's response and header, and a
// strconv error for each 204's absent length, it took 19.
const purgeAllocBudget = 3

// TestPurgeAllocBudget holds a purge, the write path of a fleet's driver, to
// its allocation budget: the link must not grow back a context or a parsed
// response per call, nor the door an error per length-less answer.
func TestPurgeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const objects = 300
	f, err := cluster.StartFleet(cluster.FleetConfig{Nodes: 1, ObjectSize: 1024, UpdateInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	urls := make([]string, objects)
	for i := range urls {
		urls[i] = trace.ObjectURL(uint64(i))
		if _, err := f.Fetch(0, urls[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	purge := func() {
		if err := f.Purge(0, urls[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	purge() // the link's connection
	allocs := testing.AllocsPerRun(objects-2, purge)
	t.Logf("purge: %.1f allocs (budget %d)", allocs, purgeAllocBudget)
	if allocs > purgeAllocBudget {
		t.Errorf("a purge allocates %.1f, budget is %d", allocs, purgeAllocBudget)
	}
}
