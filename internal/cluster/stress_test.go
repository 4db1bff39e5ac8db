package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testFleet is a fleet whose nodes the test builds one by one (a config or
// a breaker shape apart) and which serve through their own front doors like
// any deployed node; only the origin is an httptest server.
type testFleet struct {
	origin  *Origin
	originS *httptest.Server
	nodes   []*Node
	client  *http.Client
}

// start starts the node on a loopback port of its own, adds it to the fleet
// and closes it with the test.
func (f *testFleet) start(t *testing.T, node *Node) {
	t.Helper()
	if err := node.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.nodes = append(f.nodes, node)
	t.Cleanup(func() {
		if err := node.Close(); err != nil {
			t.Errorf("node close: %v", err)
		}
	})
}

// mesh makes every node a peer of every other.
func (f *testFleet) mesh() {
	for _, a := range f.nodes {
		for _, b := range f.nodes {
			if a != b {
				a.AddPeer(b.URL())
			}
		}
	}
}

// newTestFleet boots an origin and n meshed nodes with a long batch
// interval (tests flush explicitly).
func newTestFleet(t *testing.T, n int, objectSize int64) *testFleet {
	t.Helper()
	f := &testFleet{
		origin: NewOrigin(objectSize),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	f.originS = httptest.NewServer(f.origin.Handler())
	t.Cleanup(f.originS.Close)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{
			Name:           fmt.Sprintf("stress-%d", i),
			OriginURL:      f.originS.URL,
			UpdateInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.start(t, node)
	}
	f.mesh()
	return f
}

func (f *testFleet) flushAll() {
	for _, n := range f.nodes {
		n.Flush()
	}
}

// fetch performs GET /fetch and returns how it was served, the version, and
// the body bytes.
func (f *testFleet) fetch(node int, url string) (how string, version int64, body []byte, err error) {
	resp, err := f.client.Get(f.nodes[node].URL() + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		return "", 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, nil, fmt.Errorf("fetch status %d: %s", resp.StatusCode, body)
	}
	version, err = strconv.ParseInt(resp.Header.Get(headerVersion), 10, 64)
	if err != nil {
		return "", 0, nil, err
	}
	return resp.Header.Get(headerCache), version, body, nil
}

// purge drops one node's copy, tolerating 404 (no copy cached).
func (f *testFleet) purge(node int, url string) error {
	resp, err := f.client.Post(f.nodes[node].URL()+"/purge?url="+neturl.QueryEscape(url), "", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("purge status %d", resp.StatusCode)
	}
	return nil
}

// expectedBody reproduces the origin's deterministic body for
// (url, version, size) so the stress test can detect a version header ever
// being paired with another version's bytes.
func expectedBody(url string, version int64, size int64) []byte {
	pattern := []byte(fmt.Sprintf("%s#%d|", url, version))
	out := make([]byte, 0, size)
	for int64(len(out)) < size {
		out = append(out, pattern...)
	}
	return out[:size]
}

// TestFleetStressConcurrent hammers a 4-node fleet from 32 goroutines with
// overlapping object IDs while a churn goroutine bumps versions, purges
// copies, and flushes hint batches. It must pass under -race. Asserts:
//
//   - every response's body is byte-exact for its version header (no stale
//     or torn version is ever served),
//   - the stats add up: local + remote + miss == successful requests.
func TestFleetStressConcurrent(t *testing.T) {
	const (
		nodes      = 4
		workers    = 32
		iters      = 40
		objects    = 8
		objectSize = 2048
	)
	f := newTestFleet(t, nodes, objectSize)
	urls := make([]string, objects)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://example.com/stress/%d", i)
	}

	var requests atomic.Int64
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := urls[i%len(urls)]
			switch i % 3 {
			case 0:
				f.origin.Bump(u)
			case 1:
				for nd := range f.nodes {
					if err := f.purge(nd, u); err != nil {
						t.Error(err)
						return
					}
				}
			case 2:
				f.flushAll()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := urls[(w+i)%len(urls)]
				node := (w + i) % nodes
				how, version, body, err := f.fetch(node, u)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				requests.Add(1)
				if version < 1 {
					t.Errorf("worker %d: version %d for %s (%s)", w, version, u, how)
					return
				}
				if want := expectedBody(u, version, objectSize); !bytes.Equal(body, want) {
					t.Errorf("worker %d: %s served version %d with bytes of another version (%s)",
						w, u, version, how)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	var total, coalesced, local int64
	for _, n := range f.nodes {
		st := n.Stats()
		total += st.LocalHits + st.RemoteHits + st.Misses
		coalesced += st.CoalescedHits
		local += st.LocalHits
	}
	if total != requests.Load() {
		t.Errorf("stats account for %d fetches, client made %d", total, requests.Load())
	}
	if coalesced > local {
		t.Errorf("coalesced hits %d exceed local hits %d", coalesced, local)
	}
}

// TestSingleflightCollapsesConcurrentMisses asserts the acceptance
// criterion directly: N concurrent misses for one object produce exactly
// one origin fetch; everyone else shares the in-flight result.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	const concurrent = 16
	f := newTestFleet(t, 1, 4096)
	// A slow origin keeps the fill in flight long enough for every
	// request to pile onto it.
	f.origin.SetLatency(150 * time.Millisecond)
	const url = "http://example.com/herd"

	var wg sync.WaitGroup
	var misses, coalesced atomic.Int64
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			how, _, _, err := f.fetch(0, url)
			if err != nil {
				t.Error(err)
				return
			}
			switch how {
			case "MISS":
				misses.Add(1)
			case "LOCAL,COALESCED":
				coalesced.Add(1)
			case "LOCAL":
				// A straggler that arrived after the fill completed;
				// counts as a plain hit.
			default:
				t.Errorf("unexpected X-Cache %q", how)
			}
		}()
	}
	wg.Wait()

	if got := f.origin.Fetches(); got != 1 {
		t.Errorf("origin fetches = %d, want exactly 1", got)
	}
	st := f.nodes[0].Stats()
	if st.Misses != 1 {
		t.Errorf("node misses = %d, want 1", st.Misses)
	}
	if st.LocalHits+st.Misses != concurrent {
		t.Errorf("local %d + miss %d != %d requests", st.LocalHits, st.Misses, concurrent)
	}
	if coalesced.Load() == 0 {
		t.Error("no request was coalesced onto the in-flight fill")
	}
	if st.CoalescedHits != coalesced.Load() {
		t.Errorf("stats report %d coalesced, clients saw %d", st.CoalescedHits, coalesced.Load())
	}
}

// TestSingleflightDistinctObjectsDoNotSerialize asserts the other half of
// "do not slow down misses": concurrent misses for different objects
// against a slow origin proceed in parallel rather than queueing behind one
// flight (or one lock). 8 fetches at 100 ms origin latency complete in far
// less than 800 ms.
func TestSingleflightDistinctObjectsDoNotSerialize(t *testing.T) {
	const concurrent = 8
	const latency = 100 * time.Millisecond
	f := newTestFleet(t, 1, 1024)
	f.origin.SetLatency(latency)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, _, err := f.fetch(0, fmt.Sprintf("http://example.com/par/%d", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if got := f.origin.Fetches(); got != concurrent {
		t.Errorf("origin fetches = %d, want %d", got, concurrent)
	}
	// Serialized fetches would take >= concurrent * latency. Allow a wide
	// margin for scheduling noise: half of that still proves parallelism.
	if limit := time.Duration(concurrent) * latency / 2; elapsed >= limit {
		t.Errorf("%d concurrent misses took %v, want < %v (misses are serializing)",
			concurrent, elapsed, limit)
	}
}

// TestFlightGroupLeaderAndWaiters unit-tests the singleflight primitive
// without HTTP: one leader runs the fill, waiters share it, and the key is
// released after completion.
func TestFlightGroupLeaderAndWaiters(t *testing.T) {
	var g flightGroup
	var fills atomic.Int64
	release := make(chan struct{})

	const waiters = 10
	var wg sync.WaitGroup
	var shared atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, wasShared := g.do("k", func() fetchOutcome {
				fills.Add(1)
				<-release
				return fetchOutcome{how: "MISS", version: 7}
			})
			if wasShared {
				shared.Add(1)
			}
			if out.version != 7 {
				t.Errorf("outcome version = %d, want 7", out.version)
			}
		}()
	}
	// Let the goroutines pile up on the flight, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if fills.Load() != 1 {
		t.Errorf("fill ran %d times, want 1", fills.Load())
	}
	if shared.Load() != waiters-1 {
		t.Errorf("shared = %d, want %d", shared.Load(), waiters-1)
	}
	// The key is released: a fresh call runs a fresh fill.
	out, wasShared := g.do("k", func() fetchOutcome {
		fills.Add(1)
		return fetchOutcome{version: 9}
	})
	if wasShared || out.version != 9 || fills.Load() != 2 {
		t.Errorf("post-release do = %+v shared=%v fills=%d", out, wasShared, fills.Load())
	}
}
