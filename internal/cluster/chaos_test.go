package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/resilience"
)

// Chaos integration tests: the fault-injection layer (internal/faults)
// driving the resilience machinery (internal/resilience) through the real
// node handlers. Every test here runs with injected faults somewhere on the
// wire and asserts the client-visible contract the paper's principles
// demand: a stale or dead hint must never make a request slower than going
// straight to the origin, and must never fail a request the origin could
// have served.

// newChaosFleet is a testFleet of n meshed nodes with no periodic round;
// chaos tests set fault specs on it per test.
func newChaosFleet(t *testing.T, n int) *testFleet {
	return newChaosFleetBreakers(t, n, resilience.BreakerConfig{})
}

// newChaosFleetBreakers also swaps in per-peer breakers of the given shape
// (the shipped one is the resilience default, not a knob).
func newChaosFleetBreakers(t *testing.T, n int, brk resilience.BreakerConfig) *testFleet {
	t.Helper()
	f := &testFleet{
		origin: NewOrigin(256),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	f.originS = httptest.NewServer(f.origin.Handler())
	t.Cleanup(f.originS.Close)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{
			Name:           fmt.Sprintf("chaos-%d", i),
			OriginURL:      f.originS.URL,
			UpdateInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.breakerCfg = brk
		f.start(t, node)
	}
	f.mesh()
	return f
}

// prime caches urls at node i and flushes, so every other node holds hints
// pointing there.
func (f *testFleet) prime(t *testing.T, node int, urls []string) {
	t.Helper()
	for _, u := range urls {
		if _, _, _, err := f.fetch(node, u); err != nil {
			t.Fatalf("prime %s: %v", u, err)
		}
	}
	f.flushAll()
}

// noBreaker disables breaking (threshold > 1 can never be reached), so a
// test exercises the hedge path on every request.
var noBreaker = resilience.BreakerConfig{FailureThreshold: 2}

// neverHedge makes every node built after it wait out its peer leg, so a
// fill resolves peer-then-origin with no timer in the outcome: the hedge
// point starts at an hour, and a node whose update interval is an hour (the
// test fleets') runs no periodic round to derive another.
func neverHedge(t testing.TB) { shorten(t, &hedgeCold, time.Hour) }

func urlsN(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://chaos.example/%s-%d", prefix, i)
	}
	return out
}

// TestChaosBreakerOpensAndSkips drives a blackholed peer until its breaker
// opens, asserts later requests skip the peer without paying the hedge
// budget (BREAKER-SKIP hop, plain MISS), then heals the fault and checks
// the half-open probe closes the breaker again.
func TestChaosBreakerOpensAndSkips(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	brk := resilience.BreakerConfig{Window: 4, FailureThreshold: 0.5, MinSamples: 2, Cooldown: cooldown}
	shorten(t, &hedgeCold, 10*time.Millisecond)
	f := newChaosFleetBreakers(t, 2, brk)

	hinted := urlsN("breaker", 8)
	f.prime(t, 1, hinted)
	peerURL := f.nodes[1].URL()
	if err := f.nodes[0].FaultInjector().SetSpec(hostPortOf(peerURL) + ":blackhole"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.nodes[0].FaultInjector().SetSpec("") })

	// Two hedged losses open the breaker (window 4, min 2, threshold .5).
	for _, u := range hinted[:2] {
		how, _, _, err := f.fetch(0, u)
		if err != nil {
			t.Fatal(err)
		}
		if how != "MISS,HEDGE" {
			t.Fatalf("pre-trip fetch served %q, want MISS,HEDGE", how)
		}
	}
	if st := peerOf(f.nodes[0], peerURL).br.Stats(); st.State != resilience.Open {
		t.Fatalf("breaker state after losses = %v, want open", st.State)
	}

	// While open: the hinted peer is skipped outright — no hedge wait,
	// a BREAKER-SKIP hop in the trace, plain MISS to the client.
	res, err := FetchFrom(f.client, f.nodes[0].URL(), hinted[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.How != "MISS" {
		t.Errorf("breaker-open fetch served %q, want MISS", res.How)
	}
	found := false
	for _, h := range res.Hops {
		if h.Outcome == "BREAKER-SKIP" {
			found = true
		}
	}
	if !found {
		t.Errorf("no BREAKER-SKIP hop in trace %v", res.Hops)
	}
	if st := f.nodes[0].Stats(); st.BreakerSkips == 0 {
		t.Errorf("stats = %+v, want breaker skips > 0", st)
	}

	// Heal the network and wait out the cooldown: the next hinted fetch
	// is the half-open probe, succeeds as a cache-to-cache transfer, and
	// closes the breaker.
	if err := f.nodes[0].FaultInjector().SetSpec(""); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	how, _, _, err := f.fetch(0, hinted[3])
	if err != nil {
		t.Fatal(err)
	}
	if how != "REMOTE" {
		t.Errorf("post-heal fetch served %q, want REMOTE", how)
	}
	if st := peerOf(f.nodes[0], peerURL).br.Stats(); st.State != resilience.Closed {
		t.Errorf("breaker state after successful probe = %v, want closed", st.State)
	}
}

// TestChaosFlappingPeerNeverFailsClient flaps the path to the hinted peer
// down and up while a client fetches through the front node: every request
// must succeed regardless of which phase it lands in — peer failures
// surface only as outcome taxonomy (REMOTE vs MISS variants), never as
// client errors.
func TestChaosFlappingPeerNeverFailsClient(t *testing.T) {
	shorten(t, &hedgeCold, 10*time.Millisecond)
	f := newChaosFleetBreakers(t, 2, noBreaker)

	hinted := urlsN("flap", 30)
	f.prime(t, 1, hinted)
	if err := f.nodes[0].FaultInjector().SetSpec(hostPortOf(f.nodes[1].URL()) + ":flap=20ms/20ms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.nodes[0].FaultInjector().SetSpec("") })

	outcomes := map[string]int{}
	for _, u := range hinted {
		how, _, _, err := f.fetch(0, u)
		if err != nil {
			t.Fatalf("fetch during flapping: %v", err)
		}
		outcomes[how]++
		time.Sleep(3 * time.Millisecond) // walk across flap phases
	}
	t.Logf("outcomes under flapping: %v", outcomes)
	for how := range outcomes {
		if how != "REMOTE" && !strings.HasPrefix(how, "MISS") {
			t.Errorf("unexpected outcome %q under flapping", how)
		}
	}
}

// TestPeerDeathHintDemotion kills a peer outright (its server is gone, not
// just faulted) and checks the stale hint is paid once and then demoted:
// the first fetch falls through to the origin as MISS,STALE-HINT, and after
// a purge the refetch is a clean MISS — the dead peer's hint no longer
// exists to mislead anyone.
func TestPeerDeathHintDemotion(t *testing.T) {
	f := newChaosFleet(t, 2)
	const url = "http://chaos.example/dead-peer"
	f.prime(t, 1, []string{url})

	// Kill node 1 for real: refused connections, not injected faults.
	if err := f.nodes[1].Close(); err != nil {
		t.Fatal(err)
	}

	how, _, _, err := f.fetch(0, url)
	if err != nil {
		t.Fatalf("fetch with dead hinted peer: %v", err)
	}
	if how != "MISS,STALE-HINT" {
		t.Errorf("first fetch served %q, want MISS,STALE-HINT", how)
	}
	if st := f.nodes[0].Stats(); st.FalsePositives != 1 {
		t.Errorf("stats = %+v, want exactly one false positive", st)
	}

	// Drop the now-cached copy; the refetch must go straight to the
	// origin — the hint was demoted, not retried.
	if err := f.purge(0, url); err != nil {
		t.Fatal(err)
	}
	how, _, _, err = f.fetch(0, url)
	if err != nil {
		t.Fatal(err)
	}
	if how != "MISS" {
		t.Errorf("post-demotion fetch served %q, want MISS (hint should be gone)", how)
	}
}

// TestEndpointMethodGuards locks read-only endpoints to GET and mutation
// endpoints to POST: the wrong verb gets 405, never a handler side effect.
// The peer-only routes the peer plane replaced are gone, not aliased, and
// /peer itself answers only an upgrade.
func TestEndpointMethodGuards(t *testing.T) {
	f := newChaosFleet(t, 1)
	base := f.nodes[0].URL()
	q := "?url=" + neturl.QueryEscape("http://chaos.example/guard")
	do := func(method, path string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := f.client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	for _, path := range []string{"/metrics", "/debug/spans", "/fetch" + q} {
		do(http.MethodPost, path, http.StatusMethodNotAllowed)
	}
	do(http.MethodGet, "/purge"+q, http.StatusMethodNotAllowed)

	// Removed routes: the duplicates of /debug/spans and /metrics, and the
	// five peer-only endpoints that became frames.
	for _, path := range []string{"/debug/traces", "/stats", "/object" + q, "/updates", "/digest", "/hinthome?h=1", "/ping"} {
		do(http.MethodGet, path, http.StatusNotFound)
		do(http.MethodPost, path, http.StatusNotFound)
	}
	do(http.MethodGet, "/peer", http.StatusUpgradeRequired)
}
