package cluster

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/obs"
)

// updateGolden rewrites testdata golden files instead of comparing.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// obsFleet is a testFleet whose nodes trace every request (TraceSample 1),
// so /debug/spans assertions are deterministic. Optional mutators adjust
// each node's config before construction (the golden test gives one node a
// disk tier, for example).
func newObsFleet(t *testing.T, n int, muts ...func(i int, cfg *NodeConfig)) *testFleet {
	t.Helper()
	f := &testFleet{
		origin: NewOrigin(1024),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	f.originS = httptest.NewServer(f.origin.Handler())
	t.Cleanup(f.originS.Close)
	for i := 0; i < n; i++ {
		cfg := NodeConfig{
			Name:           fmt.Sprintf("obs-%d", i),
			OriginURL:      f.originS.URL,
			UpdateInterval: time.Hour,
			TraceSample:    1,
		}
		for _, mut := range muts {
			mut(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.start(t, node)
	}
	f.mesh()
	return f
}

// tracedFetch fetches and returns the response headers alongside the body.
func tracedFetch(t *testing.T, f *testFleet, node int, url string) (how string, hops []obs.Hop, reqID string) {
	t.Helper()
	resp, err := f.client.Get(f.nodes[node].URL() + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch status %d", resp.StatusCode)
	}
	how = resp.Header.Get(headerCache)
	reqID = resp.Header.Get(headerRequestID)
	hops = obs.ParseHops(resp.Header.Get(headerTrace))
	if reqID == "" {
		t.Error("response missing X-Request-Id")
	}
	if len(hops) == 0 {
		t.Fatalf("response missing X-Trace (X-Cache %s)", how)
	}
	// The acceptance invariant: the trace's terminal hop agrees with
	// X-Cache, and names the serving node.
	term := hops[len(hops)-1]
	if term.Outcome != how {
		t.Errorf("terminal hop outcome %q != X-Cache %q (chain %v)", term.Outcome, how, hops)
	}
	if want := f.nodes[node].label(); term.Node != want {
		t.Errorf("terminal hop node %q, want %q", term.Node, want)
	}
	return how, hops, reqID
}

// scrape parses one node-ish /metrics endpoint.
func scrape(t *testing.T, client *http.Client, base string) *obs.Exposition {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeExpo {
		t.Errorf("/metrics Content-Type %q, want %q", ct, contentTypeExpo)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	p, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return p
}

// scrapeNode scrapes a fleet node's /metrics on a connection of its own.
func scrapeNode(t *testing.T, n *Node) *obs.Exposition {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	return scrape(t, client, n.URL())
}

// histConsistent checks every histogram family's invariants: cumulative
// buckets are monotone, the +Inf bucket equals _count, and _sum is present.
func histConsistent(t *testing.T, p *obs.Exposition) {
	t.Helper()
	for _, f := range p.Families {
		if f.Type != "histogram" {
			continue
		}
		// Group bucket series by their non-le label set.
		type agg struct {
			inf, count float64
			hasSum     bool
			last       float64
			ordered    bool
		}
		groups := map[string]*agg{}
		keyOf := func(labels map[string]string) string {
			var parts []string
			for k, v := range labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			sort.Strings(parts)
			return strings.Join(parts, ",")
		}
		for _, s := range f.Series {
			g := groups[keyOf(s.Labels)]
			if g == nil {
				g = &agg{ordered: true}
				groups[keyOf(s.Labels)] = g
			}
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				if s.Value < g.last {
					g.ordered = false
				}
				g.last = s.Value
				if s.Labels["le"] == "+Inf" {
					g.inf = s.Value
				}
			case strings.HasSuffix(s.Name, "_count"):
				g.count = s.Value
			case strings.HasSuffix(s.Name, "_sum"):
				g.hasSum = true
			}
		}
		for key, g := range groups {
			if !g.ordered {
				t.Errorf("%s{%s}: cumulative buckets not monotone", f.Name, key)
			}
			if g.inf != g.count {
				t.Errorf("%s{%s}: +Inf bucket %v != _count %v", f.Name, key, g.inf, g.count)
			}
			if !g.hasSum {
				t.Errorf("%s{%s}: no _sum series", f.Name, key)
			}
		}
	}
}

// TestFleetObservabilityEndToEnd drives a 3-node fleet through every
// outcome class, then checks the trace headers, /metrics exposition, and
// /debug/spans ring against each other.
func TestFleetObservabilityEndToEnd(t *testing.T) {
	f := newObsFleet(t, 3)
	f.origin.SetLatency(5 * time.Millisecond)
	// node0 maps each request ID node 0 answered to the X-Trace chain its
	// response carried, for the span-ring check at the end.
	node0 := map[string][]obs.Hop{}

	// MISS then LOCAL on node 0.
	if how, hops, reqID := tracedFetch(t, f, 0, "http://example.com/a"); true {
		node0[reqID] = hops
		if how != "MISS" {
			t.Errorf("first fetch X-Cache %q, want MISS", how)
		}
		// A miss chain includes the origin's self-reported hop and the
		// node's measured ORIGIN round trip before the terminal hop.
		var outcomes []string
		for _, h := range hops {
			outcomes = append(outcomes, h.Outcome)
		}
		chain := strings.Join(outcomes, " ")
		if !strings.Contains(chain, "ORIGIN-SERVE") || !strings.Contains(chain, "ORIGIN") {
			t.Errorf("miss chain lacks origin hops: %v", hops)
		}
	}
	if how, hops, reqID := tracedFetch(t, f, 0, "http://example.com/a"); how != "LOCAL" {
		t.Errorf("second fetch X-Cache %q, want LOCAL", how)
	} else if len(hops) != 1 {
		t.Errorf("local hit should have exactly the terminal hop: %v", hops)
	} else {
		node0[reqID] = hops
	}

	// REMOTE on node 1 after hints propagate.
	f.flushAll()
	if how, hops, _ := tracedFetch(t, f, 1, "http://example.com/a"); how != "REMOTE" {
		t.Errorf("peer fetch X-Cache %q, want REMOTE", how)
	} else {
		var chain []string
		for _, h := range hops {
			chain = append(chain, h.Outcome)
		}
		joined := strings.Join(chain, " ")
		if !strings.Contains(joined, "PEER-SERVE") || !strings.Contains(joined, "PEER") {
			t.Errorf("remote chain lacks peer hops: %v", hops)
		}
	}

	// Coalescing: hammer one cold URL concurrently; the origin's 5ms
	// latency holds the singleflight window open.
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.client.Get(f.nodes[2].URL() + "/fetch?url=" + neturl.QueryEscape("http://example.com/cold"))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			how := resp.Header.Get(headerCache)
			hops := obs.ParseHops(resp.Header.Get(headerTrace))
			resp.Body.Close()
			mu.Lock()
			outcomes[how]++
			mu.Unlock()
			if len(hops) == 0 || hops[len(hops)-1].Outcome != how {
				t.Errorf("coalesced fetch: terminal hop %v disagrees with X-Cache %q", hops, how)
			}
		}()
	}
	wg.Wait()
	if outcomes["MISS"] != 1 {
		t.Errorf("want exactly one true MISS for the cold URL, got %v", outcomes)
	}

	// First scrape of every server.
	first := make([]*obs.Exposition, len(f.nodes))
	for i := range f.nodes {
		first[i] = scrape(t, f.client, f.nodes[i].URL())
		histConsistent(t, first[i])
		if got := len(first[i].FamilyNames()); got < 15 {
			t.Errorf("node %d exposes %d families, want >= 15", i, got)
		}
	}

	// Node 0 served one MISS and one LOCAL; node 2 served the cold URL.
	if v, ok := first[0].Value("beyondcache_fetch_total", obs.L("outcome", "local")); !ok || v != 1 {
		t.Errorf("node 0 local fetches = %v, %v; want 1", v, ok)
	}
	if v, ok := first[0].Value("beyondcache_fetch_total", obs.L("outcome", "miss")); !ok || v != 1 {
		t.Errorf("node 0 miss fetches = %v, %v; want 1", v, ok)
	}
	if v, ok := first[1].Value("beyondcache_fetch_total", obs.L("outcome", "remote")); !ok || v != 1 {
		t.Errorf("node 1 remote fetches = %v, %v; want 1", v, ok)
	}
	coal, _ := first[2].Value("beyondcache_fetch_coalesced_total")
	if want := float64(outcomes["LOCAL,COALESCED"]); coal != want {
		t.Errorf("node 2 coalesced counter %v, want %v", coal, want)
	}

	// Fetch-duration histogram counts must equal the fetch counters.
	for i, p := range first {
		st := f.nodes[i].Stats()
		var total float64
		for _, s := range p.Family("beyondcache_fetch_duration_seconds").Series {
			if strings.HasSuffix(s.Name, "_count") {
				total += s.Value
			}
		}
		if want := float64(st.LocalHits + st.RemoteHits + st.Misses); total != want {
			t.Errorf("node %d histogram count %v != outcome counters %v", i, total, want)
		}
	}

	// More traffic, then a second scrape: counters must be monotone.
	for i := 0; i < 4; i++ {
		_, hops, reqID := tracedFetch(t, f, 0, "http://example.com/a")
		node0[reqID] = hops
	}
	second := scrape(t, f.client, f.nodes[0].URL())
	histConsistent(t, second)
	for _, fam := range first[0].Families {
		if fam.Type != "counter" {
			continue
		}
		for _, s := range fam.Series {
			var labels []obs.Label
			for k, v := range s.Labels {
				labels = append(labels, obs.L(k, v))
			}
			after, ok := second.Value(s.Name, labels...)
			if !ok {
				t.Errorf("counter %s vanished between scrapes", s.Name)
				continue
			}
			if after < s.Value {
				t.Errorf("counter %s went backwards: %v -> %v", s.Name, s.Value, after)
			}
		}
	}
	if v, ok := second.Value("beyondcache_fetch_total", obs.L("outcome", "local")); !ok || v != 5 {
		t.Errorf("node 0 local after re-fetches = %v, want 5", v)
	}

	// The origin exposes its own exposition.
	originExpo := scrape(t, f.client, f.originS.URL)
	histConsistent(t, originExpo)
	if v, ok := originExpo.Value("beyondcache_origin_fetches_total"); !ok || v < 2 {
		t.Errorf("origin fetches = %v, %v; want >= 2", v, ok)
	}

	// /debug/spans: sampling is 1-in-1, so every fetch node 0 answered is in
	// the ring as one span group (next to the PEER-SERVE record it kept for
	// node 1's request), and each group renders back to the byte-exact
	// X-Trace chain the client was handed.
	spans, _, lost := pullSpans(t, f.client, f.nodes[0].URL(), 0)
	if lost != 0 {
		t.Errorf("span ring lost %d spans", lost)
	}
	groups := map[uint64][]obs.Span{}
	for _, s := range spans {
		groups[s.TraceID] = append(groups[s.TraceID], s)
	}
	if len(node0) != 6 || len(groups) != 7 {
		t.Errorf("node 0 answered %d fetches and holds %d span groups, want 6 and 7", len(node0), len(groups))
	}
	for reqID, hops := range node0 {
		group := groups[obs.TraceID(reqID)]
		want := obs.FormatChain(hops[:len(hops)-1], hops[len(hops)-1])
		if got := obs.RenderXTrace(group); got != want {
			t.Errorf("request %s: span group renders %q, header was %q", reqID, got, want)
		}
	}
	if v, ok := second.Value("beyondcache_spans_recorded_total"); !ok || v != float64(len(spans)) {
		t.Errorf("spans_recorded_total = %v, %v; ring holds %d", v, ok, len(spans))
	}
}

// TestMetricNamesGolden freezes the metric families every server kind
// exposes. If this fails you renamed or removed a metric: that is an
// interface change — update testdata/metric_names.golden in the same commit,
// deliberately. Run with -update to regenerate.
func TestMetricNamesGolden(t *testing.T) {
	// Two nodes, so the per-peer breaker families (created eagerly in
	// AddPeer) appear in the exposition and stay frozen. Node 0 gets a
	// disk tier squeezed so one fetch evicts the last — the store/spill
	// families are scraped from a fleet that has actually spilled.
	f := newObsFleet(t, 2, func(i int, cfg *NodeConfig) {
		if i == 0 {
			cfg.CacheDir = t.TempDir()
			cfg.CacheBytes = 1500 // origin bodies are 1024 B: two never fit
		}
	})
	tracedFetch(t, f, 0, "http://example.com/g") // populate per-outcome series
	tracedFetch(t, f, 0, "http://example.com/h") // evicts g -> spill to disk
	f.nodes[0].WaitRecovery()
	f.nodes[0].tier.Flush()
	if spilled := f.nodes[0].tier.SpillStats().Spilled; spilled < 1 {
		t.Fatalf("golden fleet spilled %d objects, want >= 1", spilled)
	}

	names := map[string]bool{}
	for _, e := range []*obs.Expo{f.nodes[0].Metrics(), f.origin.Metrics()} {
		for _, name := range e.FamilyNames() {
			names[name] = true
		}
	}
	var got []string
	for name := range names {
		got = append(got, name)
	}
	sort.Strings(got)

	golden := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("metric family drift: %d families, golden has %d\ngot:  %v\nwant: %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric family drift at %d: got %q, golden %q", i, got[i], want[i])
		}
	}
}

// TestStatsAgreeWithMetrics: /metrics reads its counters from Stats, so
// after traffic that moves most of them each series must equal its field.
// An R = 2, 4-node fleet serves a MISS behind a clean-miss consult, a LOCAL,
// a REMOTE from the holder a consult named, a stale hint, a coalesced fill
// and a purge whose invalidate a round carries. Every field must also be a
// plain int64 — the benchmark sums the fields of that kind — and have a
// series: a counter /metrics does not show is one nobody reads.
func TestStatsAgreeWithMetrics(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := range typ.NumField() {
		if fl := typ.Field(i); fl.Type != reflect.TypeOf(int64(0)) {
			t.Errorf("Stats.%s is a %s, want int64", fl.Name, fl.Type)
		}
	}

	f := startPartFleet(t, 4, nil)
	fetch := func(i int, url string, want func(FetchResult) bool) {
		t.Helper()
		if res, err := f.Fetch(i, url); err != nil || !want(res) {
			t.Fatalf("node %d fetch of %s = %+v, %v", i, url, res, err)
		}
	}
	const remote, stale, herd = "http://stats.example/remote", "http://stats.example/stale", "http://stats.example/herd"
	ns := nonOwners(f, remote)
	fetch(ns[0], remote, FetchResult.Miss)
	fetch(ns[0], remote, FetchResult.Local)
	fetch(ns[1], remote, FetchResult.Remote)
	ns = nonOwners(f, stale)
	fetch(ns[0], stale, FetchResult.Miss)
	if err := f.Purge(ns[0], stale); err != nil {
		t.Fatal(err)
	}
	fetch(ns[1], stale, FetchResult.StaleHint)

	// A fill held at the origin, and three requests that share it.
	f.Origin.SetLatency(300 * time.Millisecond)
	var wg sync.WaitGroup
	coalesced := make(chan bool, 4)
	for i := range 4 {
		if i == 1 {
			waitFor(t, "the herd's leader to start its fill", func() bool { return f.Nodes[0].flights.inFlight(herd) })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Fetch(0, herd)
			coalesced <- err == nil && res.Coalesced()
		}()
	}
	wg.Wait()
	f.Origin.SetLatency(0)
	close(coalesced)
	shared := 0
	for c := range coalesced {
		if c {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no request shared the held fill")
	}
	if err := f.Purge(ns[1], stale); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()

	table := []struct{ field, family, label, value string }{
		{"LocalHits", "beyondcache_fetch_total", "outcome", "local"},
		{"RemoteHits", "beyondcache_fetch_total", "outcome", "remote"},
		{"Misses", "beyondcache_fetch_total", "outcome", "miss"},
		{"FalsePositives", "beyondcache_fetch_false_positives_total", "", ""},
		{"CoalescedHits", "beyondcache_fetch_coalesced_total", "", ""},
		{"DiskHits", "beyondcache_fetch_disk_hits_total", "", ""},
		{"PeerServes", "beyondcache_peer_serves_total", "", ""},
		{"PeerRejects", "beyondcache_peer_rejects_total", "", ""},
		{"UpdatesSent", "beyondcache_hint_updates_sent_total", "", ""},
		{"UpdatesReceived", "beyondcache_hint_updates_received_total", "", ""},
		{"BatchesSent", "beyondcache_hint_batches_sent_total", "", ""},
		{"SendErrors", "beyondcache_hint_send_errors_total", "", ""},
		{"DigestsPulled", "beyondcache_digest_pulls_total", "", ""},
		{"BreakerSkips", "beyondcache_breaker_skips_total", "", ""},
		{"HedgesStarted", "beyondcache_hedges_started_total", "", ""},
		{"HedgeOriginWins", "beyondcache_hedges_total", "winner", "origin"},
		{"HedgePeerWins", "beyondcache_hedges_total", "winner", "peer"},
		{"Retries", "beyondcache_retries_total", "", ""},
		{"Coalesced", "beyondcache_hint_coalesced_total", "", ""},
		{"PendingDropped", "beyondcache_hint_pending_dropped_total", "", ""},
		{"QueueDropped", "beyondcache_hint_queue_dropped_total", "peer", "*"}, // the per-peer series' sum
		{"OversizeRejects", "beyondcache_updates_oversize_total", "", ""},
		{"DigestServesFull", "beyondcache_digest_serves_total", "mode", "full"},
		{"DigestServesDelta", "beyondcache_digest_serves_total", "mode", "delta"},
		{"DigestServeBytesFull", "beyondcache_digest_serve_bytes_total", "mode", "full"},
		{"DigestServeBytesDelta", "beyondcache_digest_serve_bytes_total", "mode", "delta"},
		{"DigestCursorLost", "beyondcache_digest_cursor_lost_total", "", ""},
		{"DigestRebuilds", "beyondcache_digest_rebuilds_total", "", ""},
		{"DigestDeltaOps", "beyondcache_digest_delta_ops_total", "", ""},
		{"WireHintBytes", "beyondcache_hint_wire_bytes_total", "mode", "broadcast"},
		{"WireHintBytesPartitioned", "beyondcache_hint_wire_bytes_total", "mode", "partitioned"},
		{"HintHomeHits", "beyondcache_hint_home_hops_total", "outcome", "hit"},
		{"HintHomeMisses", "beyondcache_hint_home_hops_total", "outcome", "miss"},
		{"HintHomeErrors", "beyondcache_hint_home_hops_total", "outcome", "error"},
		{"HintHomeServes", "beyondcache_hint_home_serves_total", "outcome", "hit"},
		{"HintHomeServeMisses", "beyondcache_hint_home_serves_total", "outcome", "miss"},
		{"RehomedObjects", "beyondcache_hint_rehome_objects_total", "", ""},
	}
	if len(table) != typ.NumField() {
		t.Errorf("the table names %d fields, Stats has %d", len(table), typ.NumField())
	}
	var fleet Stats
	for i, n := range f.Nodes {
		st := n.Stats()
		p := scrapeNode(t, n)
		for _, row := range table {
			want := reflect.ValueOf(st).FieldByName(row.field)
			if !want.IsValid() {
				t.Fatalf("Stats has no field %s", row.field)
			}
			sum := reflect.ValueOf(&fleet).Elem().FieldByName(row.field)
			sum.SetInt(sum.Int() + want.Int())
			var got float64
			var ok bool
			switch fam := p.Family(row.family); {
			case row.value == "*" && fam != nil:
				for _, s := range fam.Series {
					got += s.Value
				}
				ok = true
			case row.label == "":
				got, ok = p.Value(row.family)
			default:
				got, ok = p.Value(row.family, obs.L(row.label, row.value))
			}
			if !ok || got != float64(want.Int()) {
				t.Errorf("node %d: Stats.%s = %d, %s{%s=%q} = %v (found %v)", i, row.field, want.Int(), row.family, row.label, row.value, got, ok)
			}
		}
	}
	// The traffic reached what it was meant to.
	for name, v := range map[string]int64{
		"Misses": fleet.Misses, "LocalHits": fleet.LocalHits, "RemoteHits": fleet.RemoteHits,
		"CoalescedHits": fleet.CoalescedHits, "FalsePositives": fleet.FalsePositives,
		"PeerServes": fleet.PeerServes, "PeerRejects": fleet.PeerRejects,
		"HintHomeHits": fleet.HintHomeHits, "HintHomeMisses": fleet.HintHomeMisses,
		"HintHomeServes": fleet.HintHomeServes, "HintHomeServeMisses": fleet.HintHomeServeMisses,
		"UpdatesSent": fleet.UpdatesSent, "UpdatesReceived": fleet.UpdatesReceived,
		"BatchesSent": fleet.BatchesSent, "WireHintBytesPartitioned": fleet.WireHintBytesPartitioned,
	} {
		if v == 0 {
			t.Errorf("fleet-wide %s = 0: the traffic did not reach it", name)
		}
	}
}

// TestConfigSurfaceOnlyShrinks pins how many things a caller can set on a
// node and on a fleet, as TestMetricNamesGolden pins the metric families.
func TestConfigSurfaceOnlyShrinks(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{NodeConfig{}, 12},
		{FleetConfig{}, 10},
	} {
		typ := reflect.TypeOf(c.cfg)
		if got := typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, pinned at %d: the count may only go down without a ROADMAP entry (lower the pin here when it does)",
				typ.Name(), got, c.want)
		}
	}
}
