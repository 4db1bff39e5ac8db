package cluster

import (
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/obs"
)

// pullSpans scrapes one node's /debug/spans from the given cursor and
// decodes the binary payload.
func pullSpans(t *testing.T, client *http.Client, base string, since uint64) (spans []obs.Span, next uint64, lost uint64) {
	t.Helper()
	u := base + "/debug/spans"
	if since > 0 {
		u += "?since=" + strconv.FormatUint(since, 10)
	}
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/spans status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("/debug/spans Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	spans, err = obs.DecodeSpans(body)
	if err != nil {
		t.Fatalf("span payload does not decode: %v", err)
	}
	next = parseUintHeader(t, resp.Header.Get("X-Span-Cursor"))
	lost = parseUintHeader(t, resp.Header.Get("X-Span-Lost"))
	return spans, next, lost
}

func parseUintHeader(t *testing.T, v string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("bad uint header %q: %v", v, err)
	}
	return n
}

// remoteScenario drives the canonical 3-hop fleet trace: node 0 misses to
// the origin, hints flush, node 1 serves the same URL remotely via node 0.
// It returns node 1's REMOTE request ID and raw X-Trace header.
func remoteScenario(t *testing.T, f *testFleet, url string) (reqID, xtrace string) {
	t.Helper()
	if how, _, _ := tracedFetch(t, f, 0, url); how != "MISS" {
		t.Fatalf("warm fetch X-Cache %q, want MISS", how)
	}
	f.flushAll()
	resp, err := f.client.Get(f.nodes[1].URL() + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if how := resp.Header.Get(headerCache); how != "REMOTE" {
		t.Fatalf("peer fetch X-Cache %q, want REMOTE", how)
	}
	return resp.Header.Get(headerRequestID), resp.Header.Get(headerTrace)
}

// TestDebugSpansEndpoint checks the scrape contract: binary payload, cursor
// resume, limit trimming, and method/parameter validation.
func TestDebugSpansEndpoint(t *testing.T) {
	f := newObsFleet(t, 2)
	remoteScenario(t, f, "http://example.com/spans")

	spans, next, lost := pullSpans(t, f.client, f.nodes[0].URL(), 0)
	if lost != 0 {
		t.Errorf("fresh ring reports %d lost spans", lost)
	}
	// Node 0 recorded a multi-span MISS group plus a single-span
	// PEER-SERVE group under node 1's forwarded trace ID.
	if len(spans) < 3 {
		t.Fatalf("node 0 has %d spans, want >= 3", len(spans))
	}
	ids := map[uint64]bool{}
	sawPeerServe := false
	for _, s := range spans {
		ids[s.TraceID] = true
		if s.Outcome == "PEER-SERVE" {
			sawPeerServe = true
		}
	}
	if len(ids) != 2 {
		t.Errorf("node 0 spans cover %d trace IDs, want 2 (own MISS + forwarded serve)", len(ids))
	}
	if !sawPeerServe {
		t.Error("node 0 recorded no PEER-SERVE span for the forwarded request")
	}

	// Resuming from the returned cursor is empty until new work arrives.
	if again, _, _ := pullSpans(t, f.client, f.nodes[0].URL(), next); len(again) != 0 {
		t.Errorf("cursor resume returned %d spans, want 0", len(again))
	}
	tracedFetch(t, f, 0, "http://example.com/spans") // LOCAL: one more span
	if again, _, _ := pullSpans(t, f.client, f.nodes[0].URL(), next); len(again) != 1 {
		t.Errorf("incremental pull returned %d spans, want 1", len(again))
	}

	// ?limit trims and the cursor stops with it.
	resp, err := f.client.Get(f.nodes[0].URL() + "/debug/spans?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	part, err := obs.DecodeSpans(body)
	if err != nil || len(part) != 2 {
		t.Errorf("limited pull = (%d spans, %v), want 2", len(part), err)
	}
	if cur := parseUintHeader(t, resp.Header.Get("X-Span-Cursor")); cur != 2 {
		t.Errorf("limited pull cursor = %d, want 2", cur)
	}
	if node := resp.Header.Get("X-Span-Node"); node != "obs-0" {
		t.Errorf("X-Span-Node = %q, want obs-0", node)
	}

	// Method and parameter validation.
	if resp, err := f.client.Post(f.nodes[0].URL()+"/debug/spans", "", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /debug/spans status %d, want 405", resp.StatusCode)
		}
	}
	for _, q := range []string{"?since=abc", "?limit=0", "?limit=-3", "?limit=x"} {
		resp, err := f.client.Get(f.nodes[0].URL() + "/debug/spans" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/spans%s status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSpanRenderMatchesXTraceHeader pins the source-of-truth inversion: the
// span group a node recorded for a request renders back to the byte-exact
// X-Trace header the response carried.
func TestSpanRenderMatchesXTraceHeader(t *testing.T) {
	f := newObsFleet(t, 2)
	reqID, xtrace := remoteScenario(t, f, "http://example.com/render")
	spans, _, _ := pullSpans(t, f.client, f.nodes[1].URL(), 0)
	tid := obs.TraceID(reqID)
	var group []obs.Span
	for _, s := range spans {
		if s.TraceID == tid {
			group = append(group, s)
		}
	}
	if len(group) < 3 {
		t.Fatalf("REMOTE trace group has %d spans, want >= 3 (terminal + peer round trip + serve)", len(group))
	}
	if got := obs.RenderXTrace(group); got != xtrace {
		t.Errorf("RenderXTrace = %q\nheader        = %q", got, xtrace)
	}
}

// TestAssembledFleetTraceByteStable runs the same deterministic 3-hop
// scenario on two fresh fleets and asserts the assembled, label-renamed
// span forests render to identical bytes — structure does not depend on
// scrape order, port assignment, or timing.
func TestAssembledFleetTraceByteStable(t *testing.T) {
	run := func() string {
		f := newObsFleet(t, 3)
		remoteScenario(t, f, "http://example.com/stable")
		rename := map[string]string{}
		var sources []obs.SpanSource
		for i, n := range f.nodes {
			spans, _, _ := pullSpans(t, f.client, n.URL(), 0)
			src := obs.SpanSource{Label: n.label(), HostPort: hostPortOf(n.URL()), Spans: spans}
			rename[src.HostPort] = src.Label
			sources = append(sources, src)
			_ = i
		}
		trees := obs.Assemble(sources)
		var b strings.Builder
		for _, tree := range trees {
			b.WriteString(tree.Render(rename, false))
		}
		return b.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("assembled forest differs across runs:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	// The REMOTE trace must appear as a complete cross-node tree: node 1's
	// REMOTE root carrying node 0's own PEER-SERVE record.
	want := "  obs-1;REMOTE\n" +
		"    obs-0;PEER\n" +
		"      obs-0;PEER-SERVE\n"
	if !strings.Contains(first, want) {
		t.Errorf("assembled forest lacks the stitched cross-node trace:\n%s", first)
	}
}

// TestHintPropagationLagRecorded checks metadata-freshness layer 1: a
// delivered hint batch shows up in the receiver's propagation histogram for
// the sending peer, with a plausible lag.
func TestHintPropagationLagRecorded(t *testing.T) {
	f := newTestFleet(t, 3, 512)
	if _, _, _, err := f.fetch(0, "http://example.com/lag"); err != nil {
		t.Fatal(err)
	}
	f.nodes[0].Flush()

	from := peerOf(f.nodes[1], f.nodes[0].URL())
	if got := from.hintLag.Count(); got != 1 {
		t.Errorf("propagation observations from %s = %d, want 1", from.host, got)
	}
	if lag := from.hintLag.Sum(); lag <= 0 || lag > 10*time.Second {
		t.Errorf("recorded lag %v implausible", lag)
	}
	// The node that never sent us hints has no observation.
	if silent := peerOf(f.nodes[1], f.nodes[2].URL()); silent.hintLag.Count() != 0 {
		t.Errorf("node 1 recorded propagation lag from %s, which sent nothing", silent.host)
	}

	// The family is in the exposition: the aggregate plus a series for the
	// one peer that has an observation, under its host:port.
	p := scrape(t, f.client, f.nodes[1].URL())
	checkPeerHistograms(t, p, "beyondcache_hint_propagation_seconds", map[string]int64{from.host: 1})
}

// checkPeerHistograms checks one per-peer histogram family of a scrape: a
// labelled series for exactly the peers in want, with those counts, and an
// unlabeled aggregate whose count is their sum.
func checkPeerHistograms(t *testing.T, p *obs.Exposition, family string, want map[string]int64) {
	t.Helper()
	hists := p.HistogramsOf(family)
	if len(hists) != len(want)+1 {
		t.Fatalf("%s has %d series, want %d (aggregate + one per observed peer)", family, len(hists), len(want)+1)
	}
	var aggregate, labelled int64
	for _, ph := range hists {
		host, ok := ph.Labels["peer"]
		if !ok {
			aggregate = ph.Snapshot.Count()
			continue
		}
		if count, known := want[host]; !known || ph.Snapshot.Count() != count {
			t.Errorf("%s{peer=%q} count = %d, want %d (expected peers %v)", family, host, ph.Snapshot.Count(), count, want)
		}
		labelled += ph.Snapshot.Count()
	}
	if aggregate != labelled {
		t.Errorf("%s aggregate count = %d, sum of labelled series = %d", family, aggregate, labelled)
	}
}

// TestDigestStalenessRecorded checks metadata-freshness layer 2: replacing
// a pulled digest observes the replaced snapshot's age.
func TestDigestStalenessRecorded(t *testing.T) {
	f := startDigestFleet(t, 2)
	if _, err := f.Fetch(1, "http://example.com/d"); err != nil {
		t.Fatal(err)
	}
	f.Nodes[0].Flush()
	from := peerOf(f.Nodes[0], f.Nodes[1].URL())
	if got := from.digestStale.Count(); got != 0 {
		t.Fatalf("first pull already observed staleness %d times", got)
	}
	time.Sleep(20 * time.Millisecond)
	f.Nodes[0].Flush()

	if got := from.digestStale.Count(); got != 1 {
		t.Errorf("staleness observations = %d, want 1", got)
	}
	if age := from.digestStale.Sum(); age < 20*time.Millisecond || age > 10*time.Second {
		t.Errorf("recorded staleness %v, want >= 20ms (the inter-pull gap)", age)
	}
	p := scrapeNode(t, f.Nodes[0])
	checkPeerHistograms(t, p, "beyondcache_digest_staleness_seconds", map[string]int64{from.host: 1})
}

// TestDirectoryLagGauge checks the directory-lag gauge: zero at rest,
// positive while updates sit in the pending queue.
func TestDirectoryLagGauge(t *testing.T) {
	f := newTestFleet(t, 2, 512)
	p := scrape(t, f.client, f.nodes[0].URL())
	if v, ok := p.Value("beyondcache_hint_directory_lag_objects"); !ok || v != 0 {
		t.Errorf("idle directory lag = (%v, %v), want (0, true)", v, ok)
	}
	if _, _, _, err := f.fetch(0, "http://example.com/lagged"); err != nil {
		t.Fatal(err)
	}
	p = scrape(t, f.client, f.nodes[0].URL())
	if v, _ := p.Value("beyondcache_hint_directory_lag_objects"); v < 1 {
		t.Errorf("directory lag with a pending inform = %v, want >= 1", v)
	}
	f.nodes[0].Flush()
	p = scrape(t, f.client, f.nodes[0].URL())
	if v, _ := p.Value("beyondcache_hint_directory_lag_objects"); v != 0 {
		t.Errorf("directory lag after flush = %v, want 0", v)
	}
}
