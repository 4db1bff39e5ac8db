package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/obs"
)

// TestFleetObservabilitySmoke is the CI fleet-observability smoke: a live
// 3-node fleet with one blackholed link (node-0 -> node-2) driven through a
// hedged-miss / breaker sequence and a cross-node remote hit, then
// inspected with `cachetop -once -json`. It asserts the snapshot contains
// at least one assembled cross-node trace, at least one trace showing a
// hedge or breaker branch, and that the metadata-freshness plane diverges
// the way the fault should make it: node-1 sees finite hint-propagation
// lag from node-0 while node-2 (behind the blackhole) sees none.
func TestFleetObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping live-fleet smoke in -short mode")
	}
	const interval = time.Second

	origin := cluster.NewOrigin(256)
	if err := origin.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	mk := func(i int) *cluster.Node {
		n, err := cluster.NewNode(cluster.NodeConfig{
			Name:           fmt.Sprintf("obs-%d", i),
			OriginURL:      origin.URL(),
			UpdateInterval: interval,
			TraceSample:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n0 := mk(0)
	defer n0.Close()
	n1 := mk(1)
	defer n1.Close()
	n2 := mk(2)
	defer n2.Close()
	nodes := []*cluster.Node{n0, n1, n2}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.URL())
			}
		}
	}

	// Blackhole node-0's link to node-2 only; heal it before the deferred
	// Closes so node-0's final flush doesn't burn the retry budget.
	inj := n0.FaultInjector()
	if err := inj.SetSpec(hostPort(n2.URL()) + ":blackhole"); err != nil {
		t.Fatal(err)
	}
	defer inj.SetSpec("")

	// Warm objects on node-2 and announce them. node-2's links are all
	// healthy, so a synchronous flush is fast; node-0's own Flush would
	// block on the blackholed sender, so this test never calls it —
	// node-0's deliveries ride its periodic batcher.
	client := &http.Client{Timeout: 10 * time.Second}
	urls := make([]string, 6)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://origin.example/obj-%d", i)
		if _, err := cluster.FetchFrom(client, n2.URL(), urls[i]); err != nil {
			t.Fatal(err)
		}
	}
	n2.Flush()

	// node-0 now holds hints pointing at node-2: each fetch probes the
	// blackholed link, hedges to the origin (PEER-ABANDON), and feeds the
	// breaker a failure once the probe times out. The second round runs
	// after the probes resolve, so the breaker can open into BREAKER-SKIP.
	branch := func(hops []obs.Hop) string {
		for _, h := range hops {
			if h.Outcome == "PEER-ABANDON" || h.Outcome == "BREAKER-SKIP" {
				return h.Outcome
			}
		}
		return ""
	}
	branches := map[string]bool{}
	for round, batch := range [][]string{urls[:4], urls[4:]} {
		if round == 1 {
			time.Sleep(700 * time.Millisecond) // let the round-0 probes time out
		}
		for _, u := range batch {
			res, err := cluster.FetchFrom(client, n0.URL(), u)
			if err != nil {
				t.Fatal(err)
			}
			if b := branch(res.Hops); b != "" {
				branches[b] = true
			}
		}
	}
	if len(branches) == 0 {
		t.Fatal("no fetch from node-0 took a hedge or breaker branch")
	}

	// Cross-node trace: node-1's hints (delivered by node-2's flush) send
	// it to node-2 for a remote hit.
	res, err := cluster.FetchFrom(client, n1.URL(), urls[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote() {
		t.Fatalf("node-1 fetch served %q, want REMOTE", res.How)
	}

	// node-0 cached the hedged objects, so its batcher announces them to
	// node-1 over the healthy link within ~1.5x the interval. Poll node-1's
	// metrics until the propagation-lag histogram has an observation from
	// node-0.
	lagCount := func(base, peer string) int64 {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		p, err := obs.ParseExposition(string(body))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range p.HistogramsOf("beyondcache_hint_propagation_seconds") {
			if h.Labels["peer"] == peer {
				return h.Snapshot.Count()
			}
		}
		return 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for lagCount(n1.URL(), hostPort(n0.URL())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node-1 never recorded hint-propagation lag from node-0")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// One cachetop snapshot over the whole fleet.
	var buf bytes.Buffer
	targets := strings.Join([]string{n0.URL(), n1.URL(), n2.URL()}, ",")
	if err := run([]string{"-nodes", targets, "-once", "-json", "-traces", "0"}, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("snapshot has %d nodes, want 3", len(snap.Nodes))
	}
	for _, n := range snap.Nodes {
		if n.Error != "" {
			t.Fatalf("node %s scrape failed: %s", n.URL, n.Error)
		}
	}

	// At least one genuinely cross-node trace, and at least one trace
	// showing the hedge/breaker branch node-0 took.
	var crossNode, branched bool
	for _, tr := range snap.Traces {
		if tr.Sources >= 2 {
			crossNode = true
		}
		if strings.Contains(tr.Rendered, "PEER-ABANDON") || strings.Contains(tr.Rendered, "BREAKER-SKIP") {
			branched = true
		}
	}
	if !crossNode {
		t.Error("no assembled trace has spans from 2+ nodes")
	}
	if !branched {
		t.Error("no assembled trace shows a PEER-ABANDON or BREAKER-SKIP branch")
	}

	// Freshness divergence: node-1 measured finite lag from node-0 (p99
	// within 2x the batch interval); node-2, behind the blackhole, saw
	// nothing from node-0 at all.
	peerView := func(nodeName, peer string) (PeerView, bool) {
		for _, n := range snap.Nodes {
			if n.Node != nodeName {
				continue
			}
			for _, p := range n.Peers {
				if p.Peer == peer {
					return p, true
				}
			}
		}
		return PeerView{}, false
	}
	from0 := hostPort(n0.URL())
	pv, ok := peerView("obs-1", from0)
	if !ok || pv.HintLagCount < 1 {
		t.Errorf("obs-1 has no hint-lag observations from node-0: %+v (found %v)", pv, ok)
	}
	// The p99 is read off a bucketed histogram, so a lag inside 2x the
	// interval can read as high as the bucket bound above it.
	limit := 2 * interval
	for _, b := range obs.DefaultLatencyBounds() {
		if b >= limit {
			limit = b
			break
		}
	}
	if maxMs := float64(limit) / float64(time.Millisecond); pv.HintLagP99Ms <= 0 || pv.HintLagP99Ms > maxMs {
		t.Errorf("obs-1 hint-lag p99 from node-0 = %.1fms, want (0, %.0fms]", pv.HintLagP99Ms, maxMs)
	}
	if pv, ok := peerView("obs-2", from0); ok && pv.HintLagCount != 0 {
		t.Errorf("obs-2 recorded %d hint-lag observations from blackholed node-0, want 0", pv.HintLagCount)
	}
}
