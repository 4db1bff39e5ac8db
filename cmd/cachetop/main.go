// Command cachetop is the fleet inspector: it scrapes every node's
// /metrics and /debug/spans endpoints, stitches the pulled span groups into
// complete cross-node request traces, and renders either a refreshing
// terminal dashboard or machine-readable JSON snapshots.
//
// Watch a local three-node fleet:
//
//	cachetop -nodes http://127.0.0.1:8001,http://127.0.0.1:8002,http://127.0.0.1:8003
//
// One JSON snapshot (for scripts and CI):
//
//	cachetop -nodes http://127.0.0.1:8001,http://127.0.0.1:8002 -once -json
//
// Span scraping is cursor-based: each refresh pulls only the spans recorded
// since the previous pull, so a long-running cachetop costs each node a
// bounded read per interval regardless of traffic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"beyondcache/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachetop:", err)
		os.Exit(1)
	}
}

// PeerView is one node's view of one peer: metadata queue depth, breaker
// position, and how stale that peer's hint batches arrive.
type PeerView struct {
	Peer         string  `json:"peer"`
	QueueDepth   float64 `json:"queue_depth"`
	BreakerState float64 `json:"breaker_state"`
	// HintLag* summarize beyondcache_hint_propagation_seconds for batches
	// received FROM this peer: over the refresh interval when a previous
	// scrape exists (snapshot Diff), cumulative on the first scrape.
	HintLagCount int64   `json:"hint_lag_count"`
	HintLagP50Ms float64 `json:"hint_lag_p50_ms"`
	HintLagP99Ms float64 `json:"hint_lag_p99_ms"`
}

// NodeView is one node's scraped state.
type NodeView struct {
	URL   string `json:"url"`
	Node  string `json:"node"`
	Error string `json:"error,omitempty"`

	Fetches             float64    `json:"fetches"`
	HitRatio            float64    `json:"hit_ratio"`
	PendingRecords      float64    `json:"pending_records"`
	DirectoryLagObjects float64    `json:"directory_lag_objects"`
	SpansRecorded       float64    `json:"spans_recorded"`
	SpansLost           uint64     `json:"spans_lost"`
	Peers               []PeerView `json:"peers,omitempty"`
}

// TraceView is one assembled cross-node trace.
type TraceView struct {
	TraceID string `json:"trace_id"`
	Sources int    `json:"sources"`
	// Rendered is the indented span tree (node;OUTCOME lines).
	Rendered string `json:"rendered"`
}

// Snapshot is one full inspection round, the -json output document.
type Snapshot struct {
	Nodes  []NodeView  `json:"nodes"`
	Traces []TraceView `json:"traces"`
}

// spanRetain bounds how many pulled spans the inspector retains per node
// between refreshes; older spans age out of assembly first.
const spanRetain = 8192

// scraper holds the per-node scrape state that persists across refreshes.
type scraper struct {
	client  *http.Client
	nodes   []string
	cursors map[string]uint64
	spans   map[string][]obs.Span
	lost    map[string]uint64
	prev    map[string]*obs.Exposition
	labels  map[string]string // node URL -> reported label
}

func newScraper(nodes []string) *scraper {
	return &scraper{
		client:  &http.Client{Timeout: 5 * time.Second},
		nodes:   nodes,
		cursors: make(map[string]uint64),
		spans:   make(map[string][]obs.Span),
		lost:    make(map[string]uint64),
		prev:    make(map[string]*obs.Exposition),
		labels:  make(map[string]string),
	}
}

// get fetches one URL's body.
func (s *scraper) get(url string) ([]byte, http.Header, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, resp.Header, nil
}

// value reads one sample, defaulting to 0 when absent.
func value(p *obs.Exposition, name string, labels ...obs.Label) float64 {
	v, _ := p.Value(name, labels...)
	return v
}

// scrapeNode refreshes one node's metrics and spans, returning its view.
func (s *scraper) scrapeNode(base string) NodeView {
	view := NodeView{URL: base, Node: s.labels[base]}
	body, _, err := s.get(base + "/metrics")
	if err != nil {
		view.Error = err.Error()
		return view
	}
	p, err := obs.ParseExposition(string(body))
	if err != nil {
		view.Error = err.Error()
		return view
	}

	if info := p.Family("beyondcache_node_info"); info != nil && len(info.Series) > 0 {
		view.Node = info.Series[0].Labels["name"]
		s.labels[base] = view.Node
	}
	local := value(p, "beyondcache_fetch_total", obs.L("outcome", "local"))
	remote := value(p, "beyondcache_fetch_total", obs.L("outcome", "remote"))
	miss := value(p, "beyondcache_fetch_total", obs.L("outcome", "miss"))
	view.Fetches = local + remote + miss
	if view.Fetches > 0 {
		view.HitRatio = (local + remote) / view.Fetches
	}
	view.PendingRecords = value(p, "beyondcache_hint_pending_records")
	view.DirectoryLagObjects = value(p, "beyondcache_hint_directory_lag_objects")
	view.SpansRecorded = value(p, "beyondcache_spans_recorded_total")

	// Per-peer rows: every peer with a sender queue, joined with its
	// breaker and hint-lag series.
	prevLag := map[string]obs.HistogramSnapshot{}
	if pp := s.prev[base]; pp != nil {
		for _, h := range pp.HistogramsOf("beyondcache_hint_propagation_seconds") {
			if peer := h.Labels["peer"]; peer != "" {
				prevLag[peer] = h.Snapshot
			}
		}
	}
	lag := map[string]obs.HistogramSnapshot{}
	for _, h := range p.HistogramsOf("beyondcache_hint_propagation_seconds") {
		if peer := h.Labels["peer"]; peer != "" {
			lag[peer] = h.Snapshot
		}
	}
	peers := map[string]bool{}
	if f := p.Family("beyondcache_hint_queue_depth"); f != nil {
		for _, series := range f.Series {
			if peer := series.Labels["peer"]; peer != "" {
				peers[peer] = true
			}
		}
	}
	for peer := range lag {
		peers[peer] = true
	}
	names := make([]string, 0, len(peers))
	for peer := range peers {
		names = append(names, peer)
	}
	sort.Strings(names)
	for _, peer := range names {
		pv := PeerView{
			Peer:         peer,
			QueueDepth:   value(p, "beyondcache_hint_queue_depth", obs.L("peer", peer)),
			BreakerState: value(p, "beyondcache_breaker_state", obs.L("peer", peer)),
		}
		if snap, ok := lag[peer]; ok {
			window := snap
			if before, ok := prevLag[peer]; ok {
				if d, err := snap.Diff(before); err == nil && d.Count() > 0 {
					window = d
				}
			}
			pv.HintLagCount = window.Count()
			if pv.HintLagCount > 0 {
				pv.HintLagP50Ms = float64(window.Quantile(0.50)) / float64(time.Millisecond)
				pv.HintLagP99Ms = float64(window.Quantile(0.99)) / float64(time.Millisecond)
			}
		}
		view.Peers = append(view.Peers, pv)
	}
	s.prev[base] = p

	// Incremental span pull from this node's cursor.
	u := base + "/debug/spans"
	if c := s.cursors[base]; c > 0 {
		u += "?since=" + strconv.FormatUint(c, 10)
	}
	body, hdr, err := s.get(u)
	if err != nil {
		view.Error = "spans: " + err.Error()
		return view
	}
	pulled, err := obs.DecodeSpans(body)
	if err != nil {
		view.Error = "spans: " + err.Error()
		return view
	}
	if next, err := strconv.ParseUint(hdr.Get("X-Span-Cursor"), 10, 64); err == nil {
		s.cursors[base] = next
	}
	if lost, err := strconv.ParseUint(hdr.Get("X-Span-Lost"), 10, 64); err == nil {
		s.lost[base] += lost
	}
	view.SpansLost = s.lost[base]
	kept := append(s.spans[base], pulled...)
	if len(kept) > spanRetain {
		kept = kept[len(kept)-spanRetain:]
	}
	s.spans[base] = kept
	return view
}

// hostPort strips the scheme from a base URL.
func hostPort(u string) string {
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	return strings.TrimSuffix(u, "/")
}

// snapshot runs one full inspection round.
func (s *scraper) snapshot(maxTraces int, timings bool) Snapshot {
	var snap Snapshot
	for _, base := range s.nodes {
		snap.Nodes = append(snap.Nodes, s.scrapeNode(base))
	}

	// Assemble every retained span group into cross-node trees, renaming
	// each node's dial address to its reported label so traces read the
	// same no matter which port the fleet came up on.
	rename := map[string]string{}
	var sources []obs.SpanSource
	for i, base := range s.nodes {
		label := snap.Nodes[i].Node
		if label == "" {
			label = hostPort(base)
		}
		rename[hostPort(base)] = label
		sources = append(sources, obs.SpanSource{
			Label:    label,
			HostPort: hostPort(base),
			Spans:    s.spans[base],
		})
	}
	trees := obs.Assemble(sources)
	if maxTraces > 0 && len(trees) > maxTraces {
		trees = trees[len(trees)-maxTraces:]
	}
	for _, tree := range trees {
		snap.Traces = append(snap.Traces, TraceView{
			TraceID:  strconv.FormatUint(tree.TraceID, 16),
			Sources:  tree.Sources,
			Rendered: tree.Render(rename, timings),
		})
	}
	return snap
}

// render writes the dashboard form of a snapshot.
func render(out io.Writer, snap Snapshot, clear bool) {
	if clear {
		fmt.Fprint(out, "\x1b[2J\x1b[H")
	}
	fmt.Fprintf(out, "cachetop — %d nodes, %d assembled traces\n\n", len(snap.Nodes), len(snap.Traces))
	fmt.Fprintf(out, "%-12s %8s %7s %8s %8s %9s %9s\n",
		"NODE", "FETCHES", "HIT%", "PENDING", "DIRLAG", "SPANS", "LOST")
	for _, n := range snap.Nodes {
		name := n.Node
		if name == "" {
			name = hostPort(n.URL)
		}
		if n.Error != "" {
			fmt.Fprintf(out, "%-12s DOWN: %s\n", name, n.Error)
			continue
		}
		fmt.Fprintf(out, "%-12s %8.0f %6.1f%% %8.0f %8.0f %9.0f %9d\n",
			name, n.Fetches, n.HitRatio*100, n.PendingRecords,
			n.DirectoryLagObjects, n.SpansRecorded, n.SpansLost)
		for _, p := range n.Peers {
			state := [...]string{"closed", "OPEN", "half"}[int(p.BreakerState)%3]
			lag := "-"
			if p.HintLagCount > 0 {
				lag = fmt.Sprintf("p50 %.1fms p99 %.1fms (n=%d)", p.HintLagP50Ms, p.HintLagP99Ms, p.HintLagCount)
			}
			fmt.Fprintf(out, "  -> %-21s q=%-5.0f brk=%-6s lag %s\n", p.Peer, p.QueueDepth, state, lag)
		}
	}
	if len(snap.Traces) > 0 {
		fmt.Fprintf(out, "\nTRACES\n")
		for _, tr := range snap.Traces {
			fmt.Fprintf(out, "%s", tr.Rendered)
		}
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cachetop", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		nodes    = fs.String("nodes", "", "comma-separated node base URLs (required)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
		once     = fs.Bool("once", false, "take one snapshot and exit")
		asJSON   = fs.Bool("json", false, "emit JSON snapshots instead of the dashboard")
		traces   = fs.Int("traces", 16, "max assembled traces per snapshot (0: unlimited)")
		timings  = fs.Bool("timings", false, "include span start/duration in rendered traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var targets []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			targets = append(targets, strings.TrimSuffix(n, "/"))
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-nodes is required")
	}

	s := newScraper(targets)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	for {
		snap := s.snapshot(*traces, *timings)
		if *asJSON {
			if err := enc.Encode(snap); err != nil {
				return err
			}
		} else {
			render(out, snap, !*once)
		}
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}
