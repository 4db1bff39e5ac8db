package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/obs"
)

// Fleet is a running set of cache nodes plus their origin server, fully
// meshed for hint exchange — the shape of the paper's prototype deployment.
type Fleet struct {
	Origin *Origin
	Nodes  []*Node
	client *http.Client
	nw     network // every node's, the origin's and the client's
	faults *faults.Injector
	// cfg remembers the boot configuration so RestartNode can rebuild a
	// node identically (same cache dir, same knobs).
	cfg FleetConfig
	// killed marks slots taken down by KillNode (lazily sized); FlushAll
	// skips them and RestartNode revives them.
	killed []bool
}

// FleetConfig parameterizes StartFleet.
type FleetConfig struct {
	// Nodes is the number of cache nodes (must be >= 1).
	Nodes int
	// CacheBytes per node (<= 0 for the node default).
	CacheBytes int64
	// HintEntries per node (<= 0 for the node default).
	HintEntries int
	// UpdateInterval between hint batches or digest pulls (<= 0 for 1s).
	UpdateInterval time.Duration
	// ObjectSize is the origin's default object size (<= 0 for 8 KB).
	ObjectSize int64
	// UseDigests switches every node to Bloom-filter digest exchange.
	UseDigests bool
	// HintPartition partitions every node's hint directory over Plaxton-routed
	// hint homes, with an owner-set size R of HintReplicas (<= 0 means 2;
	// see NodeConfig.HintReplicas). Without HintPartition, HintReplicas is
	// ignored and R is 0: every node owns every object.
	HintPartition bool
	HintReplicas  int

	// PeerTimeout, OriginTimeout and HedgeBudget pass through to every
	// node's NodeConfig (see there for semantics and defaults).
	PeerTimeout   time.Duration
	OriginTimeout time.Duration
	HedgeBudget   time.Duration
	// FaultSpec applies the same outbound fault spec to every node; node
	// i's injector is seeded with i, so injected randomness is
	// deterministic but not lock-stepped across the fleet.
	FaultSpec string
	// Faults, when non-nil, shares ONE prebuilt outbound injector across
	// every node instead of per-node injectors built from FaultSpec. A
	// shared injector is the live fault plane of the load scenarios: one
	// SetSpec (see Fleet.SetFaultSpec) breaks or heals targets fleet-wide
	// mid-run. InboundFaults is the serving-side twin.
	Faults        *faults.Injector
	InboundFaults *faults.Injector

	// CacheDirs gives node i a persistent disk tier rooted at
	// CacheDirs[i] (see NodeConfig.CacheDir); nodes beyond the slice —
	// or all nodes, when nil — stay memory-only. DiskCapacity and
	// SpillQueue pass through to every disk-tiered node.
	CacheDirs    []string
	DiskCapacity int64
	SpillQueue   int
}

// newNode builds node i from the fleet-wide settings, with an outbound
// injector of its own from FaultSpec where the fleet shares none.
func (f *Fleet) newNode(i int) (*Node, error) {
	cfg := f.cfg
	name := fmt.Sprintf("node-%d", i)
	inj := cfg.Faults
	if inj == nil && cfg.FaultSpec != "" {
		var err error
		if inj, err = faults.New(cfg.FaultSpec, int64(i)); err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", name, err)
		}
	}
	var cacheDir string
	if i < len(cfg.CacheDirs) {
		cacheDir = cfg.CacheDirs[i]
	}
	replicas := 0
	if cfg.HintPartition {
		replicas = cfg.HintReplicas
		if replicas <= 0 {
			replicas = 2
		}
	}
	return newNodeOn(NodeConfig{
		CacheDir:       cacheDir,
		DiskCapacity:   cfg.DiskCapacity,
		SpillQueue:     cfg.SpillQueue,
		Name:           name,
		CacheBytes:     cfg.CacheBytes,
		HintEntries:    cfg.HintEntries,
		OriginURL:      f.Origin.URL(),
		UpdateInterval: cfg.UpdateInterval,
		UseDigests:     cfg.UseDigests,
		HintReplicas:   replicas,
		PeerTimeout:    cfg.PeerTimeout,
		OriginTimeout:  cfg.OriginTimeout,
		HedgeBudget:    cfg.HedgeBudget,
		Faults:         inj,
		InboundFaults:  cfg.InboundFaults,
	}, f.nw)
}

// StartFleet boots an origin and n meshed nodes on loopback ephemeral
// ports. Call Close when done.
func StartFleet(cfg FleetConfig) (*Fleet, error) { return startFleetOn(cfg, tcp()) }

// startFleetOn is StartFleet on the network nw, which the origin, every node
// and the fleet's own client listen on and dial through.
func startFleetOn(cfg FleetConfig, nw network) (*Fleet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: fleet needs at least one node, got %d", cfg.Nodes)
	}
	f := &Fleet{
		Origin: NewOrigin(cfg.ObjectSize),
		// The driver talks to the nodes the way a browser would. Its
		// concurrent requests must not re-dial a node (the default
		// transport keeps two idle connections per host), and a dead node
		// must fail a connection attempt in seconds, not minutes.
		client: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, addr string) (net.Conn, error) {
				return nw.dial(ctx, addr)
			},
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		nw:     nw,
		faults: cfg.Faults,
		cfg:    cfg,
	}
	f.Origin.nw = nw
	if err := f.Origin.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := f.newNode(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, n) // Close releases it, started or not
		if err := n.Start("127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Full mesh.
	for _, a := range f.Nodes {
		for _, b := range f.Nodes {
			if a != b {
				a.AddPeer(b.URL())
			}
		}
	}
	return f, nil
}

// RestartNode stops node i and boots a replacement with the same
// configuration on the SAME listen address, so peer tables, hint machine
// IDs, and breaker keys all stay valid — the fleet-level model of a cache
// process restarting. With a CacheDir configured, the replacement runs the
// boot recovery scan over the previous incarnation's files and republishes
// the surviving population; call Nodes[i].WaitRecovery() to wait for it.
func (f *Fleet) RestartNode(i int) error {
	if i < 0 || i >= len(f.Nodes) {
		return fmt.Errorf("cluster: restart: no node %d", i)
	}
	old := f.Nodes[i]
	addr := old.Addr()
	// The slot is dead from here until a replacement has started: a failed
	// restart leaves it holding the closed node.
	f.setKilled(i, true)
	f.dropIdleConns()
	if err := old.Close(); err != nil {
		return fmt.Errorf("cluster: restart: close node %d: %w", i, err)
	}
	n, err := f.newNode(i)
	if err != nil {
		return fmt.Errorf("cluster: restart: %w", err)
	}
	// Peers first: Start begins the boot recovery, and its republish round
	// goes to the peers known when it ends — lost, if the scan beat the mesh.
	for j, p := range f.Nodes {
		if j != i {
			n.AddPeer(p.URL())
		}
	}
	// The old listener just closed; give the kernel a few tries to hand
	// the exact port back.
	startErr := n.Start(addr)
	for attempt := 0; startErr != nil && attempt < 50; attempt++ {
		time.Sleep(10 * time.Millisecond)
		startErr = n.Start(addr)
	}
	if startErr != nil {
		// The slot keeps the closed node: release this one's cache directory
		// for the next attempt.
		n.Close()
		return fmt.Errorf("cluster: restart: rebind %s: %w", addr, startErr)
	}
	f.Nodes[i] = n
	f.setKilled(i, false)
	return nil
}

// KillNode shuts node i down and leaves its slot dead — the fleet-level
// model of a crash (RestartNode revives the slot). The dead node's URL
// stays in every survivor's peer table; a hint fleet detects
// the death through failed deliveries and probes within two flush rounds
// and re-homes its directory share.
func (f *Fleet) KillNode(i int) error {
	if i < 0 || i >= len(f.Nodes) {
		return fmt.Errorf("cluster: kill: no node %d", i)
	}
	f.setKilled(i, true)
	f.dropIdleConns()
	return f.Nodes[i].Close()
}

// setKilled marks slot i dead or alive.
func (f *Fleet) setKilled(i int, dead bool) {
	if f.killed == nil {
		f.killed = make([]bool, len(f.Nodes))
	}
	f.killed[i] = dead
}

// Alive reports whether node i has not been killed.
func (f *Fleet) Alive(i int) bool {
	return i >= 0 && i < len(f.Nodes) && (i >= len(f.killed) || !f.killed[i])
}

// NodeURLs returns every node's base URL, in node order.
func (f *Fleet) NodeURLs() []string {
	urls := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		urls[i] = n.URL()
	}
	return urls
}

// SetFaultSpec re-specs the fleet's live fault plane: the shared injector
// if the fleet was started with one (FleetConfig.Faults), else every
// node's own outbound injector. Scenario timelines call this to break and
// heal targets mid-run; an empty spec heals everything. It errors when no
// node has an injector to re-spec (the fleet was started without faults).
func (f *Fleet) SetFaultSpec(spec string) error {
	if f.faults != nil {
		return f.faults.SetSpec(spec)
	}
	applied := false
	for _, n := range f.Nodes {
		if inj := n.FaultInjector(); inj != nil {
			if err := inj.SetSpec(spec); err != nil {
				return err
			}
			applied = true
		}
	}
	if !applied {
		return fmt.Errorf("cluster: fleet has no fault injector (start it with FleetConfig.Faults or FaultSpec)")
	}
	return nil
}

// dropIdleConns closes the idle HTTP connections the fleet's own client
// holds to the nodes, before any of them shuts down. A node's front door
// cuts idle connections itself, at once; but the client would find one of
// its pooled connections dead only by using it, and a POST (a purge) that
// meets a dead connection is not retried the way a GET is.
func (f *Fleet) dropIdleConns() { f.client.CloseIdleConnections() }

// Close shuts down every node and the origin, returning the first error.
func (f *Fleet) Close() error {
	f.dropIdleConns()
	var first error
	for _, n := range f.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if f.Origin != nil {
		if err := f.Origin.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FlushAll forces a metadata round on every node now — a hint-update flush,
// or a digest pull. Tests and demos use it instead of waiting for the batch
// timers.
func (f *Fleet) FlushAll() {
	// Every locator first brings its picture of the fleet up to date, so a
	// hint directory's membership converges across the whole fleet before
	// any node routes records. Without this pre-pass a node flushing early
	// in the loop can deliver re-homed records to a peer whose stale view
	// still rejects them at the ownership filter (in a real deployment the
	// jittered flush timers interleave probe and delivery rounds, which
	// closes the same window). The pre-pass is not a round: it does not
	// advance the membership generation, so it pings only peers a round
	// has already found silent.
	for i, n := range f.Nodes {
		if f.Alive(i) {
			n.loc.sync()
		}
	}
	for i, n := range f.Nodes {
		if f.Alive(i) {
			n.Flush()
		}
	}
}

// FetchResult describes how a /fetch was served.
type FetchResult struct {
	// How is LOCAL, LOCAL-DISK, "LOCAL,COALESCED", REMOTE, MISS,
	// "MISS,STALE-HINT", or "MISS,HEDGE".
	How string
	// Version is the object version served.
	Version int64
	// Bytes is the body length.
	Bytes int64
	// Elapsed is the client-observed fetch duration.
	Elapsed time.Duration
	// RequestID is the X-Request-Id the node assigned (or echoed).
	RequestID string
	// Hops is the parsed X-Trace hop chain, upstream hops first; its
	// terminal hop's outcome equals How.
	Hops []obs.Hop
}

// Local reports whether the fetch was a local cache hit (including hits on
// another request's in-flight fill).
func (r FetchResult) Local() bool { return strings.HasPrefix(r.How, "LOCAL") }

// Coalesced reports whether the fetch shared another request's in-flight
// fill instead of fetching itself (the singleflight path).
func (r FetchResult) Coalesced() bool { return strings.HasSuffix(r.How, "COALESCED") }

// Remote reports whether the fetch was served by a cache-to-cache transfer.
func (r FetchResult) Remote() bool { return r.How == "REMOTE" }

// Miss reports whether the origin served the fetch.
func (r FetchResult) Miss() bool { return strings.HasPrefix(r.How, "MISS") }

// StaleHint reports whether a false positive was paid before the origin
// fetch.
func (r FetchResult) StaleHint() bool { return strings.HasSuffix(r.How, "STALE-HINT") }

// Fetch asks node i of the fleet for a URL.
func (f *Fleet) Fetch(i int, url string) (FetchResult, error) {
	return FetchFrom(f.client, f.Nodes[i].URL(), url)
}

// Purge drops node i's copy of a URL (404 from the node is reported as an
// error).
func (f *Fleet) Purge(i int, url string) error {
	resp, err := f.client.Post(f.Nodes[i].URL()+"/purge?url="+neturl.QueryEscape(url), "", nil)
	if err != nil {
		return fmt.Errorf("purge: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("purge: status %d", resp.StatusCode)
	}
	return nil
}

// FetchFrom asks an arbitrary node (by base URL) for a URL, measuring the
// client-observed duration.
func FetchFrom(client *http.Client, nodeURL, url string) (FetchResult, error) {
	start := time.Now()
	resp, err := client.Get(nodeURL + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		return FetchResult{}, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return FetchResult{}, fmt.Errorf("fetch read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return FetchResult{}, fmt.Errorf("fetch: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	version, _ := strconv.ParseInt(resp.Header.Get(headerVersion), 10, 64)
	return FetchResult{
		How:       resp.Header.Get(headerCache),
		Version:   version,
		Bytes:     int64(len(body)),
		Elapsed:   time.Since(start),
		RequestID: resp.Header.Get(headerRequestID),
		Hops:      obs.ParseHops(resp.Header.Get(headerTrace)),
	}, nil
}
