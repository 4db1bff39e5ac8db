package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/obs"
)

// Fleet is a running set of cache nodes plus their origin server, fully
// meshed for hint exchange — the shape of the paper's prototype deployment.
type Fleet struct {
	Origin *Origin
	Nodes  []*Node
	// urls holds each slot's base URL, fixed at boot: RestartNode rebinds
	// a slot's own address, so Fetch, Purge and NodeURLs read it without
	// racing the restart's write to Nodes.
	urls []string
	// links holds the fleet's own keep-alive connections to each slot's
	// address — the way a browser would talk to the node, but through the
	// same lease, idle set and retry as a node's origin link — and conns all
	// of them, for Close to cut.
	links []link
	conns connSet
	nw    network // every node's, the origin's and the links'
	// spec is the outbound fault spec last given to SetFaultSpec; every
	// node, a restarted one too, is born holding it.
	spec string
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

	// CacheDirs gives node i a persistent disk tier rooted at
	// CacheDirs[i] (see NodeConfig.CacheDir); nodes beyond the slice —
	// or all nodes, when nil — stay memory-only. DiskCapacity and
	// SpillQueue pass through to every disk-tiered node.
	CacheDirs    []string
	DiskCapacity int64
	SpillQueue   int
}

// newNode builds node i from the fleet-wide settings, with an outbound
// injector of its own that holds the fleet's fault spec. It is seeded with
// i, so injected randomness is deterministic but not lock-stepped across
// the fleet.
func (f *Fleet) newNode(i int) (*Node, error) {
	cfg := f.cfg
	inj, _ := faults.New(f.spec, int64(i)) // SetFaultSpec parsed the spec
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
		Name:           fmt.Sprintf("node-%d", i),
		CacheBytes:     cfg.CacheBytes,
		OriginURL:      f.Origin.URL(),
		UpdateInterval: cfg.UpdateInterval,
		UseDigests:     cfg.UseDigests,
		HintReplicas:   replicas,
		Faults:         inj,
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
		conns:  connSet{conns: make(map[*upConn]struct{})},
		nw:     nw,
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
		f.urls = append(f.urls, n.URL())
		f.links = append(f.links, link{set: &f.conns, dial: dialHTTP(nw, n.Addr())})
	}
	// Full mesh.
	for i, n := range f.Nodes {
		for j, u := range f.urls {
			if i != j {
				n.AddPeer(u)
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
	f.links[i].dropIdle()
	if err := old.Close(); err != nil {
		return fmt.Errorf("cluster: restart: close node %d: %w", i, err)
	}
	n, err := f.newNode(i)
	if err != nil {
		return fmt.Errorf("cluster: restart: %w", err)
	}
	// Peers first: Start begins the boot recovery, and its republish round
	// goes to the peers known when it ends — lost, if the scan beat the mesh.
	for j, u := range f.urls {
		if j != i {
			n.AddPeer(u)
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
	f.links[i].dropIdle()
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
func (f *Fleet) NodeURLs() []string { return append([]string(nil), f.urls...) }

// SetFaultSpec re-specs every node's outbound fault injector, and the
// injector a node RestartNode brings back is born holding the same spec.
// Scenario timelines call this to break and heal targets mid-run; an empty
// spec heals everything. A spec that does not parse is an error and changes
// nothing. It walks f.Nodes, so it is not safe to call while RestartNode
// swaps a node in.
func (f *Fleet) SetFaultSpec(spec string) error {
	if _, err := faults.ParseSpec(spec); err != nil {
		return err
	}
	f.spec = spec
	for _, n := range f.Nodes {
		n.FaultInjector().SetSpec(spec) // parsed above
	}
	return nil
}

// Close shuts down every node and the origin, returning the first error,
// and cuts the fleet's own connections to the nodes.
func (f *Fleet) Close() error {
	f.conns.close()
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

// Fetch asks node i of the fleet for a URL, over the fleet's link to it.
func (f *Fleet) Fetch(i int, url string) (FetchResult, error) {
	start := time.Now()
	var res FetchResult
	var rerr error // reading the answer: fetchResult names itself
	err := f.call(i, http.MethodGet, "/fetch?url=", url, func(a answer) error {
		res, rerr = fetchResult(a, start)
		return rerr
	})
	switch {
	case rerr != nil:
		return FetchResult{}, rerr
	case err != nil:
		return FetchResult{}, fmt.Errorf("fetch: %w", err)
	}
	return res, nil
}

// Purge drops node i's copy of a URL (404 from the node is reported as an
// error).
func (f *Fleet) Purge(i int, url string) error {
	status := 0
	err := f.call(i, http.MethodPost, "/purge?url=", url, func(a answer) error {
		status = a.status
		_, err := io.Copy(io.Discard, a.body)
		return err
	})
	switch {
	case err != nil:
		return fmt.Errorf("purge: %w", err)
	case status != http.StatusNoContent:
		return fmt.Errorf("purge: status %d", status)
	}
	return nil
}

// PurgeAll drops every node's copy of a URL, ignoring nodes that do not
// have one (their 404) or cannot be reached. The nodes are asked at once —
// a purge costs the slowest node's round trip, not the sum — and PurgeAll
// returns when all have answered.
func (f *Fleet) PurgeAll(url string) {
	var wg sync.WaitGroup
	for i := range f.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.Purge(i, url) // an absent copy or an unreachable node is fine
		}()
	}
	wg.Wait()
}

// call runs one bodiless request to node i over its link, within
// clientTimeout, and hands the answer to read, which reads its body to the
// end. A purge is retried on a fresh connection as a fetch is, when a pooled
// one turns out dead (link.do): a second purge of the same URL finds nothing
// more to drop.
func (f *Fleet) call(i int, method, path, url string, read func(answer) error) error {
	host := strings.TrimPrefix(f.urls[i], "http://")
	return f.links[i].do(context.Background(), clientTimeout, func(uc *upConn) (keep bool, err error) {
		a, err := request(uc, method, path, url, host)
		if err != nil {
			return false, err
		}
		err = read(a)
		return err == nil && !a.close, err
	})
}

// FetchFrom asks an arbitrary node (by base URL) for a URL with the caller's
// client, measuring the client-observed duration.
func FetchFrom(client *http.Client, nodeURL, url string) (FetchResult, error) {
	start := time.Now()
	resp, err := client.Get(nodeURL + "/fetch?url=" + neturl.QueryEscape(url))
	if err != nil {
		return FetchResult{}, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()
	return fetchResult(answerOf(resp), start)
}

// fetchResult reads a /fetch answer whole and describes it; a status other
// than 200 is an error that carries the node's error text.
func fetchResult(a answer, start time.Time) (FetchResult, error) {
	body, err := io.ReadAll(a.body)
	if err != nil {
		return FetchResult{}, fmt.Errorf("fetch read: %w", err)
	}
	if a.status != http.StatusOK {
		return FetchResult{}, fmt.Errorf("fetch: status %d: %s", a.status, strings.TrimSpace(string(body)))
	}
	version, _ := strconv.ParseInt(a.version, 10, 64)
	return FetchResult{
		How:       a.header.Get(headerCache),
		Version:   version,
		Bytes:     int64(len(body)),
		Elapsed:   time.Since(start),
		RequestID: a.header.Get(headerRequestID),
		Hops:      obs.ParseHops(a.header.Get(headerTrace)),
	}, nil
}
