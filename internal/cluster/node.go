package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/cache"
	"beyondcache/internal/faults"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/resilience"
	"beyondcache/internal/store"
	"beyondcache/internal/wire"
)

// Protocol headers.
const (
	// headerVersion carries the object's version.
	headerVersion = "X-Object-Version"
	// headerCache reports how a /fetch was served: LOCAL, LOCAL-DISK
	// (served from the persistent tier and promoted), REMOTE, or MISS
	// (origin fetch), optionally suffixed with ",STALE-HINT" when a
	// false positive was paid first, ",HEDGE" when the origin outran a
	// silent hinted peer, or "LOCAL,COALESCED" when the request shared
	// another request's in-flight fill.
	headerCache = "X-Cache"
	// headerRequestID identifies one client request; generated on entry
	// if the client did not send one, echoed on the response either way.
	headerRequestID = "X-Request-Id"
	// headerTrace carries the hop-annotated trace chain on /fetch
	// responses: "|"-separated obs.Hop segments, upstream hops first,
	// the serving node's terminal hop (whose outcome equals X-Cache)
	// last. See internal/obs and DESIGN.md §7.
	headerTrace = "X-Trace"
	// headerTraceHop is how the origin hands its own self-timed hop
	// segment (/obj) to the fetching node, which splices it into the
	// chain. A peer's serve time rides its answer frame instead.
	headerTraceHop = "X-Trace-Hop"
)

// NodeConfig parameterizes a cache node.
type NodeConfig struct {
	// Name labels the node in logs and stats.
	Name string
	// CacheBytes bounds the object cache (<= 0 means 64 MB).
	CacheBytes int64
	// HintEntries sizes the 4-way hint table (<= 0 means 65536).
	HintEntries int
	// OriginURL is the origin server's base URL.
	OriginURL string
	// UpdateInterval is the mean delay between hint-update batches. The
	// actual period is randomized uniformly in [0.5, 1.5] x interval to
	// avoid synchronization effects (Section 3.2 cites Floyd & Jacobson).
	// Zero means 1 second. In digest mode it is the digest pull interval.
	// Each node seeds the jitter (and its retry backoff) from its machine
	// ID, so no two nodes draw the same sequence.
	UpdateInterval time.Duration

	// UseDigests switches the node from exact hint records to pulling
	// Bloom-filter cache digests from its peers (the Summary Cache /
	// Squid Cache Digests alternative). DigestCapacity sizes each digest
	// in entries (<= 0 means 8192), at 8 bits an entry.
	UseDigests     bool
	DigestCapacity int

	// HintReplicas is the hint directory's owner-set size R. 0: every live
	// member owns every object, so every node holds the whole directory and
	// a miss consults nothing but its own. R > 0 (capped at
	// overlay.MaxReplicas) routes each object's records to its owner set of
	// R nodes — the object's Plaxton root plus ring successors over the live
	// membership (internal/overlay) — so per-node directory memory and
	// update fanout are O(R/N), and a miss at a node that is not one of the
	// object's owners consults the object's hint home (one extra
	// breaker-gated, hedged hop). Negative values are rejected. Must be 0
	// with UseDigests (digests are already a non-directory design). See
	// DESIGN.md §14.
	HintReplicas int

	// PeerTimeout bounds one cache-to-cache probe (<= 0 means 2s). A
	// hinted peer that cannot produce the object inside this deadline
	// is treated as failed — a hint must never cost more than this.
	PeerTimeout time.Duration
	// OriginTimeout bounds one origin fetch (<= 0 means 10s).
	OriginTimeout time.Duration
	// HedgeBudget is how long a hinted peer may stay silent before the
	// origin fetch is started in parallel and the two race (the hedged
	// miss path; the paper: cache-to-cache transfer must beat origin or
	// be abandoned). <= 0 means the 50ms default.
	HedgeBudget time.Duration

	// Faults injects faults (internal/faults) into every outbound call and
	// origin fetch; nil means none. InboundFaults injects them on the
	// serving side instead: this node misbehaving as seen by its clients
	// and peers (rules match the node's own label).
	Faults        *faults.Injector
	InboundFaults *faults.Injector

	// TraceSample is the fraction of /fetch requests whose span group is
	// recorded in the /debug/spans ring: 0 picks the default (1/64),
	// anything >= 1 records every request, negative disables ring
	// capture. The X-Trace response header is unconditional — sampling
	// only gates the in-memory ring (4096 spans); unsampled requests
	// record nothing and allocate nothing.
	TraceSample float64

	// CacheDir enables the persistent disk tier: memory evictions spill
	// (write-behind) into a segment-log store under this directory,
	// misses probe it before peers or the origin, and on boot a recovery
	// scan republishes the surviving population into the hint plane.
	// Empty keeps the node memory-only. See DESIGN.md §12.
	CacheDir string
	// DiskCapacity bounds the disk tier's on-disk footprint in bytes
	// (<= 0 means unbounded); overflow retires the oldest log segment.
	DiskCapacity int64
	// SpillQueue bounds the write-behind queue in objects (<= 0 means
	// 1024). Overflow drops the oldest queued eviction — which then left
	// both tiers, so an invalidate hint is queued for it.
	SpillQueue int
}

// Node is one proxy cache in the prototype. There is no node-wide lock:
// object state lives in a lock-striped cache, hint state in a lock-striped
// table, and everything else behind small purpose-scoped mutexes, so
// concurrent /fetch streams for unrelated objects never serialize and one
// slow origin fetch cannot stall an unrelated hit (the paper's "do not slow
// down misses" applied to the implementation itself). See DESIGN.md for the
// locking hierarchy.
type Node struct {
	// stats is the live counter set: atomics, never a lock, so counting
	// cannot slow down a miss. It is the first field because 64-bit atomics
	// need 8-byte alignment, which 32-bit platforms guarantee only for the
	// first word of an allocated struct.
	stats Stats

	cfg NodeConfig

	// data is the sharded object cache: metadata and bodies under
	// per-shard locks.
	data *cache.Sharded
	// tier is the persistent disk tier (nil without CacheDir): memory
	// evictions spill into it, fill() probes it before peers or the
	// origin, and its involuntary drops queue invalidate hints.
	tier *store.Tier
	// recoveryMu guards recovery, the boot scan's result; recoveryDone
	// closes once the scan (a no-op without a tier) has finished.
	recoveryMu   sync.Mutex
	recovery     store.RecoverStats
	recoveryDone chan struct{}
	// hints is the striped concurrent hint table.
	hints *hintcache.Striped
	// flights collapses duplicate in-flight fills per URL.
	flights flightGroup
	// loc is the metadata path (see locator), chosen once in NewNode.
	loc locator

	// peerMu guards the peer table: one record per peer address, appended
	// by AddPeer and never removed, so a snapshot of peers stays valid.
	peerMu sync.RWMutex
	peers  []*peer // AddPeer order
	byID   map[uint64]*peer

	hist nodeHists

	// spans is the lock-free structured-span ring behind /debug/spans;
	// sampler decides which requests are recorded. reqSeq numbers
	// generated request IDs.
	spans   *obs.SpanRing
	sampler *obs.Sampler
	reqSeq  atomic.Int64

	// rngMu guards the batch loop's jitter source. It and backoff are
	// seeded from machineID, so both are built in boot.
	rngMu sync.Mutex
	rng   *rand.Rand

	// breakerCfg shapes the breaker AddPeer gives each peer (the zero value
	// is resilience's defaults; tests tighten it before AddPeer); backoff
	// paces metadata-path retries; inj is the outbound fault injector (nil
	// without chaos). The per-hop budgets are cfg's, resolved in NewNode.
	breakerCfg resilience.BreakerConfig
	backoff    *resilience.Backoff
	inj        *faults.Injector
	inboundInj *faults.Injector

	machineID uint64
	// nodeLabel names the node in hop segments and request IDs: the
	// configured Name, or the listen address once Start fixes it.
	nodeLabel string
	// nw is the network the node listens on and dials through.
	nw   network
	lis  net.Listener
	door *frontDoor // nil until Start
	// origin reaches the origin and nothing else (originlink.go); plane
	// carries everything said to or by a peer (peer.go).
	origin *originLink
	plane  peerPlane

	stopBatch chan struct{}
	batchDone chan struct{}
	closeOnce sync.Once
}

// NewNode builds a node; call Start to begin serving, and Close whether or
// not Start was called or succeeded.
func NewNode(cfg NodeConfig) (*Node, error) { return newNodeOn(cfg, tcp()) }

// newNodeOn is NewNode on the network nw.
func newNodeOn(cfg NodeConfig, nw network) (*Node, error) {
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("cluster: node %q: OriginURL required", cfg.Name)
	}
	origin, err := newOriginLink(cfg.OriginURL, nw)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.HintEntries <= 0 {
		cfg.HintEntries = 65536
	}
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = time.Second
	}
	sample := cfg.TraceSample
	if sample == 0 {
		// Default: every 64th request. Cheap enough for the hit path
		// while keeping /debug/spans fresh.
		sample = 1.0 / 64
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	if cfg.OriginTimeout <= 0 {
		cfg.OriginTimeout = 10 * time.Second
	}
	if cfg.HedgeBudget <= 0 {
		cfg.HedgeBudget = 50 * time.Millisecond
	}
	n := &Node{
		cfg: cfg,
		// Shard, stripe, ring and breaker shapes are the callees' own
		// defaults; the hint table is the paper's 4-way one.
		data:         cache.NewSharded(0, cfg.CacheBytes),
		hints:        hintcache.NewStriped(cfg.HintEntries, 4, 0),
		hist:         newNodeHists(),
		spans:        obs.NewSpanRing(0),
		sampler:      obs.NewSampler(sample),
		byID:         make(map[uint64]*peer),
		nodeLabel:    cfg.Name,
		inj:          cfg.Faults,
		inboundInj:   cfg.InboundFaults,
		nw:           nw,
		origin:       origin,
		stopBatch:    make(chan struct{}),
		batchDone:    make(chan struct{}),
		recoveryDone: make(chan struct{}),
	}
	n.plane.ctx, n.plane.stop = context.WithCancel(context.Background())
	n.plane.conns = make(map[*upConn]struct{})
	if cfg.CacheDir != "" {
		st, err := store.Open(cfg.CacheDir, store.Options{Capacity: cfg.DiskCapacity})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
		}
		// An object that involuntarily leaves BOTH tiers — spill-queue
		// overflow, failed spill write, segment retirement, a record that
		// fails verification — is no longer locally resident, so its hints
		// must be withdrawn.
		n.tier = store.NewTier(n.data, st, cfg.SpillQueue, func(o cache.Object) {
			n.loc.publish(o.ID, false)
		})
	}
	// The one place that knows there is more than one mechanism.
	if cfg.UseDigests {
		n.loc, err = newDigestLocator(n, cfg.DigestCapacity, cfg.HintReplicas)
	} else {
		n.loc, err = newHintLocator(n, cfg.HintReplicas)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", cfg.Name, err)
	}
	// Capacity evictions either spill to the disk tier (hints stay valid:
	// the object is still locally resident) or, memory-only, advertise
	// non-presence. The callback runs AFTER the shard lock is released
	// (see cache.Sharded.OnEvict), so a blocking spill enqueue never
	// holds a shard lock.
	n.data.OnEvict(func(o cache.Object, body []byte) {
		if n.tier != nil {
			n.tier.Spill(o, body)
			return
		}
		n.loc.publish(o.ID, false)
	})
	return n, nil
}

// Handler returns the node's HTTP handler. Start serves it from the node's
// own listener through the front door (frontdoor.go); the benchmark's probes
// call it in process.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fetch", n.handleFetch)
	mux.HandleFunc("/purge", n.handlePurge)
	mux.HandleFunc("/metrics", n.handleMetrics)
	mux.HandleFunc("/debug/spans", n.handleSpans)
	mux.HandleFunc("/peer", n.handlePeer)
	if n.inboundInj == nil {
		return mux
	}
	// Server-side chaos: the middleware matches rules against the node's
	// label, resolved per request because Start fixes it after Handler
	// may already have been called. A peer upgrade never reaches it: the
	// front door hands it to the plane, which draws a decision per call.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		faults.Middleware(n.inboundInj, n.label(), mux).ServeHTTP(w, r)
	})
}

// Start listens on addr ("127.0.0.1:0" for ephemeral) and starts the update
// batcher.
func (n *Node) Start(addr string) error {
	lis, err := n.nw.listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: node %q listen: %w", n.cfg.Name, err)
	}
	n.lis = lis
	n.boot(lis.Addr().String())
	n.door = startFrontDoor(lis, n.Handler(), n.acceptPeer)
	return nil
}

// boot fixes the node's identity from its served address, seeds the jitter
// and the retry backoff from it, and starts the batcher and the disk recovery.
func (n *Node) boot(hostport string) {
	n.machineID = hintcache.HashMachine(hostport)
	seed := int64(n.machineID)
	n.rng = rand.New(rand.NewSource(seed))
	n.backoff = resilience.NewBackoff(25*time.Millisecond, 200*time.Millisecond, 2, seed+1)
	if n.nodeLabel == "" {
		n.nodeLabel = hostport
	}
	n.loc.sync()
	go n.batchLoop()
	go n.recoverDisk()
}

// recoverDisk is the boot-time disk recovery: rebuild the on-disk index
// (walking each log segment up to its first invalid or torn record) and
// republish every recovered object through the locator, then run a round
// so peers re-learn a restarted node's contents within one update interval
// instead of waiting out a cold start. Runs after Start fixes
// machineID — the informs must carry it. Recovered objects become visible
// to fill() incrementally as the scan proceeds.
func (n *Node) recoverDisk() {
	defer close(n.recoveryDone)
	if n.tier == nil {
		return
	}
	st := n.tier.Recover(0, func(o cache.Object) { // 0: the store's default of 4 workers
		n.loc.publish(o.ID, true)
	})
	n.recoveryMu.Lock()
	n.recovery = st
	n.recoveryMu.Unlock()
	if st.Objects > 0 {
		n.loc.round(false)
	}
}

// WaitRecovery blocks until the boot disk-recovery scan has finished. It
// returns immediately for memory-only nodes. Must be called after Start.
func (n *Node) WaitRecovery() { <-n.recoveryDone }

// RecoveryStats returns the boot recovery scan's result (zero value until
// the scan finishes).
func (n *Node) RecoveryStats() store.RecoverStats {
	n.recoveryMu.Lock()
	defer n.recoveryMu.Unlock()
	return n.recovery
}

// label names the node in hop segments and request IDs.
func (n *Node) label() string {
	if n.nodeLabel != "" {
		return n.nodeLabel
	}
	return "node"
}

// newRequestID mints a node-unique request identifier. The scratch array
// keeps the append chain off the heap; only the final string allocates.
func (n *Node) newRequestID() string {
	var buf [48]byte
	b := append(buf[:0], n.label()...)
	b = append(b, '-')
	b = strconv.AppendInt(b, n.reqSeq.Add(1), 16)
	return string(b)
}

// Addr returns the node's listening address.
func (n *Node) Addr() string {
	if n.lis == nil {
		return ""
	}
	return n.lis.Addr().String()
}

// URL returns the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr() }

// hostPortOf returns the host:port of a base URL ("http://host:port/"), or
// the string itself when it is a bare host:port.
func hostPortOf(baseURL string) string {
	if u, err := neturl.Parse(baseURL); err == nil && u.Host != "" {
		return u.Host
	}
	return baseURL
}

// Close stops the batcher (flushing once), shuts the front door — requests
// in flight finish over working links, within its grace — and then cuts the
// peer plane's and the origin link's connections. Close is idempotent. On a
// node that was never started — Start not called, or failed — there is no
// batcher, scan or door, and it releases the rest: the disk tier's log and
// spiller, the origin link and the peer plane.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		started := n.door != nil
		if started {
			// Wait out the boot recovery scan first: its republish rides the
			// peer plane, which shuts down below, and a restart test reusing
			// the same cache dir must not race a still-running scan.
			<-n.recoveryDone
		}
		if n.tier != nil {
			// Drain the write-behind queue so the directory survives
			// the restart intact.
			n.tier.Close()
		}
		if started {
			// The batcher's last round is a waited one: when it returns
			// every sender is idle, so nothing of the locator's is running.
			close(n.stopBatch)
			<-n.batchDone
			n.door.close()
		}
		n.plane.close()
		n.origin.close()
	})
	return nil
}

// FaultInjector returns the node's outbound fault injector, or nil when
// the node runs without chaos. Tests and demos use it to break and heal
// targets mid-run (Injector.SetSpec).
func (n *Node) FaultInjector() *faults.Injector { return n.inj }

// batchLoop runs the locator's periodic metadata round, with a randomized
// period to avoid synchronization. Periodic rounds do not wait for delivery;
// the final round on shutdown does, so Close does not abandon queued updates
// untried.
func (n *Node) batchLoop() {
	defer close(n.batchDone)
	for {
		interval := n.jitteredInterval()
		select {
		case <-n.stopBatch:
			n.loc.round(true)
			return
		case <-time.After(interval):
			n.loc.round(false)
		}
	}
}

func (n *Node) jitteredInterval() time.Duration {
	n.rngMu.Lock()
	f := 0.5 + n.rng.Float64()
	n.rngMu.Unlock()
	return time.Duration(float64(n.cfg.UpdateInterval) * f)
}

// Flush runs one metadata round now — a hint flush, or a digest pull — and
// waits until every peer's share has been delivered (or abandoned). Tests
// call it to avoid sleeping.
func (n *Node) Flush() { n.loc.round(true) }

// store caches a fetched object and publishes the new residency. PutNewer
// refuses version downgrades, so a fill that raced with an invalidation and
// a fresher refill can never clobber the newer copy.
func (n *Node) store(urlHash uint64, version int64, body []byte) {
	if n.data.PutNewer(cache.Object{ID: urlHash, Size: int64(len(body)), Version: version}, body) {
		n.loc.publish(urlHash, true)
	}
}

// queryURL extracts the "url" query parameter. Equivalent to
// r.URL.Query().Get("url") without materializing the full url.Values map —
// every object-path request (/fetch, /purge) pays this parse.
func queryURL(r *http.Request) string {
	q := r.URL.RawQuery
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if v, ok := strings.CutPrefix(pair, "url="); ok {
			u, err := neturl.QueryUnescape(v)
			if err != nil {
				return ""
			}
			return u
		}
	}
	return ""
}

// handleFetch is the client-facing entry point: GET /fetch?url=U.
//
// The hot path takes exactly one shard lock (the local-hit probe); misses
// go through the singleflight group, so any number of concurrent requests
// for one uncached object cost a single peer/origin fetch while requests
// for other objects proceed untouched.
func (n *Node) handleFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	url := queryURL(r)
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	start := time.Now()
	var reqID string
	if v := r.Header[headerRequestID]; len(v) > 0 && v[0] != "" {
		reqID = v[0]
	} else {
		reqID = n.newRequestID()
	}
	// The sampling decision is made on entry so the whole request shares
	// it: a sampled request's peer calls carry its trace ID, letting the
	// contacted peer record its own span group under it. Unsampled requests
	// record nothing.
	sampled := n.sampler.Sample()
	h := hintcache.HashURL(url)

	// Local cache.
	if obj, body, ok := n.data.Get(h); ok {
		atomic.AddInt64(&n.stats.LocalHits, 1)
		n.finishFetch(w, reqID, start, "LOCAL", obj.Version, body, nil, sampled)
		return
	}

	out, shared := n.flights.do(url, func() fetchOutcome { return n.fill(h, url, reqID, sampled) })
	if out.err != nil {
		// fetchOrigin names itself in the error; a peer leg's failure,
		// when both failed, is named beside it.
		http.Error(w, out.err.Error(), http.StatusBadGateway)
		return
	}
	how := out.how
	if shared {
		// Served by the leader's fill without any fetch of our own: a
		// local hit on the in-flight result.
		atomic.AddInt64(&n.stats.LocalHits, 1)
		atomic.AddInt64(&n.stats.CoalescedHits, 1)
		how = "LOCAL,COALESCED"
	}
	n.finishFetch(w, reqID, start, how, out.version, out.body, out.hops, sampled)
}

// finishFetch completes a successful /fetch: it observes the outcome
// histogram, appends the node's terminal hop to the upstream chain (waiters
// sharing a fill each get their own copy — out.hops is shared across every
// coalesced request), records the structured span group if sampled, and
// serves the object with the trace headers. The terminal hop's outcome is
// the X-Cache value and the X-Trace header is rendered from the same hop
// data the spans are built from, so the three views can never disagree.
// Recording happens before the response is written: a client holding the
// response can immediately pull its spans from /debug/spans.
func (n *Node) finishFetch(w http.ResponseWriter, reqID string, start time.Time, how string, version int64, body []byte, upstream []obs.Hop, sampled bool) {
	elapsed := time.Since(start)
	n.hist.observeFetch(how, elapsed)
	term := obs.Hop{Node: n.label(), Outcome: how, Elapsed: elapsed}
	if sampled {
		// The span group is built only for sampled requests; the
		// unsampled majority never allocates.
		n.spans.AddGroup(obs.SpansFromHops(obs.TraceID(reqID), upstream, term))
	}
	// The header keys are pre-canonicalized constants: direct map
	// assignment skips Set's canonicalization scan on the hot path.
	hdr := w.Header()
	hdr[headerRequestID] = []string{reqID}
	hdr[headerTrace] = []string{obs.FormatChain(upstream, term)}
	serveObject(w, how, version, body)
}

// recordPeerSpan records this node's side of a peer's call as a
// single-span group under the calling node's trace ID (the call's A field),
// but only when the caller marked the call sampled — the unsampled majority
// of peer serves records nothing.
func (n *Node) recordPeerSpan(h wire.PeerHeader, outcome string, elapsed time.Duration) {
	if !h.Sampled {
		return
	}
	n.spans.Add(obs.Span{
		TraceID:  h.A,
		Index:    0,
		Parent:   obs.SpanRoot,
		Node:     n.label(),
		Outcome:  outcome,
		Duration: elapsed,
	})
}

// handlePurge drops the local copy of a URL: POST /purge?url=U. The
// resulting invalidate propagates with the next batch.
func (n *Node) handlePurge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	url := queryURL(r)
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	h := hintcache.HashURL(url)
	// Discard, not Remove: a purged object must leave BOTH tiers without
	// the eviction callback spilling it back to disk. The purge owns the
	// resulting invalidate.
	removed := n.data.Discard(h)
	if n.tier != nil && n.tier.Discard(h) {
		removed = true
	}
	if !removed {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	n.loc.publish(h, false)
	w.WriteHeader(http.StatusNoContent)
}

// octetStream is every object body's Content-Type (shared, read-only):
// with none set, net/http sniffs 512 bytes of each body for one.
var octetStream = []string{"application/octet-stream"}

func serveObject(w http.ResponseWriter, how string, version int64, body []byte) {
	// Direct map assignment with canonical keys (see finishFetch).
	hdr := w.Header()
	hdr["Content-Type"] = octetStream
	hdr[headerCache] = []string{how}
	hdr[headerVersion] = []string{strconv.FormatInt(version, 10)}
	hdr["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
