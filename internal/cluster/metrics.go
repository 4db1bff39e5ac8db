package cluster

import (
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"beyondcache/internal/obs"
	"beyondcache/internal/resilience"
	"beyondcache/internal/store"
)

// Prometheus text-format /metrics endpoints for the two server kinds of
// the prototype (Node, Origin). The exposition is hand-rolled on top
// of internal/obs — no client library, matching the repository's
// zero-dependency stance. Metric names are frozen by the golden list in
// testdata/metric_names.golden; renaming one is an interface change and
// must update that file deliberately.

// contentTypeExpo is the Prometheus text exposition content type.
const contentTypeExpo = "text/plain; version=0.0.4; charset=utf-8"

// expoGET guards a metrics-style endpoint: only GET is allowed.
func expoGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// writeExpo serves a built exposition.
func writeExpo(w http.ResponseWriter, e *obs.Expo) {
	w.Header().Set("Content-Type", contentTypeExpo)
	io.WriteString(w, e.String())
}

// Stats counts node activity; Node.stats is the live set, changed only with
// atomic.AddInt64. Every field is a plain int64: the benchmark sums the
// fields of that kind, and a field of any other would drop out unnoticed.
type Stats struct {
	LocalHits      int64 `json:"localHits"`
	RemoteHits     int64 `json:"remoteHits"`
	Misses         int64 `json:"misses"`
	FalsePositives int64 `json:"falsePositives"`
	// CoalescedHits is the subset of LocalHits that were served by
	// sharing another request's in-flight fill (the singleflight path)
	// instead of probing the cache themselves. LocalHits + RemoteHits +
	// Misses still accounts for every successful /fetch.
	CoalescedHits int64 `json:"coalescedHits"`
	// DiskHits is the subset of LocalHits served from the disk tier
	// (X-Cache LOCAL-DISK) and promoted back into memory on the way out.
	DiskHits        int64 `json:"diskHits"`
	PeerServes      int64 `json:"peerServes"`
	PeerRejects     int64 `json:"peerRejects"`
	UpdatesSent     int64 `json:"updatesSent"`
	UpdatesReceived int64 `json:"updatesReceived"`
	BatchesSent     int64 `json:"batchesSent"`
	SendErrors      int64 `json:"sendErrors"`
	DigestsPulled   int64 `json:"digestsPulled"`
	// BreakerSkips counts peer probes skipped outright because the
	// peer's circuit breaker was open — requests that went straight to
	// the origin without waiting out a timeout on a known-bad peer.
	BreakerSkips int64 `json:"breakerSkips"`
	// HedgesStarted counts races where the origin fetch was launched
	// while the hinted peer was still silent past the hedge point;
	// HedgeOriginWins/HedgePeerWins split them by who answered first.
	HedgesStarted   int64 `json:"hedgesStarted"`
	HedgeOriginWins int64 `json:"hedgeOriginWins"`
	HedgePeerWins   int64 `json:"hedgePeerWins"`
	// Retries counts metadata-path re-attempts (hint batches and digest
	// pulls) spent after a failure.
	Retries int64 `json:"retries"`
	// Coalesced counts pending hint updates folded onto an existing
	// record for the same object before being sent (repeated informs
	// dedupe; inform-then-invalidate collapses to the invalidate).
	Coalesced int64 `json:"coalesced"`
	// PendingDropped counts records the bounded node-level pending queue
	// discarded under overflow (oldest informs first); QueueDropped is
	// the same for the per-peer sender queues, summed across peers.
	PendingDropped int64 `json:"pendingDropped"`
	QueueDropped   int64 `json:"queueDropped"`
	// OversizeRejects counts hint batches refused as too large (status
	// 413) for exceeding the size limit.
	OversizeRejects int64 `json:"oversizeRejects"`
	// DigestServesFull / DigestServesDelta split digest serves by
	// transfer mode, and DigestServeBytesFull / DigestServeBytesDelta
	// count the body bytes each mode shipped — the delta-proportional
	// metadata claim is the ratio of these.
	DigestServesFull      int64 `json:"digestServesFull"`
	DigestServesDelta     int64 `json:"digestServesDelta"`
	DigestServeBytesFull  int64 `json:"digestServeBytesFull"`
	DigestServeBytesDelta int64 `json:"digestServeBytesDelta"`
	// DigestCursorLost counts delta requests whose cursor had aged out of
	// the journal (the peer got a full snapshot instead); DigestRebuilds
	// counts own-digest rebuilds forced by counter saturation;
	// DigestDeltaOps counts membership ops applied from pulled deltas.
	DigestCursorLost int64 `json:"digestCursorLost"`
	DigestRebuilds   int64 `json:"digestRebuilds"`
	DigestDeltaOps   int64 `json:"digestDeltaOps"`
	// WireHintBytes counts hint-batch body bytes successfully delivered
	// to their targets at R = 0. At R > 0 the same bytes land in
	// WireHintBytesPartitioned instead, so the two wire costs stay
	// separately comparable.
	WireHintBytes            int64 `json:"wireHintBytes"`
	WireHintBytesPartitioned int64 `json:"wireHintBytesPartitioned"`
	// HintHomeHits/Misses/Errors classify hint-home consults on the miss
	// path (R > 0): the home served its own copy or named a live holder /
	// answered "no holder" / failed or timed out. HintHomeServes/ServeMisses
	// are the serving side of the consult; a served copy counts in
	// PeerServes too.
	HintHomeHits        int64 `json:"hintHomeHits"`
	HintHomeMisses      int64 `json:"hintHomeMisses"`
	HintHomeErrors      int64 `json:"hintHomeErrors"`
	HintHomeServes      int64 `json:"hintHomeServes"`
	HintHomeServeMisses int64 `json:"hintHomeServeMisses"`
	// RehomedObjects counts re-homing work units: records re-announced,
	// forwarded, or dropped because their owner set changed with
	// membership (proportional to churn, not directory size).
	RehomedObjects int64 `json:"rehomedObjects"`
}

// Stats returns a snapshot of the node's counters, each field loaded
// atomically (the fields are not read at one instant).
func (n *Node) Stats() Stats {
	var st Stats
	live, out := reflect.ValueOf(&n.stats).Elem(), reflect.ValueOf(&st).Elem()
	for i := range out.NumField() {
		out.Field(i).SetInt(atomic.LoadInt64(live.Field(i).Addr().Interface().(*int64)))
	}
	return st
}

// nodeHists are the node's latency histograms: client-facing fetch time per
// outcome class, plus the internal latencies the paper's design principles
// are stated in terms of — the wasted false-positive peer probe, the
// hint-batch flush round, and the peer-serve path.
type nodeHists struct {
	local         *obs.Histogram // X-Cache LOCAL
	localDisk     *obs.Histogram // X-Cache LOCAL-DISK (disk-tier hit)
	coalesced     *obs.Histogram // X-Cache "LOCAL,COALESCED"
	remote        *obs.Histogram // X-Cache REMOTE
	miss          *obs.Histogram // X-Cache MISS and "MISS,STALE-HINT"
	falsePositive *obs.Histogram // failed peer probe paid before origin
	flush         *obs.Histogram // one flush round (slowest target's delivery)
	fanout        *obs.Histogram // one sender's successful batch delivery
	peerServe     *obs.Histogram // serving an object to a peer
	digestServe   *obs.Histogram // serving a digest pull (full or delta)
}

func newNodeHists() nodeHists {
	return nodeHists{
		local:         obs.NewHistogram(nil),
		localDisk:     obs.NewHistogram(nil),
		coalesced:     obs.NewHistogram(nil),
		remote:        obs.NewHistogram(nil),
		miss:          obs.NewHistogram(nil),
		falsePositive: obs.NewHistogram(nil),
		flush:         obs.NewHistogram(nil),
		fanout:        obs.NewHistogram(nil),
		peerServe:     obs.NewHistogram(nil),
		digestServe:   obs.NewHistogram(nil),
	}
}

// observeFetch files one client-facing fetch under its outcome class.
func (h *nodeHists) observeFetch(how string, d time.Duration) {
	switch how {
	case "LOCAL":
		h.local.Observe(d)
	case "LOCAL-DISK":
		h.localDisk.Observe(d)
	case "LOCAL,COALESCED":
		h.coalesced.Observe(d)
	case "REMOTE":
		h.remote.Observe(d)
	default: // MISS, MISS,STALE-HINT, MISS,HEDGE
		h.miss.Observe(d)
	}
}

// Metrics builds the node's full exposition: request counters by outcome,
// hint-protocol counters, hint-table counters, latency histograms per
// outcome class, and cache/hint-table occupancy gauges (including
// per-shard eviction series).
func (n *Node) Metrics() *obs.Expo {
	e := obs.NewExpo()
	st := n.Stats()
	e.Counter("beyondcache_fetch_total",
		"Successful /fetch requests by terminal outcome class.",
		st.LocalHits, obs.L("outcome", "local"))
	e.Counter("beyondcache_fetch_total", "", st.RemoteHits, obs.L("outcome", "remote"))
	e.Counter("beyondcache_fetch_total", "", st.Misses, obs.L("outcome", "miss"))
	e.Counter("beyondcache_fetch_coalesced_total",
		"Subset of local hits served by sharing another request's in-flight fill.",
		st.CoalescedHits)
	e.Counter("beyondcache_fetch_false_positives_total",
		"Stale hints and digest false positives: peer probes paid before the origin.",
		st.FalsePositives)
	e.Counter("beyondcache_peer_serves_total",
		"Objects served to peers: object calls answered 200, and hint-home consults answered with this node's own copy.", st.PeerServes)
	e.Counter("beyondcache_peer_rejects_total",
		"Peer object calls rejected because the object was not cached (404, or 409 while a fill of it was in flight).", st.PeerRejects)
	e.Counter("beyondcache_hint_updates_sent_total",
		"Hint updates sent (updates x targets reached).", st.UpdatesSent)
	e.Counter("beyondcache_hint_updates_received_total",
		"Hint updates received in peers' hint batches.", st.UpdatesReceived)
	e.Counter("beyondcache_hint_batches_sent_total",
		"Hint-update batches (hint calls) completed.", st.BatchesSent)
	e.Counter("beyondcache_hint_send_errors_total",
		"Hint-update batches (hint calls) that failed.", st.SendErrors)
	e.Counter("beyondcache_digest_pulls_total",
		"Peer digest pulls completed (digest mode).", st.DigestsPulled)

	// Incremental digest plane: serve modes, delta-proportional bytes,
	// cursor losses, saturation rebuilds, and hint-batch wire bytes
	// (see DESIGN.md §13).
	e.Counter("beyondcache_digest_serves_total",
		"Digest pulls served, by transfer mode.",
		st.DigestServesFull, obs.L("mode", "full"))
	e.Counter("beyondcache_digest_serves_total", "",
		st.DigestServesDelta, obs.L("mode", "delta"))
	e.Counter("beyondcache_digest_serve_bytes_total",
		"Body bytes shipped by digest serves, by transfer mode.",
		st.DigestServeBytesFull, obs.L("mode", "full"))
	e.Counter("beyondcache_digest_serve_bytes_total", "",
		st.DigestServeBytesDelta, obs.L("mode", "delta"))
	e.Counter("beyondcache_digest_cursor_lost_total",
		"Delta digest requests whose cursor had aged out of the journal (full snapshot served instead).",
		st.DigestCursorLost)
	e.Counter("beyondcache_digest_rebuilds_total",
		"Own-digest rebuilds forced by counting-filter saturation.",
		st.DigestRebuilds)
	e.Counter("beyondcache_digest_delta_ops_total",
		"Membership ops applied from pulled digest deltas.",
		st.DigestDeltaOps)
	e.Counter("beyondcache_hint_wire_bytes_total",
		"Hint-batch body bytes successfully delivered to their targets, by owner-set size: mode=broadcast is R = 0 (every member an owner), mode=partitioned R > 0.",
		st.WireHintBytes, obs.L("mode", "broadcast"))
	e.Counter("beyondcache_hint_wire_bytes_total", "",
		st.WireHintBytesPartitioned, obs.L("mode", "partitioned"))

	// Hint directory (DESIGN.md §14). Families are emitted in every mode
	// (zero-valued under digests, and the hint-home hops at R = 0, where
	// every node is every object's home) so the /metrics surface is
	// mode-independent.
	e.Counter("beyondcache_hint_home_hops_total",
		"Hint-home consults taken on the miss path, by outcome.",
		st.HintHomeHits, obs.L("outcome", "hit"))
	e.Counter("beyondcache_hint_home_hops_total", "",
		st.HintHomeMisses, obs.L("outcome", "miss"))
	e.Counter("beyondcache_hint_home_hops_total", "",
		st.HintHomeErrors, obs.L("outcome", "error"))
	e.Counter("beyondcache_hint_home_serves_total",
		"Holder consults served as a hint home, by outcome.",
		st.HintHomeServes, obs.L("outcome", "hit"))
	e.Counter("beyondcache_hint_home_serves_total", "",
		st.HintHomeServeMisses, obs.L("outcome", "miss"))
	e.Counter("beyondcache_hint_rehome_objects_total",
		"Re-homing work units: records re-announced, forwarded, or dropped because their owner set changed.",
		st.RehomedObjects)
	loc := n.loc.collect()
	e.Gauge("beyondcache_hint_directory_partition_objects",
		"Directory records held as a hint home (at R = 0 every node homes every object: its whole directory; 0 under digests).", float64(loc.partitionObjects))
	e.Gauge("beyondcache_overlay_members",
		"Live members in the hint-routing overlay, this node included (0 under digests).", float64(loc.overlayMembers))

	// Metadata-plane pipeline: coalescing, queue bounds, and oversize
	// rejects (see DESIGN.md §10).
	e.Counter("beyondcache_hint_coalesced_total",
		"Pending hint updates folded onto an existing record for the same object before send.",
		st.Coalesced)
	e.Counter("beyondcache_hint_pending_dropped_total",
		"Records dropped by the bounded node-level pending queue (oldest informs first).",
		st.PendingDropped)
	e.Gauge("beyondcache_hint_pending_records",
		"Hint updates queued for the next batch round.", float64(loc.pending))
	e.Counter("beyondcache_updates_oversize_total",
		"Hint batches refused with status 413 for exceeding the size limit.",
		st.OversizeRejects)

	// Resilience: breaker activity, hedged races, and metadata retries.
	e.Counter("beyondcache_breaker_skips_total",
		"Peer probes skipped outright because the peer's breaker was open.",
		st.BreakerSkips)
	e.Counter("beyondcache_hedges_started_total",
		"Races where the origin fetch launched while the hinted peer was still silent.",
		st.HedgesStarted)
	e.Counter("beyondcache_hedges_total",
		"Resolved hedged races by winner.",
		st.HedgeOriginWins, obs.L("winner", "origin"))
	e.Counter("beyondcache_hedges_total", "", st.HedgePeerWins, obs.L("winner", "peer"))
	e.Counter("beyondcache_retries_total",
		"Metadata-path re-attempts (hint calls, digest pulls) spent after a failure.",
		st.Retries)

	// Per-peer families: the breaker and the hint sender's queue, in AddPeer
	// order. Both are made in AddPeer, so every peer reports from the first
	// scrape (a queue the locator never feeds reports zeros). The aggregate
	// open gauge is emitted even with no peers so the family always exists.
	peers := n.peerList()
	open, maxQueued := 0, 0
	for _, p := range peers {
		bs := p.br.Stats()
		depth, dropped := p.sender.q.len(), p.sender.dropped.Load()
		if bs.State != resilience.Closed {
			open++
		}
		if depth > maxQueued {
			maxQueued = depth
		}
		label := obs.L("peer", p.host)
		e.Gauge("beyondcache_breaker_state",
			"Per-peer breaker position: 0 closed, 1 open, 2 half-open.",
			float64(bs.State), label)
		e.Counter("beyondcache_breaker_transitions_total",
			"Per-peer breaker state changes.", bs.Transitions, label)
		e.Counter("beyondcache_breaker_refusals_total",
			"Per-peer requests refused while the breaker was open or half-open.", bs.Refusals, label)
		e.Gauge("beyondcache_hint_queue_depth",
			"Records waiting in the per-peer sender queue.", float64(depth), label)
		e.Counter("beyondcache_hint_queue_dropped_total",
			"Records dropped from the per-peer sender queue under backpressure (oldest informs first).",
			dropped, label)
	}
	e.Gauge("beyondcache_breakers_open",
		"Peers whose breaker is currently not closed.", float64(open))

	// Metadata freshness (DESIGN.md §11). Directory lag is the node's view
	// of how far its peers' hint directories trail reality: records still
	// pending the next batch round plus the deepest per-peer sender backlog.
	peerHistograms(e, "beyondcache_hint_propagation_seconds",
		"Age of hint batches at receipt: receiver wall clock minus the batch's oldest-enqueue stamp, by sending peer.",
		peers, func(p *peer) *obs.Histogram { return p.hintLag })
	peerHistograms(e, "beyondcache_digest_staleness_seconds",
		"Age of the peer digest each pull replaces: time since that snapshot was generated, by peer.",
		peers, func(p *peer) *obs.Histogram { return p.digestStale })
	e.Gauge("beyondcache_hint_directory_lag_objects",
		"Updates enqueued locally but not yet delivered to every peer: pending records plus the deepest sender queue.",
		float64(loc.pending+maxQueued))

	// Injected-fault counters, one series per fault kind; all zero (but
	// present) when the node runs without a fault spec.
	fc := n.inj.Counts()
	e.Counter("beyondcache_faults_injected_total",
		"Faults injected into outbound requests by the chaos layer, by kind.",
		fc.Latency, obs.L("kind", "latency"))
	e.Counter("beyondcache_faults_injected_total", "", fc.Errors, obs.L("kind", "error"))
	e.Counter("beyondcache_faults_injected_total", "", fc.Drops, obs.L("kind", "drop"))
	e.Counter("beyondcache_faults_injected_total", "", fc.Hangs, obs.L("kind", "hang"))
	e.Counter("beyondcache_faults_injected_total", "", fc.Flaps, obs.L("kind", "flap"))

	hs := n.hints.Stats()
	e.Counter("beyondcache_hint_lookups_total", "Hint-table probes.", hs.Lookups)
	e.Counter("beyondcache_hint_hits_total", "Hint-table probes that found a record.", hs.Hits)
	e.Counter("beyondcache_hint_inserts_total", "Hint-table inserts.", hs.Inserts)
	e.Counter("beyondcache_hint_evictions_total", "Hint records evicted by set pressure.", hs.Evictions)
	e.Counter("beyondcache_hint_deletes_total", "Hint records deleted by invalidations.", hs.Deletes)
	e.Counter("beyondcache_hint_conflicts_total", "Hint inserts that displaced a live record.", hs.Conflicts)
	e.Counter("beyondcache_hint_nonowner_rejected_total",
		"Hint inserts refused by the ownership filter (object not homed here).", hs.FilterRejects)

	e.Histogram("beyondcache_fetch_duration_seconds",
		"Client-facing /fetch latency by terminal outcome class.",
		n.hist.local.Snapshot(), obs.L("outcome", "LOCAL"))
	e.Histogram("beyondcache_fetch_duration_seconds", "",
		n.hist.localDisk.Snapshot(), obs.L("outcome", "LOCAL-DISK"))
	e.Histogram("beyondcache_fetch_duration_seconds", "",
		n.hist.coalesced.Snapshot(), obs.L("outcome", "LOCAL,COALESCED"))
	e.Histogram("beyondcache_fetch_duration_seconds", "",
		n.hist.remote.Snapshot(), obs.L("outcome", "REMOTE"))
	e.Histogram("beyondcache_fetch_duration_seconds", "",
		n.hist.miss.Snapshot(), obs.L("outcome", "MISS"))
	e.Histogram("beyondcache_false_positive_probe_seconds",
		"Wasted peer-probe time paid before falling through to the origin.",
		n.hist.falsePositive.Snapshot())
	e.Histogram("beyondcache_hint_flush_seconds",
		"Duration of one hint-batch flush round across all targets.",
		n.hist.flush.Snapshot())
	e.Histogram("beyondcache_hint_fanout_seconds",
		"Per-target hint-batch delivery time (one sender's successful hint call, retries included).",
		n.hist.fanout.Snapshot())
	e.Histogram("beyondcache_peer_serve_seconds",
		"Time to serve a cached object to a peer.",
		n.hist.peerServe.Snapshot())
	e.Histogram("beyondcache_digest_serve_seconds",
		"Time to serve a digest pull (cached full snapshot or delta encode).",
		n.hist.digestServe.Snapshot())

	e.Gauge("beyondcache_cache_bytes_used",
		"Bytes charged against the object cache's capacity.", float64(n.data.Used()))
	e.Gauge("beyondcache_cache_bytes_capacity",
		"Configured object-cache capacity in bytes.", float64(n.data.Capacity()))
	e.Gauge("beyondcache_cache_entries",
		"Objects resident in the cache.", float64(n.data.Len()))
	e.Gauge("beyondcache_cache_shards",
		"Lock-stripe count of the object cache.", float64(n.data.Shards()))
	for i, sh := range n.data.PerShard() {
		shard := obs.L("shard", strconv.Itoa(i))
		e.Counter("beyondcache_cache_shard_evictions_total",
			"Capacity evictions per cache shard.", sh.Evictions, shard)
	}
	cs := n.data.Stats()
	e.Counter("beyondcache_cache_inserts_total",
		"Object-cache inserts across shards.", cs.Inserts)
	e.Counter("beyondcache_cache_evictions_total",
		"Object-cache capacity evictions across shards.", cs.Evictions)

	// Disk tier (DESIGN.md §12). Every family is emitted — zero-valued —
	// even for memory-only nodes, so the /metrics surface is identical
	// across the fleet and dashboards need no existence checks.
	var ds store.Stats
	var ss store.SpillStats
	var promotions int64
	if n.tier != nil {
		ds = n.tier.DiskStats()
		ss = n.tier.SpillStats()
		promotions = n.tier.Promotions()
	}
	n.recoveryMu.Lock()
	rec := n.recovery
	n.recoveryMu.Unlock()
	e.Counter("beyondcache_fetch_disk_hits_total",
		"Subset of local /fetch hits served from the disk tier (X-Cache LOCAL-DISK).",
		st.DiskHits)
	e.Counter("beyondcache_store_disk_hits_total",
		"Disk-tier reads that passed verification and served an object.", ds.Hits)
	e.Counter("beyondcache_store_disk_misses_total",
		"Disk-tier probes that found no valid object.", ds.Misses)
	e.Counter("beyondcache_store_puts_total",
		"Objects written to the disk tier.", ds.Puts)
	e.Counter("beyondcache_store_put_skipped_total",
		"Disk writes skipped because the same or a newer version was already stored.",
		ds.PutSkipped)
	e.Counter("beyondcache_store_evictions_total",
		"Objects dropped with a segment retired by capacity pressure.", ds.Evictions)
	e.Counter("beyondcache_store_verify_failures_total",
		"Records dropped after failing header or body-checksum verification, and recovery walks ended by a torn tail.",
		ds.VerifyFailures)
	e.Counter("beyondcache_store_promotions_total",
		"Disk hits promoted back into the memory tier.", promotions)
	e.Gauge("beyondcache_store_disk_objects",
		"Objects indexed in the disk tier.", float64(ds.Objects))
	e.Gauge("beyondcache_store_disk_bytes_used",
		"Segment bytes (headers, superseded records and tombstones included) charged against the disk capacity.",
		float64(ds.UsedBytes))
	e.Gauge("beyondcache_store_disk_bytes_capacity",
		"Configured disk-tier capacity in bytes (0 = unbounded).", float64(ds.Capacity))
	e.Gauge("beyondcache_store_spill_queue_depth",
		"Evicted objects waiting in the write-behind queue.", float64(ss.Depth))
	e.Counter("beyondcache_store_spilled_total",
		"Evicted objects written through to disk by the write-behind worker.", ss.Spilled)
	e.Counter("beyondcache_store_spill_coalesced_total",
		"Evictions folded onto an already-queued spill of the same object.", ss.Coalesced)
	e.Counter("beyondcache_store_spill_dropped_total",
		"Evictions that never reached disk, by reason; each drop left both tiers and queued an invalidate.",
		ss.Drops, obs.L("reason", "overflow"))
	e.Counter("beyondcache_store_spill_dropped_total", "",
		ss.Errors, obs.L("reason", "write-error"))
	e.Gauge("beyondcache_store_recovery_duration_seconds",
		"Wall time of the boot recovery scan (0 until it finishes).",
		rec.Duration.Seconds())
	e.Gauge("beyondcache_store_recovery_objects",
		"Valid objects recovered and republished by the boot scan.", float64(rec.Objects))
	e.Counter("beyondcache_store_recovery_tmp_removed_total",
		"Segment files the boot recovery scan deleted because nothing live was left in them (the name predates the segment log).",
		int64(rec.SegmentsRemoved))
	e.Counter("beyondcache_store_recovery_quarantined_total",
		"Segments whose boot recovery walk stopped at an invalid or truncated record (a torn tail).",
		int64(rec.Quarantined))

	e.Gauge("beyondcache_hint_table_entries",
		"Hint-table slot count.", float64(n.hints.Entries()))
	e.Gauge("beyondcache_hint_table_occupied",
		"Hint-table slots holding a live record.", float64(n.hints.Occupied()))
	e.Gauge("beyondcache_hint_table_bytes",
		"Hint-table size in bytes (16 per slot).", float64(n.hints.SizeBytes()))

	e.Counter("beyondcache_spans_recorded_total",
		"Structured spans recorded in the /debug/spans ring.",
		n.spans.Recorded())
	e.Gauge("beyondcache_node_info",
		"Constant 1; the name label identifies the node.", 1, obs.L("name", n.label()))
	return e
}

// peerHistograms emits one per-peer histogram family. The unlabeled
// aggregate is the merge of the peers' snapshots, so it exists from the
// first scrape and its count is the sum of the labelled ones; a labelled
// series appears, in AddPeer order, once its peer has an observation.
func peerHistograms(e *obs.Expo, name, help string, peers []*peer, of func(*peer) *obs.Histogram) {
	all := obs.NewHistogram(nil)
	snaps := make([]obs.HistogramSnapshot, len(peers))
	for i, p := range peers {
		snaps[i] = of(p).Snapshot()
		_ = all.Merge(snaps[i]) // every one has the default bounds
	}
	e.Histogram(name, help, all.Snapshot())
	for i, p := range peers {
		if snaps[i].Count() > 0 {
			e.Histogram(name, "", snaps[i], obs.L("peer", p.host))
		}
	}
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !expoGET(w, r) {
		return
	}
	writeExpo(w, n.Metrics())
}

// spansMaxPull caps how many spans one /debug/spans response carries; it is
// also the default when no ?limit= is given. A scraper that is far behind
// simply polls again with the returned cursor.
const spansMaxPull = 4096

// handleSpans serves GET /debug/spans: the structured-span ring in its
// binary wire encoding (internal/obs AppendSpan records), oldest first from
// the ?since= cursor. The response carries the scrape state in headers —
// X-Span-Cursor is the value to pass as ?since= next time, X-Span-Lost
// counts spans the ring overwrote before this scrape reached them, and
// X-Span-Node names the serving node so an inspector can label the spans'
// source without a second request.
func (n *Node) handleSpans(w http.ResponseWriter, r *http.Request) {
	if !expoGET(w, r) {
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be an unsigned integer", http.StatusBadRequest)
			return
		}
		since = p
	}
	limit := spansMaxPull
	if v := r.URL.Query().Get("limit"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		if p < limit {
			limit = p
		}
	}
	spans, next, lost := n.spans.Since(since, limit)
	w.Header().Set("X-Span-Node", n.label())
	w.Header().Set("X-Span-Cursor", strconv.FormatUint(next, 10))
	w.Header().Set("X-Span-Lost", strconv.FormatUint(lost, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(obs.AppendSpans(nil, spans))
}

// Metrics builds the origin's exposition.
func (o *Origin) Metrics() *obs.Expo {
	e := obs.NewExpo()
	o.mu.Lock()
	fetches := o.fetches
	bumped := len(o.versions)
	o.mu.Unlock()
	e.Counter("beyondcache_origin_fetches_total",
		"Object requests the origin has served.", fetches)
	e.Gauge("beyondcache_origin_bumped_objects",
		"URLs whose version has been bumped at least once.", float64(bumped))
	e.Histogram("beyondcache_origin_serve_seconds",
		"Origin /obj service time, including the configured artificial latency.",
		o.serveHist.Snapshot())
	return e
}

func (o *Origin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !expoGET(w, r) {
		return
	}
	writeExpo(w, o.Metrics())
}
