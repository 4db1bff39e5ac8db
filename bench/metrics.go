package main

// metricDef names one reported metric. The two tables below are the single
// source for BENCHMARK.json (metrics_test.go checks the file against them),
// for the result line the driver parses, and for -compare.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
}

// endToEnd are the metrics a user of the fleet would see. Every one is
// reported, and is non-zero, on every workload. The _x metrics are in
// multiples of the reference fetch measured in the same half second
// (slices.go); the same quantities in µs, and the per-class medians that
// exist only on some workloads, live in perLayer. Each bound is at least
// three times the widest quartile spread seen for the metric over two
// ten-seed campaigns on every workload (README, "Repeatability").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_x", "x", "higher", 0.15},
	{"fetch_p50_x", "x", "lower", 0.15},
	{"local_p50_x", "x", "lower", 0.10},
	{"hit_rate", "ratio", "higher", 0.08},
	{"cpu_x", "x", "lower", 0.15},
}

// perLayer are diagnostics: class medians, boundary-counter ratios, traced
// self times and layer probes. A value of 0 means the layer does nothing on
// that workload (no REMOTE class on hot-local, no disk tier without
// CacheDirs, ...).
var perLayer = []metricDef{
	// The end-to-end quantities in absolute units, the outcome-class ladder,
	// and what is zero or absent on some workload; all with tracing off.
	{"throughput_rps", "1/s", "higher", 0},
	{"fetch_p50_us", "us", "lower", 0},
	{"fetch_p95_us", "us", "lower", 0},
	{"local_p50_us", "us", "lower", 0},
	{"cpu_us_per_req", "us", "lower", 0},
	{"client.ref_p50_us", "us", "lower", 0},
	{"disk_p50_us", "us", "lower", 0},
	{"remote_p50_us", "us", "lower", 0},
	{"miss_p50_us", "us", "lower", 0},
	{"purge_p50_us", "us", "lower", 0},
	{"share.local", "ratio", "higher", 0},
	{"share.disk", "ratio", "higher", 0},
	{"share.remote", "ratio", "higher", 0},
	{"share.miss", "ratio", "lower", 0},
	{"origin_fetches_per_req", "ratio", "lower", 0},
	{"meta_bytes_per_req", "B", "lower", 0},
	{"error_rate", "ratio", "lower", 0},

	// A: traced run.
	{"client.transport_self_us.local", "us", "lower", 0},
	{"client.transport_self_us.disk", "us", "lower", 0},
	{"client.transport_self_us.remote", "us", "lower", 0},
	{"client.transport_self_us.miss", "us", "lower", 0},
	{"client.fetch_p99_us", "us", "lower", 0},
	{"client.fetch_p999_us", "us", "lower", 0},
	{"cluster.node_self_us.local", "us", "lower", 0},
	{"cluster.node_self_us.disk", "us", "lower", 0},
	{"cluster.node_self_us.remote", "us", "lower", 0},
	{"cluster.node_self_us.miss", "us", "lower", 0},
	{"cluster.peer_hop_us", "us", "lower", 0},
	{"cluster.peer_serve_us", "us", "lower", 0},
	{"cluster.peer_transport_self_us", "us", "lower", 0},
	{"cluster.origin_hop_us", "us", "lower", 0},
	{"cluster.origin_serve_us", "us", "lower", 0},
	{"overlay.hinthome_hop_us", "us", "lower", 0},
	{"trace.breakdown_err_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	// B: boundary counters over the untraced window.
	{"cluster.coalesced_per_req", "ratio", "higher", 0},
	{"cluster.false_positive_per_req", "ratio", "lower", 0},
	{"cluster.hint_useful_ratio", "ratio", "higher", 0},
	{"cluster.hedges_per_req", "ratio", "lower", 0},
	{"cluster.breaker_skips", "count", "lower", 0},
	{"cache.evictions_per_req", "ratio", "lower", 0},
	{"hintcache.updates_sent_per_req", "ratio", "lower", 0},
	{"hintcache.updates_recv_per_req", "ratio", "lower", 0},
	{"hintcache.coalesced_per_req", "ratio", "higher", 0},
	{"hintcache.dropped", "count", "lower", 0},
	{"wire.bytes_per_update", "B", "lower", 0},
	{"overlay.hinthome_hit_ratio", "ratio", "higher", 0},
	{"overlay.rehomed_objects", "count", "lower", 0},
	{"store.disk_hits_per_req", "ratio", "higher", 0},
	{"store.spill_writes_per_req", "ratio", "lower", 0},
	{"store.spill_dropped", "count", "lower", 0},
	{"store.verify_failures", "count", "lower", 0},
	{"store.residency_misses", "count", "lower", 0},
	{"runtime.allocs_per_req", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_mb", "MB", "lower", 0},

	// C: layer probes and the generator's own floor.
	{"client.null_fetch_p50_us", "us", "lower", 0},
	{"client.null_cpu_us_per_req", "us", "lower", 0},
	{"client.null_rps", "1/s", "higher", 0},
	{"cluster.handler_local_ns", "ns", "lower", 0},
	{"cluster.handler_local_allocs", "count", "lower", 0},
	{"cache.get_ns", "ns", "lower", 0},
	{"cache.put_ns", "ns", "lower", 0},
	{"hintcache.lookup_ns", "ns", "lower", 0},
	{"hintcache.apply_ns_per_update", "ns", "lower", 0},
	{"wire.encode_ns_per_update", "ns", "lower", 0},
	{"wire.decode_ns_per_update", "ns", "lower", 0},
	{"overlay.owners_ns", "ns", "lower", 0},
	{"store.get_ns", "ns", "lower", 0},
	{"store.put_ns", "ns", "lower", 0},
	{"store.recover_ms_per_kobj", "ms", "lower", 0},
	{"digest.add_ns", "ns", "lower", 0},
	{"digest.contains_ns", "ns", "lower", 0},
	{"digest.delta_bytes_ratio", "ratio", "lower", 0},
	{"resilience.race_overhead_ns", "ns", "lower", 0},
	{"obs.hist_observe_ns", "ns", "lower", 0},
	{"obs.format_chain_ns", "ns", "lower", 0},
}

// value is one reported number with its unit, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a table, so a
// metric the table names but the run never set shows up as a test failure
// (the smoke test asserts presence) instead of silently missing.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	return out
}
