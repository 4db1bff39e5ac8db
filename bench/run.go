package main

import (
	"fmt"
	"math"
	"time"

	"beyondcache/internal/obs"
)

// A run performs the whole set-up several times — setup_s is the median and
// the last fleet is the one measured — at least minSetUps times, and then
// for as long as set-up and tear-down together have taken less than
// setUpBudget, up to maxSetUps: a set-up of a few milliseconds needs many
// repeats before its median holds still, one of seconds cannot afford them.
const (
	minSetUps   = 5
	maxSetUps   = 30
	setUpBudget = 2 * time.Second
)

// refNominalUs turns set-up times into seconds on a machine whose reference
// fetch takes 50 µs. setup_s has to be in seconds and may worsen by 25 % at
// most, while this machine's speed shifts by 30 % for ten minutes at a time:
// the median set-up time is scaled by how fast the reference fetches of the
// window that follows it ran (the raw times are recorded beside it). The
// constant only fixes the scale, per workload; nothing is compared across
// workloads.
const refNominalUs = 50

// minClassSamples is the fewest samples an outcome class needs before its
// median is reported; below it the class reads 0 ("absent"), consistently.
const minClassSamples = 1000

// record is the result of one run of one workload: what the result line
// carries, plus what a later reader needs to trust it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Loop states how load was offered (choosing-metrics §5).
	Loop string `json:"loop"`

	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FirstError string           `json:"firstError,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	// Samples are the counts behind the medians and ratios.
	Samples map[string]int `json:"samples"`
	// SequenceSHA256 fingerprints the first 4096 requests per client.
	SequenceSHA256 string      `json:"sequenceSha256"`
	Env            environment `json:"env"`
	// Slices and Whole back a --trace 0 run's _x metrics: every slice's
	// statistics in absolute units, and the same over the whole window.
	Slices []sliceStat        `json:"slices,omitempty"`
	Whole  map[string]float64 `json:"wholeWindow,omitempty"`
	// SetUps are the individual set-up times setup_s is the median of.
	SetUps []float64 `json:"setUps,omitempty"`

	spans []obs.Span
}

func newRecord(w *workload, seed int64, d time.Duration, trace int) *record {
	return &record{
		Workload:       w.Name,
		Seed:           seed,
		Seconds:        d.Seconds(),
		Trace:          trace,
		Loop:           fmt.Sprintf("closed loop, %d clients, one keep-alive connection per node each", numClients),
		Samples:        map[string]int{},
		SequenceSHA256: sequenceHash(w, seed, 4096),
		Env:            readEnvironment(),
	}
}

// settle folds a window's verdict into the record. A run is correct when
// every attempted fetch came back verified.
func (r *record) settle(win window) {
	r.Attempted += win.attempted()
	r.Failed += win.failed()
	if err := win.firstErr(); err != nil && r.FirstError == "" {
		r.FirstError = err.Error()
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// runEndToEnd is a --trace 0 run: set-up (timed, repeated at most setUps
// times), one measured window with tracing off, the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, d time.Duration, setUps int) (*record, error) {
	r := newRecord(w, seed, d, 0)
	var b *bench
	var setups []float64
	for began := time.Now(); ; b.close() {
		start := time.Now()
		var err error
		if b, err = setUp(w, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(setups) == setUps || len(setups) >= minSetUps && time.Since(began) > setUpBudget {
			break
		}
	}
	defer b.close()

	win := runWindow(b.clients, b.gens, d)
	r.settle(win)

	all, byClass := win.latencies()
	r.SetUps = setups
	r.Samples["setups"] = len(setups)
	r.Samples["fetches"] = len(all)
	for c, s := range byClass {
		r.Samples[classNames[c]] = len(s)
	}
	r.Slices = win.slices()
	r.Samples["slices"] = len(r.Slices)
	r.Samples["reference"] = len(win.refLatencies())
	// The same quantities in absolute units over the whole window, for the
	// reader; a --trace 1 run reports them as metrics.
	r.Whole = absoluteMetrics(win, all, byClass)
	m := metricSet{
		"setup_s":      medianFloat(setups) * ratio(refNominalUs, r.Whole["client.ref_p50_us"]),
		"hit_rate":     ratio(float64(len(all)-len(byClass[classMiss])), float64(len(all))),
		"throughput_x": throughputX(r.Slices),
		"fetch_p50_x":  overSlices(r.Slices, func(s sliceStat) float64 { return s.P50 / s.RefP50 }),
		"local_p50_x":  overSlices(r.Slices, func(s sliceStat) float64 { return s.LocalP50 / s.RefP50 }),
		"cpu_x":        overSlices(r.Slices, func(s sliceStat) float64 { return s.CPU / s.RefP50 }),
	}
	r.Metrics = m.render(endToEnd)
	return r, nil
}

// runPerLayer is a --trace 1 run. Half the time goes to an untraced window
// on a fresh fleet (class medians, boundary counters), half to a traced
// window on another fresh fleet (self times; the throughput difference is
// the tracing overhead), then the generator floor and the layer probes run
// with no fleet up.
func runPerLayer(w *workload, seed int64, d time.Duration) (*record, error) {
	r := newRecord(w, seed, d, 1)
	m := metricSet{}
	half := d / 2

	b, err := setUp(w, seed, false)
	if err != nil {
		return nil, err
	}
	before := b.snapshot()
	win := runWindow(b.clients, b.gens, half)
	after := b.snapshot()
	r.settle(win)
	untracedMetrics(m, r, w, win, before, after)
	untraced := throughputX(win.slices())
	probeHandler(m, b)
	b.close()

	if b, err = setUp(w, seed, true); err != nil {
		return nil, err
	}
	win = runWindow(b.clients, b.gens, half)
	r.settle(win)
	tracedMetrics(m, r, win)
	b.close()
	// Throughput in reference units on both sides, so that the machine
	// speeding up between the two windows is not booked as overhead.
	m["trace.overhead_pct"] = 100 * ratio(untraced-throughputX(win.slices()), untraced)

	if err := probeFloor(m, w, seed, min(d/4, 2*time.Second)); err != nil {
		return nil, err
	}
	if err := probeLayers(m, w); err != nil {
		return nil, err
	}
	r.Metrics = m.render(perLayer)
	return r, nil
}

// throughputX is requests per client per reference-fetch time, the mean one:
// throughput is a mean, and the time a neighbour steals stretches the mean
// reference fetch as it stretches the mean fetch, while the medians do not
// see it (hot-local's spread over ten runs: 2 % against 3-9 % by the median).
// 1 would be a fleet as cheap to ask as the null server.
func throughputX(slices []sliceStat) float64 {
	return overSlices(slices, func(s sliceStat) float64 { return s.RPS * s.RefMean / 1e6 / numClients })
}

// absoluteMetrics are the window's end-to-end quantities in absolute units:
// what the _x metrics are multiples of the reference of. It sorts all.
func absoluteMetrics(win window, all []int64, byClass [numClasses][]int64) map[string]float64 {
	sortInt64(all)
	return map[string]float64{
		"throughput_rps":    float64(len(all)) / win.elapsed.Seconds(),
		"fetch_p50_us":      us(sortedPercentile(all, 0.50)),
		"fetch_p95_us":      us(sortedPercentile(all, 0.95)),
		"local_p50_us":      us(percentile(byClass[classLocal], 0.50)),
		"cpu_us_per_req":    ratio(float64(win.cpu().Microseconds()), float64(win.attempted())),
		"client.ref_p50_us": us(percentile(win.refLatencies(), 0.50)),
	}
}

// classMedian is the class's median in µs, or 0 below minClassSamples.
func classMedian(s []int64) float64 {
	if len(s) < minClassSamples {
		return 0
	}
	return us(percentile(s, 0.50))
}

// untracedMetrics fills the class ladder and every boundary-counter metric
// from the untraced window.
func untracedMetrics(m metricSet, r *record, w *workload, win window, before, after boundary) {
	all, byClass := win.latencies()
	n := float64(win.attempted())
	r.Samples["untraced.fetches"] = len(all)
	for c, s := range byClass {
		r.Samples["untraced."+classNames[c]] = len(s)
		m["share."+classNames[c]] = ratio(float64(len(s)), float64(len(all)))
	}
	m["disk_p50_us"] = classMedian(byClass[classDisk])
	m["remote_p50_us"] = classMedian(byClass[classRemote])
	m["miss_p50_us"] = classMedian(byClass[classMiss])
	purges := win.purges()
	r.Samples["untraced.purges"] = len(purges)
	m["purge_p50_us"] = us(percentile(purges, 0.50))
	for name, v := range absoluteMetrics(win, all, byClass) {
		m[name] = v
	}
	m["client.fetch_p99_us"] = us(sortedPercentileOrZero(all, 0.99))
	m["client.fetch_p999_us"] = us(sortedPercentileOrZero(all, 0.999))
	m["error_rate"] = ratio(float64(win.failed()), n)

	st := after.stats
	addInt64Fields(&st, before.stats, -1)
	m["origin_fetches_per_req"] = ratio(float64(after.originFetches-before.originFetches), n)
	wireBytes := float64(st.WireHintBytes + st.WireHintBytesPartitioned)
	m["meta_bytes_per_req"] = ratio(wireBytes+float64(st.DigestServeBytesFull+st.DigestServeBytesDelta), n)
	m["cluster.coalesced_per_req"] = ratio(float64(st.CoalescedHits), n)
	m["cluster.false_positive_per_req"] = ratio(float64(st.FalsePositives), n)
	m["cluster.hint_useful_ratio"] = ratio(float64(st.RemoteHits), float64(st.RemoteHits+st.FalsePositives))
	m["cluster.hedges_per_req"] = ratio(float64(st.HedgesStarted), n)
	m["cluster.breaker_skips"] = float64(st.BreakerSkips)
	m["cache.evictions_per_req"] = ratio(after.cacheEvicts-before.cacheEvicts, n)
	m["hintcache.updates_sent_per_req"] = ratio(float64(st.UpdatesSent), n)
	m["hintcache.updates_recv_per_req"] = ratio(float64(st.UpdatesReceived), n)
	m["hintcache.coalesced_per_req"] = ratio(float64(st.Coalesced), n)
	m["hintcache.dropped"] = float64(st.PendingDropped + st.QueueDropped)
	m["wire.bytes_per_update"] = ratio(wireBytes, float64(st.UpdatesSent))
	consults := st.HintHomeHits + st.HintHomeMisses + st.HintHomeErrors
	m["overlay.hinthome_hit_ratio"] = ratio(float64(st.HintHomeHits), float64(consults))
	m["overlay.rehomed_objects"] = float64(st.RehomedObjects)
	m["store.disk_hits_per_req"] = ratio(float64(st.DiskHits), n)
	m["store.spill_writes_per_req"] = ratio(after.spilled-before.spilled, n)
	m["store.spill_dropped"] = after.spillDropped - before.spillDropped
	m["store.verify_failures"] = after.verifyFails - before.verifyFails
	// With a disk tier every object is resident somewhere local, so a MISS
	// is the tier having lost track of one (ROADMAP "Blocker").
	m["store.residency_misses"] = 0
	if w.Disk {
		m["store.residency_misses"] = float64(st.Misses)
	}
	m["runtime.allocs_per_req"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), n)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb"] = float64(after.mem.HeapInuse) / (1 << 20)
}

// sortedPercentileOrZero reports a tail percentile only when at least ten
// samples lie beyond it (choosing-metrics §1); otherwise 0.
func sortedPercentileOrZero(sorted []int64, q float64) int64 {
	if float64(len(sorted))*(1-q) < 10 {
		return 0
	}
	return sortedPercentile(sorted, q)
}

// tracedMetrics fills the self-time metrics from the traced window and keeps
// its spans for -out. The breakdown error is how far, at worst over the
// classes present, the medians of the parts are from summing to the median
// of the whole.
func tracedMetrics(m metricSet, r *record, win window) {
	var t tracer
	for _, c := range win.clients {
		t.merge(c.tracer)
	}
	r.spans = t.spans
	r.Samples["traced.spans"] = len(t.spans)
	worst := 0.0
	for cls, name := range classNames {
		p := &t.parts[cls]
		r.Samples["traced."+name] = len(p[partTotal])
		transport, node := classMedian(p[partTransport]), classMedian(p[partNode])
		m["client.transport_self_us."+name] = transport
		m["cluster.node_self_us."+name] = node
		if total := classMedian(p[partTotal]); total > 0 {
			sum := transport + node + classMedian(p[partUpstream])
			worst = math.Max(worst, 100*math.Abs(sum-total)/total)
		}
	}
	m["trace.breakdown_err_pct"] = worst
	for h, name := range hopMetrics {
		r.Samples["traced."+name] = len(t.hops[h])
		m[name] = classMedian(t.hops[h])
	}
}
