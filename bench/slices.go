package main

import "time"

// The sandbox has noisy neighbours. On an otherwise idle machine the
// one-second throughput of the same hot-local fleet wanders between 23k and
// 41k req/s: spikes of a second or two, and slow phases of ten minutes in
// which everything, the best half second included, runs 10-15 % slower. Over
// ten back-to-back 20 s runs the quartile spread of a latency in µs is
// 8-15 % of its median, whatever statistic of the window is taken (whole
// window, best slices, longer windows were all tried).
//
// What does hold still is a latency measured against another latency of the
// same moment. Every client therefore spends one fetch in refEvery on a
// null server (bench.ref) all through the window, the window is cut into
// sliceLen pieces, and the end-to-end timing metrics are reported in
// multiples of the reference fetch: each statistic is divided by the
// reference's median latency in the same slice (throughput by its mean, see
// throughputX), and the median of those ratios over the slices is the metric. That brings the quartile spreads to
// 0.5-6 %. The values in µs are printed and recorded beside them, and a
// --trace 1 run reports them as per-layer metrics.
const (
	sliceLen = 500 * time.Millisecond
	// minSliceSamples is the fewest samples (of the class in question, or of
	// the reference) a slice needs before its median takes part. A measured
	// slice holds thousands; this only binds in one-second smoke runs under
	// the race detector, which must still report every metric.
	minSliceSamples = 10
)

// sliceStat is one slice of a window, in absolute units. A field is 0 when
// the slice had too few samples for it.
type sliceStat struct {
	RPS      float64 `json:"rps"`
	P50      float64 `json:"p50_us"`
	LocalP50 float64 `json:"local_p50_us"`
	CPU      float64 `json:"cpu_us_per_req"`
	RefP50   float64 `json:"ref_p50_us"`
	RefMean  float64 `json:"ref_mean_us"`
}

// slices cuts the window at its CPU marks. A trailing piece shorter than
// half a slice is dropped.
func (w window) slices() []sliceStat {
	next := make([]int, len(w.clients)) // per client: first sample not yet consumed
	nextRef := make([]int, len(w.clients))
	var out []sliceStat
	for i := 1; i < len(w.marks); i++ {
		from, to := w.marks[i-1], w.marks[i]
		var all, local, ref []int64
		for c, cl := range w.clients {
			j := next[c]
			for ; j < len(cl.samples) && cl.samples[j].at < to.at; j++ {
				all = append(all, cl.samples[j].ns)
				if cl.samples[j].cls == classLocal {
					local = append(local, cl.samples[j].ns)
				}
			}
			next[c] = j
			j = nextRef[c]
			for ; j < len(cl.refSamples) && cl.refSamples[j].at < to.at; j++ {
				ref = append(ref, cl.refSamples[j].ns)
			}
			nextRef[c] = j
		}
		if to.at-from.at < sliceLen/2 {
			continue
		}
		st := sliceStat{
			RPS: float64(len(all)) / (to.at - from.at).Seconds(),
			CPU: ratio(float64((to.cpu - from.cpu).Microseconds()), float64(len(all))),
		}
		if len(all) >= minSliceSamples {
			st.P50 = us(percentile(all, 0.50))
		}
		if len(local) >= minSliceSamples {
			st.LocalP50 = us(percentile(local, 0.50))
		}
		if len(ref) >= minSliceSamples {
			st.RefP50 = us(percentile(ref, 0.50))
			var sum int64
			for _, ns := range ref {
				sum += ns
			}
			st.RefMean = us(sum) / float64(len(ref))
		}
		out = append(out, st)
	}
	return out
}

// overSlices is the median, over the slices that have both a reference and
// the statistic, of the statistic in multiples of the reference fetch (0
// when no slice has both).
func overSlices(slices []sliceStat, inRefs func(s sliceStat) float64) float64 {
	var v []float64
	for _, s := range slices {
		if s.RefP50 > 0 {
			if x := inRefs(s); x > 0 {
				v = append(v, x)
			}
		}
	}
	return medianFloat(v)
}
