package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/wire"
)

// Run with -bench-wire-out to measure the wire plane (delta-proportional
// digest transfer, snapshot-cached serve latency, zero-alloc marshal, frame
// compression) and write the JSON artifact there:
//
//	go test ./internal/cluster -run TestRecordWireBench \
//	    -bench-wire-out ../../BENCH_wire.json
var benchWireOut = flag.String("bench-wire-out", "", "write the wire-plane bench JSON to this path")

// discardResponseWriter swallows the response body so serve-latency samples
// measure the handler (cursor parse, journal check, cached-frame lookup,
// counter updates) rather than buffer growth in a recorder.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// quantileUs picks the q-quantile of sorted duration samples, in microseconds.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// wireServePoint is one population size's GET /digest serve-latency summary.
type wireServePoint struct {
	Objects      int     `json:"objects"`
	SnapshotKiB  float64 `json:"snapshot_kib"`
	FullP50Us    float64 `json:"full_serve_p50_us"`
	FullP99Us    float64 `json:"full_serve_p99_us"`
	DeltaP50Us   float64 `json:"delta_serve_p50_us"`
	DeltaP99Us   float64 `json:"delta_serve_p99_us"`
	SnapBuilds   int64   `json:"snapshot_builds"`
	ServesSample int     `json:"serves_sampled"`
}

func TestRecordWireBench(t *testing.T) {
	if *benchWireOut == "" {
		t.Skip("run with -bench-wire-out to record the wire-plane bench")
	}

	// --- Delta proportionality: 64Ki objects, 1% churn per round. ---
	const objects = 64 << 10
	n := newMetaNode(t, NodeConfig{Name: "wire-bench", UseDigests: true, DigestCapacity: objects})
	for i := uint64(1); i <= objects; i++ {
		n.loc.publish(i, true)
	}
	_, _, fullBytes, cursor := digestGet(t, n, 0)
	const churn = objects / 100 / 2
	for i := uint64(1); i <= churn; i++ {
		n.loc.publish(i, false)
		n.loc.publish(objects+i, true)
	}
	_, _, deltaBytes, _ := digestGet(t, n, cursor)

	// --- Serve latency across population sizes. The snapshot cache makes
	// the full-serve path O(1) past the first build, so p99 should stay
	// flat 4Ki -> 64Ki instead of scaling with a per-request rebuild. ---
	const samples = 2000
	var servePoints []wireServePoint
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		node := newMetaNode(t, NodeConfig{
			Name: fmt.Sprintf("wire-bench-%d", size), UseDigests: true, DigestCapacity: size,
		})
		for i := uint64(1); i <= uint64(size); i++ {
			node.loc.publish(i, true)
		}
		d := digestsOf(node)
		d.mu.RLock()
		snapKiB := float64(d.own.SizeBytes()) / 1024
		d.mu.RUnlock()

		measure := func(since uint64) []time.Duration {
			target := "/digest"
			if since > 0 {
				target += fmt.Sprintf("?since=%d", since)
			}
			out := make([]time.Duration, samples)
			for i := range out {
				req := httptest.NewRequest(http.MethodGet, target, nil)
				start := time.Now()
				node.handleDigest(&discardResponseWriter{}, req)
				out[i] = time.Since(start)
			}
			sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
			return out
		}
		full := measure(0)
		// One journaled op past the cursor: the steady delta-serve path.
		_, _, _, cur := digestGet(t, node, 0)
		node.loc.publish(uint64(size)+1, true)
		delta := measure(cur)

		servePoints = append(servePoints, wireServePoint{
			Objects:      size,
			SnapshotKiB:  snapKiB,
			FullP50Us:    quantileUs(full, 0.50),
			FullP99Us:    quantileUs(full, 0.99),
			DeltaP50Us:   quantileUs(delta, 0.50),
			DeltaP99Us:   quantileUs(delta, 0.99),
			SnapBuilds:   digestsOf(node).snapBuilds.Load(),
			ServesSample: samples,
		})
	}

	// --- Append-based marshal: allocs and time per full-filter encode. ---
	f, err := digest.NewForCapacity(objects, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= objects; i++ {
		f.Add(i)
	}
	buf := make([]byte, 0, f.SizeBytes()+64)
	marshalAllocs := testing.AllocsPerRun(100, func() { buf = f.AppendBinary(buf[:0]) })
	const marshalIters = 200
	start := time.Now()
	for i := 0; i < marshalIters; i++ {
		buf = f.AppendBinary(buf[:0])
	}
	marshalUs := float64(time.Since(start).Microseconds()) / marshalIters

	// --- Frame compression: a populated counting filter's snapshot raw vs
	// flate (WireCompress). Sparse counter bytes compress well. ---
	payload := ownDigestBytes(n)
	rawFrame := wire.AppendFrame(nil, wire.KindDigestFull, payload, 0)
	compFrame := wire.AppendFrame(nil, wire.KindDigestFull, payload, wireCompressMin)

	out := struct {
		Description      string           `json:"description"`
		Objects          int              `json:"objects"`
		ChurnFraction    float64          `json:"churn_fraction"`
		FullBytes        int              `json:"full_snapshot_bytes"`
		DeltaBytes       int              `json:"delta_round_bytes"`
		DeltaOverFull    float64          `json:"delta_over_full_ratio"`
		Serve            []wireServePoint `json:"digest_serve"`
		MarshalAllocs    float64          `json:"filter_marshal_allocs_per_op"`
		MarshalUs        float64          `json:"filter_marshal_us_per_op"`
		FrameRawBytes    int              `json:"snapshot_frame_raw_bytes"`
		FrameFlateBytes  int              `json:"snapshot_frame_flate_bytes"`
		FlateOverRaw     float64          `json:"flate_over_raw_ratio"`
		FrameHeaderBytes int              `json:"frame_header_bytes"`
	}{
		Description:      "Wire plane: delta digest bytes vs full snapshot at 1% churn; GET /digest serve latency (cached snapshot + delta paths, body writes discarded) across population sizes; append-based filter marshal; flate frame compression.",
		Objects:          objects,
		ChurnFraction:    0.01,
		FullBytes:        fullBytes,
		DeltaBytes:       deltaBytes,
		DeltaOverFull:    float64(deltaBytes) / float64(fullBytes),
		Serve:            servePoints,
		MarshalAllocs:    marshalAllocs,
		MarshalUs:        marshalUs,
		FrameRawBytes:    len(rawFrame),
		FrameFlateBytes:  len(compFrame),
		FlateOverRaw:     float64(len(compFrame)) / float64(len(rawFrame)),
		FrameHeaderBytes: wire.HeaderSize,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchWireOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", *benchWireOut, data)
}
