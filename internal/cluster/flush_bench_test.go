package cluster

import (
	"net/http"
	"testing"

	"beyondcache/internal/hintcache"
)

// BenchmarkFlushFanout measures one coalesced flush round to four peers over
// the peer plane: 4096 hot-set events over 512 distinct objects are queued and
// delivered per iteration. It doubles as the coalescing regression check —
// each target may see at most one record per distinct object per round.
// CI runs it once (-benchtime=1x) as a smoke test.
func BenchmarkFlushFanout(b *testing.B) {
	const (
		targets  = 4
		events   = 4096
		distinct = 512
	)
	var sinks [targets]*updateSink
	for i := range sinks {
		sinks[i] = newUpdateSink(b)
	}
	n := newMetaNode(b, NodeConfig{Name: "bench-flush"})
	for _, s := range sinks {
		n.AddPeer(s.srv.URL)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < events; e++ {
			n.loc.publish(uint64(e%distinct)+1, true)
		}
		n.Flush()
	}
	b.StopTimer()
	for i, s := range sinks {
		if got := len(s.records()); got > b.N*distinct {
			b.Fatalf("sink %d received %d records over %d rounds, want <= %d (coalescing broken)",
				i, got, b.N, b.N*distinct)
		}
	}
}

// BenchmarkUpdatesIngest measures hint-batch ingest throughput: one
// pre-encoded 4096-record batch per iteration through the function the peer
// plane hands a batch to (one decode slice per batch, one Apply per record).
func BenchmarkUpdatesIngest(b *testing.B) {
	const records = 4096
	n := newMetaNode(b, NodeConfig{Name: "bench-ingest"})
	batch := make([]hintcache.Update, records)
	for i := range batch {
		batch[i] = hintcache.Update{Action: hintcache.ActionInform, URLHash: uint64(i) + 1, Machine: 0xABCD}
	}
	msg := hintBatch(batch...)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status := n.ingestHints(msg, 0, 0); status != http.StatusNoContent {
			b.Fatalf("ingestHints = %d, want 204", status)
		}
	}
}
