package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/wire"
)

// hintQueueCap bounds the pending hint queues in records: both the queue
// feeding the batcher and each per-peer sender queue. Overflow drops the
// oldest informs first (invalidates are preserved) and is counted in
// /metrics.
const hintQueueCap = 8192

// peerSender is the hint-update pipeline to one target: a bounded
// coalescing queue fed by hintLocator.flush and emptied by a drain goroutine
// that lives only while there is something to send. Because every target
// drains on its own goroutine, a slow or blackholed peer burns its retry
// budget there while the others deliver at full speed — the head-of-line
// blocking of a serial flush loop (one sick peer delaying every healthy
// peer behind it by up to the whole retry budget) stays a per-peer property.
type peerSender struct {
	target *peer

	q *pendq
	// dropped counts records this sender's queue bound discarded; depth
	// and drops surface per peer in /metrics.
	dropped atomic.Int64

	// mu guards idle: nil while no drain runs, else the channel the running
	// drain closes on its way out. The drain empties q under mu, so a share
	// enqueued after it found q empty finds idle nil and starts the next one.
	mu   sync.Mutex
	idle chan struct{}

	// scratch and recs belong to the running drain and are reused from one
	// to the next, so steady-state sending does not allocate per round.
	scratch []hintcache.Update
	recs    []byte
}

// enqueue folds a batch into the sender's queue (carrying the batch's
// oldest-enqueue stamp forward) and starts a drain unless one is running:
// that one will come to these records after what it is sending now.
func (s *peerSender) enqueue(l *hintLocator, batch []hintcache.Update, stampNs int64) {
	_, dropped := s.q.addBatch(batch, stampNs)
	if dropped > 0 {
		s.dropped.Add(int64(dropped))
		atomic.AddInt64(&l.n.stats.QueueDropped, int64(dropped))
	}
	s.mu.Lock()
	if s.idle == nil {
		s.idle = make(chan struct{})
		go s.drain(l)
	}
	s.mu.Unlock()
}

// wait blocks until no drain is running: everything enqueued before the
// call has been sent or abandoned.
func (s *peerSender) wait() {
	s.mu.Lock()
	idle := s.idle
	s.mu.Unlock()
	if idle != nil {
		<-idle
	}
}

// drain sends what is queued, one batch after another in enqueue order —
// records that arrive during a send coalesce into the next batch — and
// leaves when it finds the queue empty.
func (s *peerSender) drain(l *hintLocator) {
	for {
		var stampNs int64
		s.mu.Lock()
		s.scratch, stampNs = s.q.drain(s.scratch[:0])
		if len(s.scratch) == 0 {
			close(s.idle)
			s.idle = nil
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.recs = s.recs[:0]
		for _, u := range s.scratch {
			s.recs = hintcache.AppendUpdate(s.recs, u)
		}
		s.send(l, s.recs, len(s.scratch), stampNs)
	}
}

// send delivers one encoded batch as a hint call, retrying under jittered
// backoff (hint batches are idempotent — the table applies them by record).
// Failure past the retry budget abandons the batch for this target; the
// node's counters and the per-target fan-out histogram record the outcome.
func (s *peerSender) send(l *hintLocator, body []byte, records int, stampNs int64) {
	n := l.n
	start := time.Now()
	h := wire.PeerHeader{Op: wire.PeerHints, A: n.machineID, C: uint64(stampNs)}
	retries, err := n.backoffFor(s.target).Retry(context.Background(), 3, func() error {
		r, err := n.call(context.Background(), s.target, metadataTimeout, h, body)
		// A refusal is not an acknowledgement: count the attempt as failed.
		if err == nil && r.Status != http.StatusNoContent {
			err = fmt.Errorf("hint batch: status %d", r.Status)
		}
		return err
	})
	atomic.AddInt64(&n.stats.Retries, int64(retries))
	// Delivery outcomes double as liveness evidence: a target that burned
	// the whole retry budget counts one failed contact.
	l.contact(s.target, true, err == nil)
	if err != nil {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return
	}
	atomic.AddInt64(&n.stats.BatchesSent, 1)
	atomic.AddInt64(&n.stats.UpdatesSent, int64(records))
	atomic.AddInt64(l.wire, int64(len(body)))
	n.hist.fanout.Observe(time.Since(start))
}
