package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/wire"
)

// peerSender owns the hint-update pipeline to one target: a bounded
// coalescing queue fed by distribute, drained by a dedicated goroutine that
// encodes and POSTs batches under the per-attempt metadata timeout with
// jittered backoff retries. Because every target has its own sender, a slow
// or blackholed peer burns its retry budget on its own goroutine while the
// other senders deliver at full speed — the serial flush loop's
// head-of-line blocking (one sick peer delaying every healthy peer behind
// it by up to the whole retry budget) becomes a per-peer property.
//
// Generations make the asynchronous pipeline awaitable: enqueue stamps the
// queue with a new seq, the loop records done = the seq it observed before
// draining, and wait blocks until done catches up. Flush distributes a
// batch and waits on every sender, so the synchronous contract tests rely
// on (delivery attempted before Flush returns) survives the rebuild.
type peerSender struct {
	n      *Node
	target string // base URL

	q *pendq
	// dropped counts records this sender's queue bound discarded; depth
	// and drops surface per peer in /metrics.
	dropped atomic.Int64
	// batchSeq numbers the batches actually sent to this target; it rides
	// the X-Hint-Batch stamp so the receiver can see delivery gaps.
	batchSeq atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	seq     int64 // generation of the newest enqueued work
	done    int64 // generation the loop has finished (sent or abandoned)
	stopped bool

	notify chan struct{}
	stop   chan struct{}
	exited chan struct{}
}

// newPeerSender builds and starts a sender for one target.
func newPeerSender(n *Node, target string, queueCap int) *peerSender {
	s := &peerSender{
		n:      n,
		target: target,
		q:      newPendq(queueCap),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// enqueue folds a batch into the sender's queue (carrying the batch's
// oldest-enqueue stamp forward) and returns the generation to wait on for
// its delivery.
func (s *peerSender) enqueue(batch []hintcache.Update, stampNs int64) int64 {
	_, dropped := s.q.addBatch(batch, stampNs)
	if dropped > 0 {
		s.dropped.Add(int64(dropped))
		s.n.stats.queueDropped.Add(int64(dropped))
	}
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return seq
}

// currentSeq returns the newest generation without enqueueing anything —
// what an empty flush waits on to act as a delivery barrier.
func (s *peerSender) currentSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// wait blocks until generation seq has been sent or abandoned (or the
// sender is stopped).
func (s *peerSender) wait(seq int64) {
	s.mu.Lock()
	for s.done < seq && !s.stopped {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// shutdown stops the loop and waits for it to exit. Pending records are
// abandoned (Close runs a final synchronous flush before shutting senders
// down, so anything queued in normal operation has already been attempted).
func (s *peerSender) shutdown() {
	close(s.stop)
	<-s.exited
}

// loop drains and sends until stopped. The scratch batch and wire buffer
// are loop-owned and reused across rounds, so steady-state sending does not
// allocate per round.
func (s *peerSender) loop() {
	defer func() {
		s.mu.Lock()
		s.stopped = true
		s.cond.Broadcast()
		s.mu.Unlock()
		close(s.exited)
	}()
	var scratch []hintcache.Update
	var recs, frame []byte
	for {
		select {
		case <-s.stop:
			return
		case <-s.notify:
		}
		for {
			s.mu.Lock()
			target := s.seq
			s.mu.Unlock()
			var stampNs int64
			scratch, stampNs = s.q.drain(scratch[:0])
			if len(scratch) > 0 {
				recs = recs[:0]
				for _, u := range scratch {
					recs = hintcache.AppendUpdate(recs, u)
				}
				// One frame per batch: the records ride as a KindHintBatch
				// payload, optionally flate-compressed past the threshold.
				frame = wire.AppendFrame(frame[:0], wire.KindHintBatch, recs, s.n.frameCompressMin())
				s.send(frame, len(scratch), stampNs)
			}
			s.mu.Lock()
			if s.done < target {
				s.done = target
			}
			more := s.seq > s.done
			s.cond.Broadcast()
			s.mu.Unlock()
			if !more {
				break
			}
		}
	}
}

// send POSTs one encoded batch, retrying under jittered backoff (hint
// batches are idempotent — the table applies them by record). Failure past
// the retry budget abandons the batch for this target, exactly as the
// serial flush did; the node's counters and the per-target fan-out
// histogram record the outcome.
func (s *peerSender) send(body []byte, records int, stampNs int64) {
	n := s.n
	start := time.Now()
	stamp := ""
	if stampNs > 0 {
		stamp = hintcache.Stamp{Seq: s.batchSeq.Add(1), UnixNs: stampNs}.HeaderValue()
	}
	retries, err := n.backoff.Retry(context.Background(), 3, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), metadataTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/updates", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(headerHintSender, n.URL())
		if stamp != "" {
			req.Header.Set(headerHintBatch, stamp)
		}
		resp, err := n.client.Do(req)
		if err != nil {
			return err
		}
		// An error page is not an acknowledgement: drain a token amount
		// for connection reuse and count the attempt as failed.
		io.CopyN(io.Discard, resp.Body, 4<<10)
		resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return fmt.Errorf("hint batch: status %d", resp.StatusCode)
		}
		return nil
	})
	n.stats.retries.Add(int64(retries))
	// Delivery outcomes double as membership liveness evidence in
	// partition mode (noteSendOutcome is a no-op otherwise): a target that
	// burned the whole retry budget counts one failed contact.
	n.noteSendOutcome(s.target, err == nil)
	if err != nil {
		n.stats.sendErrors.Add(1)
		return
	}
	n.stats.batchesSent.Add(1)
	n.stats.updatesSent.Add(int64(records))
	if n.partitioned() {
		n.stats.wireHintBytesPart.Add(int64(len(body)))
	} else {
		n.stats.wireHintBytes.Add(int64(len(body)))
	}
	n.hist.fanout.Observe(time.Since(start))
}
