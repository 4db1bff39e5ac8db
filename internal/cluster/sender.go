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

// hintPlane is the broadcast locator, the paper's own mechanism: every
// residency transition becomes an exact 20-byte hint record, each round
// sends the coalesced records to every peer, and a miss consults the local
// hint table and nothing else. It owns the pending queue and the per-peer
// senders; the partitioned locator (members.go) embeds it and routes the
// same records to owner sets instead.
type hintPlane struct {
	n *Node
	// pend is the bounded coalescing queue of hint updates awaiting the
	// next round (at most one record per machine's copy; see pendq).
	pend *pendq
	// wire counts the frame bytes delivered: Stats.WireHintBytes, or
	// WireHintBytesPartitioned when the records are routed, so the two
	// mechanisms' wire costs stay separately comparable.
	wire *atomic.Int64

	// mu guards every peer record's sender: one running peerSender per
	// peer, started by the first round that sees the peer.
	mu sync.Mutex
}

func newHintPlane(n *Node, wire *atomic.Int64) *hintPlane {
	return &hintPlane{n: n, pend: newPendq(hintQueueCap), wire: wire}
}

func (p *hintPlane) sync() {}

// directory consults the local hint table: the most recent holder on
// record other than this node (which has just missed in both tiers, so a
// record naming it is stale), and whether there was one.
func (p *hintPlane) directory(h uint64) (candidate, bool) {
	machine, ok := p.n.hints.LookupExcept(h, p.n.machineID)
	if !ok {
		return candidate{}, false
	}
	return candidate{peer: p.n.peerByID(machine)}, true
}

// lookup: with the whole directory replicated here, no record means no
// copy — straight to the origin.
func (p *hintPlane) lookup(h uint64) candidate {
	c, _ := p.directory(h)
	return c
}

func (p *hintPlane) holder(h, asker uint64) (uint64, bool) { return p.n.hints.LookupExcept(h, asker) }

func (p *hintPlane) publish(h uint64, present bool) {
	action := hintcache.ActionInvalidate
	if present {
		action = hintcache.ActionInform
	}
	p.enqueue(hintcache.Update{Action: action, URLHash: h, Machine: p.n.machineID})
}

// enqueue folds one update into the pending queue, counting coalesces and
// bound-overflow drops.
func (p *hintPlane) enqueue(u hintcache.Update) {
	coalesced, dropped := p.pend.add(u)
	if coalesced {
		p.n.stats.coalesced.Add(1)
	}
	if dropped {
		p.n.stats.pendingDropped.Add(1)
	}
}

// demote drops the record naming the holder that was probed; another
// holder's record for the same object stays.
func (p *hintPlane) demote(h, holder uint64) { p.n.hints.Delete(h, holder) }

func (p *hintPlane) contact(*peer, bool) {}

// round sends every pending record to every peer.
func (p *hintPlane) round(wait bool) { p.flush(wait, nil) }

// flush drains the pending queue and hands each sender its share of the
// batch: all of it, or what route (records by target) assigns it.
// Every sender contributes a generation to the round's barrier — with
// nothing to enqueue, the one it already had in flight — so a waited flush
// returns only once each target's sender has delivered or abandoned its
// share; tests rely on that to avoid sleeping. The periodic round hands
// over without waiting — a target burning its retry budget never delays
// the next round, so healthy peers keep receiving hints at the configured
// interval. The fan-out is concurrent, one sender per target, so a round
// costs the slowest target, not the sum; rounds that send something are
// timed into the flush histogram (empty rounds would swamp it with no-ops).
func (p *hintPlane) flush(wait bool, route func([]hintcache.Update) map[*peer][]hintcache.Update) {
	start := time.Now()
	batch, stampNs := p.pend.drain(nil)
	var routed map[*peer][]hintcache.Update
	if route != nil {
		routed = route(batch)
	}
	peers := p.n.peerList()
	targets := make([]*peerSender, len(peers))
	p.mu.Lock()
	for i, peer := range peers {
		if peer.sender == nil {
			peer.sender = newPeerSender(p, peer)
		}
		targets[i] = peer.sender
	}
	p.mu.Unlock()
	seqs := make([]int64, len(targets))
	for i, s := range targets {
		share := batch
		if route != nil {
			share = routed[s.target]
		}
		if len(share) > 0 {
			seqs[i] = s.enqueue(share, stampNs)
		} else {
			seqs[i] = s.currentSeq()
		}
	}
	timed := len(batch) > 0 && len(targets) > 0
	await := func() {
		for i, s := range targets {
			s.wait(seqs[i])
		}
		if timed {
			p.n.hist.flush.Observe(time.Since(start))
		}
	}
	if wait {
		await()
	} else if timed {
		go await()
	}
}

func (p *hintPlane) serveDigest(_ uint64, resp *wire.PeerHeader) []byte {
	resp.Status = http.StatusNotFound
	return nil
}

func (p *hintPlane) collect() locatorGauges { return locatorGauges{pending: p.pend.len()} }

// started returns the peer's sender, nil before its first round.
func (p *hintPlane) started(peer *peer) *peerSender {
	p.mu.Lock()
	defer p.mu.Unlock()
	return peer.sender
}

func (p *hintPlane) queued(peer *peer) (depth int, dropped int64) {
	if s := p.started(peer); s != nil {
		depth, dropped = s.q.len(), s.dropped.Load()
	}
	return depth, dropped
}

// close stops the per-peer senders. The batcher's final waited round has
// completed by now; anything still queued on a failing target has already
// burned its retry budget.
func (p *hintPlane) close() {
	for _, peer := range p.n.peerList() {
		if s := p.started(peer); s != nil {
			s.shutdown()
		}
	}
}

// peerSender owns the hint-update pipeline to one target: a bounded
// coalescing queue fed by hintPlane.flush, drained by a dedicated goroutine that
// encodes and sends batches under the per-attempt metadata timeout with
// jittered backoff retries. Because every target has its own sender, a slow
// or blackholed peer burns its retry budget on its own goroutine while the
// other senders deliver at full speed — the serial flush loop's
// head-of-line blocking (one sick peer delaying every healthy peer behind
// it by up to the whole retry budget) becomes a per-peer property.
//
// Generations make the asynchronous pipeline awaitable: enqueue stamps the
// queue with a new seq, the loop records done = the seq it observed before
// draining, and wait blocks until done catches up.
type peerSender struct {
	p      *hintPlane
	target *peer

	q *pendq
	// dropped counts records this sender's queue bound discarded; depth
	// and drops surface per peer in /metrics.
	dropped atomic.Int64
	// batchSeq numbers the batches actually sent to this target; it rides
	// the hint call's stamp so the receiver can see delivery gaps.
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
func newPeerSender(p *hintPlane, target *peer) *peerSender {
	s := &peerSender{
		p:      p,
		target: target,
		q:      newPendq(hintQueueCap),
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
		s.p.n.stats.queueDropped.Add(int64(dropped))
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
// abandoned (Close runs a final waited round before shutting senders down,
// so anything queued in normal operation has already been attempted).
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
				frame = wire.AppendFrame(frame[:0], wire.KindHintBatch, recs, s.p.n.frameCompressMin())
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

// send delivers one encoded batch as a hint call, retrying under jittered
// backoff (hint batches are idempotent — the table applies them by record).
// Failure past the retry budget abandons the batch for this target, exactly
// as the serial flush did; the node's counters and the per-target fan-out
// histogram record the outcome.
func (s *peerSender) send(body []byte, records int, stampNs int64) {
	n := s.p.n
	start := time.Now()
	h := wire.PeerHeader{Op: wire.PeerHints, A: n.machineID, C: uint64(stampNs)}
	if stampNs > 0 {
		h.B = uint64(s.batchSeq.Add(1))
	}
	retries, err := n.backoff.Retry(context.Background(), 3, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), metadataTimeout)
		defer cancel()
		r, err := n.call(ctx, s.target, h, body)
		// A refusal is not an acknowledgement: count the attempt as failed.
		if err == nil && r.Status != http.StatusNoContent {
			err = fmt.Errorf("hint batch: status %d", r.Status)
		}
		return err
	})
	n.stats.retries.Add(int64(retries))
	// Delivery outcomes double as liveness evidence: a target that burned
	// the whole retry budget counts one failed contact.
	n.loc.contact(s.target, err == nil)
	if err != nil {
		n.stats.sendErrors.Add(1)
		return
	}
	n.stats.batchesSent.Add(1)
	n.stats.updatesSent.Add(int64(records))
	s.p.wire.Add(int64(len(body)))
	n.hist.fanout.Observe(time.Since(start))
}
