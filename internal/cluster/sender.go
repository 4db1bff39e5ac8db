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
// hint table and nothing else. It owns the pending queue and drives the
// senders on the peer records; the partitioned locator (members.go) embeds
// it and routes the same records to owner sets instead.
type hintPlane struct {
	n *Node
	// pend is the bounded coalescing queue of hint updates awaiting the
	// next round (at most one record per machine's copy; see pendq).
	pend *pendq
	// wire counts the frame bytes delivered: Stats.WireHintBytes, or
	// WireHintBytesPartitioned when the records are routed, so the two
	// mechanisms' wire costs stay separately comparable.
	wire *atomic.Int64
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

// flush drains the pending queue and hands each peer's sender its share of
// the batch: all of it, or what route (records by target) assigns it. A
// waited flush then returns only once every sender has gone idle, so each
// target's share, and anything an earlier round left in flight, has been
// delivered or abandoned; tests rely on that to avoid sleeping. The periodic
// round hands over without waiting — a target burning its retry budget
// never delays the next round, so healthy peers keep receiving hints at the
// configured interval. The fan-out is concurrent, one drain per target, so a
// round costs the slowest target, not the sum; rounds that send something
// are timed into the flush histogram (empty rounds would swamp it with
// no-ops), up to the moment the senders are idle again.
func (p *hintPlane) flush(wait bool, route func([]hintcache.Update) map[*peer][]hintcache.Update) {
	start := time.Now()
	batch, stampNs := p.pend.drain(nil)
	var routed map[*peer][]hintcache.Update
	if route != nil {
		routed = route(batch)
	}
	peers := p.n.peerList()
	for _, target := range peers {
		share := batch
		if route != nil {
			share = routed[target]
		}
		if len(share) > 0 {
			target.sender.enqueue(p, share, stampNs)
		}
	}
	timed := len(batch) > 0 && len(peers) > 0
	await := func() {
		for _, target := range peers {
			target.sender.wait()
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

// peerSender is the hint-update pipeline to one target: a bounded
// coalescing queue fed by hintPlane.flush and emptied by a drain goroutine
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
	// batchSeq numbers the batches actually sent to this target; it rides
	// the hint call's stamp so the receiver can see delivery gaps.
	batchSeq atomic.Int64

	// mu guards idle: nil while no drain runs, else the channel the running
	// drain closes on its way out. The drain empties q under mu, so a share
	// enqueued after it found q empty finds idle nil and starts the next one.
	mu   sync.Mutex
	idle chan struct{}

	// scratch, recs and frame belong to the running drain and are reused
	// from one to the next, so steady-state sending does not allocate per
	// round.
	scratch     []hintcache.Update
	recs, frame []byte
}

// enqueue folds a batch into the sender's queue (carrying the batch's
// oldest-enqueue stamp forward) and starts a drain unless one is running:
// that one will come to these records after what it is sending now.
func (s *peerSender) enqueue(p *hintPlane, batch []hintcache.Update, stampNs int64) {
	_, dropped := s.q.addBatch(batch, stampNs)
	if dropped > 0 {
		s.dropped.Add(int64(dropped))
		p.n.stats.queueDropped.Add(int64(dropped))
	}
	s.mu.Lock()
	if s.idle == nil {
		s.idle = make(chan struct{})
		go s.drain(p)
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
func (s *peerSender) drain(p *hintPlane) {
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
		// One frame per batch: the records ride as a KindHintBatch payload,
		// optionally flate-compressed past the threshold.
		s.frame = wire.AppendFrame(s.frame[:0], wire.KindHintBatch, s.recs, p.n.frameCompressMin())
		s.send(p, s.frame, len(s.scratch), stampNs)
	}
}

// send delivers one encoded batch as a hint call, retrying under jittered
// backoff (hint batches are idempotent — the table applies them by record).
// Failure past the retry budget abandons the batch for this target; the
// node's counters and the per-target fan-out histogram record the outcome.
func (s *peerSender) send(p *hintPlane, body []byte, records int, stampNs int64) {
	n := p.n
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
	p.wire.Add(int64(len(body)))
	n.hist.fanout.Observe(time.Since(start))
}
