package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/wire"
)

// Digest support for the prototype: instead of exchanging exact 20-byte
// hint updates, nodes can periodically pull each other's cache digests (the
// Summary Cache / Squid Cache Digests scheme). The digest plane is
// incremental end to end:
//
//   - The node's own digest is a counting Bloom filter maintained in place
//     by publish on every residency transition — serving a pull never
//     walks the cache. Each transition is also journaled.
//   - Pullers present their journal cursor in the digest call; the owner
//     answers with just the membership ops past it (status 206) when the
//     journal still holds them and the delta is smaller than a full
//     snapshot, falling back to the full filter (status 200) otherwise.
//     Replaying ops is deterministic, so a delta-maintained peer copy is
//     byte-identical to the owner's filter — metadata bytes per round are
//     proportional to churn, not cache size.
//
// Locking: all digest state (own filter, resident set, journal, and on each
// peer record the copy, its cursor and its generation stamp) lives under the
// locator's mu. publish and delta application take it in write mode; probes
// and serves take it in read mode.

// digestBitsPerEntry sizes the filters.
const digestBitsPerEntry = 8

// digestLocator is the digest mechanism. It runs no hint plane: a
// residency transition touches the own filter and its journal, nothing is
// queued and nothing is pushed — peers pull.
type digestLocator struct {
	n *Node

	// mu guards everything below. The node's own digest is a counting
	// filter maintained incrementally: publish converts every cache
	// residency transition into an add/remove against own plus a journal
	// entry, so a digest serve never rebuilds from cache contents. ownPresent
	// is the exact resident set backing it — the dedup layer (refreshes of
	// an already-resident object are not transitions) and the rebuild
	// source when a counter saturates. mu also guards every peer record's
	// digest, cursor and digestGen (peers.go).
	mu         sync.RWMutex
	own        *digest.Counting
	ownPresent map[uint64]struct{}
	journal    *digest.Journal
}

// digestCapacity sizes each node's own filter in entries (a variable so
// tests can resize it).
var digestCapacity = 8192

// newDigestLocator sizes the own filter for digestCapacity entries. Digests
// replace the hint directory, so asking for a partitioned one
// (HintReplicas > 0) as well is a configuration error.
func newDigestLocator(n *Node, hintReplicas int) (*digestLocator, error) {
	if hintReplicas > 0 {
		return nil, fmt.Errorf("HintReplicas and UseDigests are mutually exclusive (digests already replace the hint directory)")
	}
	own, err := digest.NewCountingForCapacity(digestCapacity, digestBitsPerEntry)
	if err != nil {
		return nil, err
	}
	return &digestLocator{
		n:          n,
		own:        own,
		ownPresent: make(map[uint64]struct{}),
		journal:    digest.NewJournal(max(digestCapacity, 1024)),
	}, nil
}

// Peers are pulled from the node's own peer table, a filter bit cannot be
// retracted (a stale one ages out at the next pull), and the mechanism
// tracks no liveness and runs no goroutines of its own.
func (d *digestLocator) sync()                     {}
func (d *digestLocator) demote(_, _ uint64)        {}
func (d *digestLocator) contact(*peer, bool, bool) {}
func (d *digestLocator) collect() locatorGauges    { return locatorGauges{} }

// publish feeds one cache residency transition into the incremental digest
// plane. The exact resident set dedupes non-transitions (a version refresh
// of an already-resident object informs again without the object ever
// leaving), so the filter and the journal see each object enter and leave
// exactly once per actual transition. Counter saturation triggers an
// immediate rebuild from the exact set, which invalidates every outstanding
// delta cursor.
func (d *digestLocator) publish(urlHash uint64, present bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if present {
		if _, ok := d.ownPresent[urlHash]; ok {
			return
		}
		d.ownPresent[urlHash] = struct{}{}
		d.own.Add(urlHash)
		d.journal.Append(digest.Op{ID: urlHash})
	} else {
		if _, ok := d.ownPresent[urlHash]; !ok {
			return
		}
		delete(d.ownPresent, urlHash)
		d.own.Remove(urlHash)
		d.journal.Append(digest.Op{ID: urlHash, Remove: true})
	}
	if d.own.Unsound() {
		d.rebuildDigestLocked()
	}
}

// rebuildDigestLocked rebuilds the own digest from the exact resident set
// and invalidates the journal: every outstanding cursor now forces a full
// transfer. Called under mu in write mode. Map iteration order is
// nondeterministic, but saturating adds commute, so any order produces the
// same counters.
func (d *digestLocator) rebuildDigestLocked() {
	d.own.Reset()
	for id := range d.ownPresent {
		d.own.Add(id)
	}
	d.journal.Invalidate()
	atomic.AddInt64(&d.n.stats.DigestRebuilds, 1)
}

// digestSnapshot returns the full-snapshot encoding of the own digest plus
// the journal head it encodes (the puller's next delta cursor). A node
// serves one per peer per cursor loss, so each serve marshals afresh.
func (d *digestLocator) digestSnapshot() ([]byte, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	snap, _ := d.own.MarshalBinary()
	return snap, d.journal.Head()
}

// serveDigest serves the node's current contents summary as the answer's
// body — the membership ops past the puller's cursor (206) when it is still
// journaled and the delta is the smaller transfer, the full counting-filter
// snapshot (200) otherwise.
func (d *digestLocator) serveDigest(since uint64, resp *wire.PeerHeader) []byte {
	n := d.n
	start := time.Now()

	// The advertised cursor is captured under the same lock that encoded
	// the body: a head read taken afterwards could attribute ops journaled
	// during the gap to this response without delivering them, silently
	// diverging the puller's delta-maintained replica.
	var body []byte
	var head uint64
	var delta bool
	if since > 0 {
		body, head, delta = d.digestDelta(since)
	}
	if delta {
		resp.Status = http.StatusPartialContent
		atomic.AddInt64(&n.stats.DigestServesDelta, 1)
		atomic.AddInt64(&n.stats.DigestServeBytesDelta, int64(len(body)))
	} else {
		body, head = d.digestSnapshot()
		resp.Status = http.StatusOK
		atomic.AddInt64(&n.stats.DigestServesFull, 1)
		atomic.AddInt64(&n.stats.DigestServeBytesFull, int64(len(body)))
	}
	n.hist.digestServe.Observe(time.Since(start))

	// The answer is stamped with its wall clock so the puller can measure
	// how stale each pulled digest grows between exchanges (the digest twin
	// of the hint batch's stamp), and carries the journal cursor for the
	// puller's next delta request.
	resp.B, resp.C = head, uint64(time.Now().UnixNano())
	return body
}

// digestDelta encodes the membership ops since the given cursor, plus the
// journal head observed under the same lock (the cursor the serve must
// advertise — exactly the last op the body carries). ok is false — and the
// caller serves a full snapshot instead — when the cursor has aged out of
// the journal (counted as a cursor loss) or when the delta would not beat
// the full transfer.
func (d *digestLocator) digestDelta(since uint64) (ops []byte, head uint64, ok bool) {
	d.mu.RLock()
	ops, served := d.journal.AppendSince(nil, since)
	head = d.journal.Head()
	snapSize := int(d.own.SizeBytes())
	d.mu.RUnlock()
	if !served {
		atomic.AddInt64(&d.n.stats.DigestCursorLost, 1)
		return nil, 0, false
	}
	if len(ops) >= snapSize {
		// More churn than filter: the full snapshot is the cheaper
		// transfer. The cursor itself was fine — not a loss.
		return nil, 0, false
	}
	return ops, head, true
}

// digestBodyLimit bounds one pulled digest's wire size: call holds an
// answer's declared length to it before reading a byte.
const digestBodyLimit = 8 << 20

// round fetches every peer's digest now, waited or not: the batcher's
// periodic round has nothing else to do meanwhile. Each peer's pull runs on
// a goroutine of its own, as each hint sender does, so one round costs the
// slowest peer rather than the sum of all peers, and a sick peer burning
// its retry budget delays no other pull.
func (d *digestLocator) round(bool) {
	var wg sync.WaitGroup
	for _, p := range d.n.peerList() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.pullDigest(p)
		}()
	}
	wg.Wait()
}

// pullDigest fetches one peer's digest, retrying under jittered backoff (a
// pull is an idempotent read) before leaving the old digest stale until the
// next exchange. The request presents the cursor from the last exchange;
// the peer answers with either the ops since (applied in place) or a full
// snapshot (decoded into the existing filter's storage).
func (d *digestLocator) pullDigest(p *peer) {
	n := d.n
	// Snapshot the cursor for the request. A first pull sends none (no
	// filter to patch yet).
	d.mu.RLock()
	since := p.cursor
	d.mu.RUnlock()
	var genNs int64
	var cursor uint64
	var delta bool
	var body []byte
	retries, err := n.backoffFor(p).Retry(context.Background(), 3, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), metadataTimeout)
		defer cancel()
		r, err := n.call(ctx, p, wire.PeerHeader{Op: wire.PeerDigest, A: since}, nil)
		if err == nil && r.Status != http.StatusOK && r.Status != http.StatusPartialContent {
			err = fmt.Errorf("digest pull: status %d", r.Status)
		}
		if err != nil {
			return err
		}
		genNs, cursor = int64(r.C), r.B
		delta, body = r.Status == http.StatusPartialContent, r.body
		return nil
	})
	atomic.AddInt64(&n.stats.Retries, int64(retries))
	if err == nil {
		err = d.applyDigestResponse(p, delta, body, cursor)
	}
	if err != nil {
		atomic.AddInt64(&n.stats.SendErrors, 1)
		return
	}
	now := time.Now().UnixNano()
	if genNs == 0 {
		// Peer without a generation stamp: fall back to the pull time, so
		// staleness still measures the exchange interval.
		genNs = now
	}
	d.mu.Lock()
	prev := p.digestGen
	p.digestGen = genNs
	d.mu.Unlock()
	if prev != 0 {
		// The snapshot this pull replaces was generated at prev; it has
		// been the node's view of this peer ever since — that age is the
		// digest staleness the paper's summary-scheme tradeoff pays.
		p.digestStale.Observe(time.Duration(now - prev))
	}
	atomic.AddInt64(&n.stats.DigestsPulled, 1)
}

// applyDigestResponse installs one pulled digest on the peer's record: a
// full snapshot replaces (reusing the existing filter's storage when shapes
// match) and a delta patches in place. The peer's next-pull cursor advances
// either way.
func (d *digestLocator) applyDigestResponse(p *peer, delta bool, body []byte, cursor uint64) error {
	if !delta {
		d.mu.Lock()
		defer d.mu.Unlock()
		f := p.digest
		if f == nil {
			f = &digest.Counting{}
		}
		if err := f.UnmarshalBinary(body); err != nil {
			p.digest, p.cursor = nil, 0
			return err
		}
		p.digest, p.cursor = f, cursor
		return nil
	}
	ops, err := digest.AppendDecodedOps(nil, body)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.digest == nil {
		// A delta with no base to patch: the cursor is already 0, so the
		// next pull fetches a full snapshot.
		return fmt.Errorf("digest delta for unknown peer filter")
	}
	for _, op := range ops {
		p.digest.Apply(op)
	}
	p.cursor = cursor
	atomic.AddInt64(&d.n.stats.DigestDeltaOps, int64(len(ops)))
	return nil
}

// holder returns the first peer other than asker, in AddPeer order, whose
// digest claims the object.
func (d *digestLocator) holder(urlHash, asker uint64) (uint64, bool) {
	peers := d.n.peerList()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, p := range peers {
		if p.digest != nil && p.id != asker && p.digest.MayContain(urlHash) {
			return p.id, true
		}
	}
	return 0, false
}

// lookup probes that peer.
func (d *digestLocator) lookup(urlHash uint64) candidate {
	id, _ := d.holder(urlHash, 0)
	return candidate{peer: d.n.peerByID(id)}
}
