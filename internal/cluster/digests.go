package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/wire"
)

// Digest support for the prototype: instead of exchanging exact 20-byte
// hint updates, nodes can periodically pull each other's cache digests (the
// Summary Cache / Squid Cache Digests scheme). The digest plane is
// incremental end to end:
//
//   - The node's own digest is a counting Bloom filter maintained in place
//     by digestTrack on every residency transition — GET /digest never
//     walks the cache. Each transition is also journaled, and full
//     snapshots are served from a generation-stamped cached frame that is
//     only re-marshaled when the journal head has moved (concurrent scrape
//     stampedes coalesce onto one build via a singleflight).
//   - Pullers present their journal cursor as ?since=; the owner answers
//     with just the membership ops past it (KindDigestDelta) when the
//     journal still holds them and the delta is smaller than a full
//     snapshot, falling back to the full frame (KindDigestFull) otherwise.
//     Replaying ops is deterministic, so a delta-maintained peer copy is
//     byte-identical to the owner's filter — metadata bytes per round are
//     proportional to churn, not cache size.
//
// Locking: all digest state (own filter, resident set, journal, peer
// copies, cursors, snapshot cache) lives under digestMu. digestTrack and
// delta application take it in write mode; probes and cached-snapshot
// serves take it in read mode.

// wireCompressMin is the frame-compression threshold when
// NodeConfig.WireCompress is on: payloads below it ship raw.
const wireCompressMin = 256

// frameCompressMin resolves the node's compression threshold for metadata
// frames (0 disables compression in wire.AppendFrame).
func (n *Node) frameCompressMin() int {
	if n.cfg.WireCompress {
		return wireCompressMin
	}
	return 0
}

// digestTrack feeds one cache residency transition into the incremental
// digest plane. It is a no-op outside digest mode. The exact resident set
// dedupes non-transitions (a version refresh of an already-resident object
// informs again without the object ever leaving), so the filter and the
// journal see each object enter and leave exactly once per actual
// transition. Counter saturation triggers an immediate rebuild from the
// exact set, which invalidates every outstanding delta cursor.
func (n *Node) digestTrack(urlHash uint64, present bool) {
	if n.own == nil {
		return
	}
	n.digestMu.Lock()
	defer n.digestMu.Unlock()
	if present {
		if _, ok := n.ownPresent[urlHash]; ok {
			return
		}
		n.ownPresent[urlHash] = struct{}{}
		n.own.Add(urlHash)
		n.journal.Append(digest.Op{ID: urlHash})
	} else {
		if _, ok := n.ownPresent[urlHash]; !ok {
			return
		}
		delete(n.ownPresent, urlHash)
		n.own.Remove(urlHash)
		n.journal.Append(digest.Op{ID: urlHash, Remove: true})
	}
	if n.own.Unsound() {
		n.rebuildDigestLocked()
	}
}

// rebuildDigestLocked rebuilds the own digest from the exact resident set
// and invalidates the journal: every outstanding cursor now forces a full
// transfer. Called under digestMu in write mode. Map iteration order is
// nondeterministic, but saturating adds commute, so any order produces the
// same counters.
func (n *Node) rebuildDigestLocked() {
	n.own.Reset()
	for id := range n.ownPresent {
		n.own.Add(id)
	}
	n.journal.Invalidate()
	n.snapValid = false
	n.stats.digestRebuilds.Add(1)
}

// digestSnap is one generation-stamped snapshot frame: the cursor a serve
// advertises MUST be the generation the frame was encoded at, so the two
// travel together through the cache and the singleflight.
type digestSnap struct {
	frame []byte
	gen   uint64
}

// digestSnapshotFrame returns the framed full-snapshot encoding of the own
// digest plus the journal generation it encodes (the client's next delta
// cursor), rebuilding the cached frame only when the generation has moved.
// Concurrent callers coalesce onto one marshal. The returned slice is
// immutable: each build allocates a fresh frame, so a served reference
// stays valid across later rebuilds.
func (n *Node) digestSnapshotFrame() ([]byte, uint64) {
	n.digestMu.RLock()
	if n.snapValid && n.snapGen == n.journal.Head() {
		s := digestSnap{frame: n.snapFrame, gen: n.snapGen}
		n.digestMu.RUnlock()
		return s.frame, s.gen
	}
	n.digestMu.RUnlock()

	out, _ := n.digestFlight.do("snapshot", func() digestSnap {
		n.digestMu.RLock()
		if n.snapValid && n.snapGen == n.journal.Head() {
			// Another builder won between our check and the flight.
			s := digestSnap{frame: n.snapFrame, gen: n.snapGen}
			n.digestMu.RUnlock()
			return s
		}
		gen := n.journal.Head()
		payload := n.own.AppendBinary(make([]byte, 0, wire.HeaderSize+int(n.own.SizeBytes())+16))
		n.digestMu.RUnlock()

		n.snapBuilds.Add(1)
		frame := wire.AppendFrame(nil, wire.KindDigestFull, payload, n.frameCompressMin())

		n.digestMu.Lock()
		// A build raced with concurrent churn iff the head moved while we
		// marshaled; the stale frame is still internally consistent (it
		// matches generation gen), so cache it only if nothing newer
		// exists.
		if !n.snapValid || n.snapGen <= gen {
			n.snapGen = gen
			n.snapValid = true
			n.snapFrame = frame
		}
		n.digestMu.Unlock()
		return digestSnap{frame: frame, gen: gen}
	})
	return out.frame, out.gen
}

// handleDigest serves GET /digest: the node's current contents summary as
// one wire frame — a delta of membership ops when the client's ?since=
// cursor is still journaled and the delta is the smaller transfer, the
// full counting-filter snapshot otherwise.
func (n *Node) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if !n.cfg.UseDigests {
		http.Error(w, "digests disabled", http.StatusNotFound)
		return
	}
	start := time.Now()
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		var err error
		since, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since cursor", http.StatusBadRequest)
			return
		}
	}

	// The advertised cursor is captured under the same lock that encoded
	// the frame: a head read taken afterwards could attribute ops journaled
	// during the gap to this response without delivering them, silently
	// diverging the puller's delta-maintained replica.
	var frame []byte
	var head uint64
	var delta bool
	if since > 0 {
		frame, head, delta = n.digestDeltaFrame(since)
	}
	if !delta {
		frame, head = n.digestSnapshotFrame()
	}

	// Stamp the response with its generation sequence and wall clock so
	// the puller can measure how stale each pulled digest grows between
	// exchanges (the digest twin of the hint batch's X-Hint-Batch stamp),
	// plus the journal cursor for the puller's next delta request.
	stamp := hintcache.Stamp{Seq: n.digestSeq.Add(1), UnixNs: time.Now().UnixNano()}
	hdr := w.Header()
	hdr.Set(headerDigestGenerated, stamp.HeaderValue())
	hdr.Set(headerDigestCursor, strconv.FormatUint(head, 10))
	hdr.Set("Content-Type", "application/octet-stream")
	w.Write(frame)

	if delta {
		n.stats.digestServesDelta.Add(1)
		n.stats.digestServeBytesDelta.Add(int64(len(frame)))
	} else {
		n.stats.digestServesFull.Add(1)
		n.stats.digestServeBytesFull.Add(int64(len(frame)))
	}
	n.hist.digestServe.Observe(time.Since(start))
}

// digestDeltaBufPool recycles the op-payload scratch of delta serves.
var digestDeltaBufPool = sync.Pool{New: func() any { return new([]byte) }}

// digestDeltaFrame encodes the membership ops since the given cursor as a
// KindDigestDelta frame, plus the journal head observed under the same
// lock (the cursor the serve must advertise — exactly the last op the
// frame carries). ok is false — and the caller serves a full snapshot
// instead — when the cursor has aged out of the journal (counted as a
// cursor loss) or when the delta would not beat the full transfer.
func (n *Node) digestDeltaFrame(since uint64) (frame []byte, head uint64, ok bool) {
	bufp := digestDeltaBufPool.Get().(*[]byte)
	defer digestDeltaBufPool.Put(bufp)

	n.digestMu.RLock()
	ops, served := n.journal.AppendSince((*bufp)[:0], since)
	head = n.journal.Head()
	snapSize := int(n.own.SizeBytes())
	n.digestMu.RUnlock()
	*bufp = ops[:0]
	if !served {
		n.stats.digestCursorLost.Add(1)
		return nil, 0, false
	}
	if len(ops) >= snapSize {
		// More churn than filter: the full snapshot is the cheaper (and
		// cacheable) transfer. The cursor itself was fine — not a loss.
		return nil, 0, false
	}
	return wire.AppendFrame(nil, wire.KindDigestDelta, ops, n.frameCompressMin()), head, true
}

// digestBodyLimit bounds one pulled digest's wire size (stored frame and
// declared payload alike).
const digestBodyLimit = 8 << 20

// digestSource is one peer to pull a digest from.
type digestSource struct {
	id  uint64
	url string
}

// digestPullScratch is one worker's reusable buffers: the HTTP body, the
// inflate scratch, and the decoded-op slice. Reusing them across a
// worker's pulls keeps a round from allocating per peer.
type digestPullScratch struct {
	body    []byte
	payload []byte
	ops     []digest.Op
}

// PullDigests fetches every peer's digest now. The batcher calls it
// periodically in digest mode; tests call it directly. Pulls fan out over
// a bounded worker pool (NodeConfig.DigestWorkers), so one round costs
// roughly the slowest peer rather than the sum of all peers, and a sick
// peer burning its retry budget delays only the worker holding it.
func (n *Node) PullDigests() {
	n.peerMu.RLock()
	peers := make([]digestSource, 0, len(n.peers))
	for _, id := range n.peerOrder {
		peers = append(peers, digestSource{id: id, url: n.peers[id]})
	}
	n.peerMu.RUnlock()
	if len(peers) == 0 {
		return
	}

	workers := n.digestWorkers
	if workers > len(peers) {
		workers = len(peers)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch digestPullScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(peers) {
					return
				}
				n.pullDigest(peers[i], &scratch)
			}
		}()
	}
	wg.Wait()
}

// pullDigest fetches one peer's digest, retrying under jittered backoff (a
// pull is an idempotent read) before leaving the old digest stale until the
// next exchange. The request presents the cursor from the last exchange;
// the peer answers with either the ops since (applied in place) or a full
// snapshot (decoded into the existing filter's storage).
func (n *Node) pullDigest(p digestSource, scratch *digestPullScratch) {
	// Snapshot the cursor for the request. A first pull sends none (no
	// filter to patch yet).
	var since uint64
	n.digestMu.RLock()
	if _, ok := n.peerDigests[p.id]; ok {
		since = n.peerCursor[p.id]
	}
	n.digestMu.RUnlock()
	reqURL := p.url + "/digest"
	if since > 0 {
		reqURL += "?since=" + strconv.FormatUint(since, 10)
	}

	var genNs int64
	var cursor uint64
	var frame wire.Frame
	retries, err := n.backoff.Retry(context.Background(), 3, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), metadataTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, reqURL, nil)
		if err != nil {
			return err
		}
		resp, err := n.client.Do(req)
		if err != nil {
			return err
		}
		if st, ok := hintcache.ParseStamp(resp.Header.Get(headerDigestGenerated)); ok {
			genNs = st.UnixNs
		}
		cursor, _ = strconv.ParseUint(resp.Header.Get(headerDigestCursor), 10, 64)
		if resp.StatusCode != http.StatusOK {
			// Check the status before touching the body so an error
			// page is never slurped at full digest size; drain a token
			// amount for connection reuse and give up on this attempt.
			io.CopyN(io.Discard, resp.Body, 4<<10)
			resp.Body.Close()
			return fmt.Errorf("digest pull: status %d", resp.StatusCode)
		}
		scratch.body, err = wire.ReadAllInto(scratch.body[:0], io.LimitReader(resp.Body, digestBodyLimit))
		resp.Body.Close()
		if err != nil {
			return err
		}
		frame, _, err = wire.Decode(scratch.body)
		return err
	})
	n.stats.retries.Add(int64(retries))
	if err != nil {
		n.stats.sendErrors.Add(1)
		return
	}
	if frame.RawLen > digestBodyLimit {
		n.stats.sendErrors.Add(1)
		return
	}
	payload, err := frame.Payload(scratch.payload[:0])
	if err != nil {
		n.stats.sendErrors.Add(1)
		return
	}
	if frame.Compressed {
		scratch.payload = payload[:0]
	}
	if err := n.applyDigestResponse(p.id, frame.Kind, payload, cursor, scratch); err != nil {
		n.stats.sendErrors.Add(1)
		return
	}
	now := time.Now().UnixNano()
	if genNs == 0 {
		// Peer without a generation stamp: fall back to the pull time, so
		// staleness still measures the exchange interval.
		genNs = now
	}
	n.digestMu.Lock()
	prev := n.digestGen[p.id]
	n.digestGen[p.id] = genNs
	n.digestMu.Unlock()
	if prev != 0 {
		// The snapshot this pull replaces was generated at prev; it has
		// been the node's view of this peer ever since — that age is the
		// digest staleness the paper's summary-scheme tradeoff pays.
		n.digestStale.Observe(hostPortOf(p.url), time.Duration(now-prev))
	}
	n.stats.digestsPulled.Add(1)
}

// applyDigestResponse installs one pulled digest frame: a full snapshot
// replaces (reusing the existing filter's storage when shapes match) and a
// delta patches in place. The peer's next-pull cursor advances either way.
func (n *Node) applyDigestResponse(peerID uint64, kind wire.Kind, payload []byte, cursor uint64, scratch *digestPullScratch) error {
	switch kind {
	case wire.KindDigestFull:
		n.digestMu.Lock()
		defer n.digestMu.Unlock()
		f, ok := n.peerDigests[peerID]
		if !ok {
			f = &digest.Counting{}
			n.peerDigests[peerID] = f
		}
		if err := f.UnmarshalBinary(payload); err != nil {
			delete(n.peerDigests, peerID)
			delete(n.peerCursor, peerID)
			return err
		}
		n.peerCursor[peerID] = cursor
		return nil

	case wire.KindDigestDelta:
		ops, err := digest.AppendDecodedOps(scratch.ops[:0], payload)
		scratch.ops = ops[:0]
		if err != nil {
			return err
		}
		n.digestMu.Lock()
		defer n.digestMu.Unlock()
		f, ok := n.peerDigests[peerID]
		if !ok {
			// A delta with no base to patch: drop the cursor so the next
			// pull fetches a full snapshot.
			delete(n.peerCursor, peerID)
			return fmt.Errorf("digest delta for unknown peer filter")
		}
		for _, op := range ops {
			f.Apply(op)
		}
		n.peerCursor[peerID] = cursor
		n.stats.digestDeltaOps.Add(int64(len(ops)))
		return nil

	default:
		return fmt.Errorf("unexpected digest frame kind %s", kind)
	}
}

// digestPeer returns the base URL of the first peer whose digest claims the
// object, or "" if none does.
func (n *Node) digestPeer(urlHash uint64) string {
	n.peerMu.RLock()
	order := make([]uint64, len(n.peerOrder))
	copy(order, n.peerOrder)
	n.peerMu.RUnlock()

	var found uint64
	n.digestMu.RLock()
	for _, id := range order {
		if f, ok := n.peerDigests[id]; ok && f.MayContain(urlHash) {
			found = id
			break
		}
	}
	n.digestMu.RUnlock()
	if found == 0 {
		return ""
	}
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peers[found]
}

// validateDigestConfig applies digest-mode defaults.
func validateDigestConfig(cfg *NodeConfig) error {
	if !cfg.UseDigests {
		return nil
	}
	if cfg.DigestCapacity <= 0 {
		cfg.DigestCapacity = 8192
	}
	if cfg.DigestBitsPerEntry <= 0 {
		cfg.DigestBitsPerEntry = 8
	}
	if cfg.DigestBitsPerEntry > 64 {
		return fmt.Errorf("cluster: digest bits/entry %g implausibly large", cfg.DigestBitsPerEntry)
	}
	return nil
}
