package cluster

import (
	"context"
	"sync"
	"time"

	"beyondcache/internal/digest"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/resilience"
)

// peer is everything the node keeps about one other node: built whole by
// AddPeer, found by machine ID in the hint table's answer, and passed by
// pointer from there on. The identity fields, the breaker and the two
// histograms (lock-free) never change; each of the rest is guarded by the
// mutex of the code that owns it.
type peer struct {
	id   uint64 // hintcache.HashMachine(host)
	url  string // as given to AddPeer: the address its overlay entry carries
	host string // dial address, outbound-fault target, hop and metric label
	br   *resilience.Breaker

	// backoff paces metadata-path retries to the peer (backoffFor), built
	// on first use: its seed needs this node's machine ID, fixed in boot.
	backoffOnce sync.Once
	backoff     *resilience.Backoff

	// hintLag is how old each hint batch from the peer was on arrival (its
	// oldest record's enqueue stamp against this node's clock); digestStale
	// how stale each digest pulled from it had grown when its replacement
	// arrived. /metrics labels them by host and merges them into each
	// family's aggregate.
	hintLag     *obs.Histogram
	digestStale *obs.Histogram

	// link is the peer's idle set (its slice guarded by plane.mu) and how to
	// dial it: a call leases a connection from it.
	link link

	// sender is the hint locator's pipeline to the peer (sender.go): never
	// nil, idle until a round feeds it. Its queue and counters lock
	// themselves; the rest of it is under sender.mu.
	sender *peerSender

	// fails counts consecutive failed contacts and contact is the sync
	// round of the last good one. Guarded by the hint locator's
	// membership.mu.
	fails   int
	contact uint64

	// digest is this node's copy of the peer's cache digest (nil before the
	// first pull), cursor the journal cursor to present on the next pull (0
	// whenever digest is nil: ask for a full snapshot) and digestGen the
	// wall clock at which the peer generated that copy. Guarded by
	// digestLocator.mu.
	digest    *digest.Counting
	cursor    uint64
	digestGen int64
}

// AddPeer registers a peer node by base URL ("http://host:port"): the
// locator exchanges metadata with every peer in this table, and machine IDs
// naming one resolve through it. An address already registered, under
// either spelling, is left as it is.
func (n *Node) AddPeer(baseURL string) {
	host := hostPortOf(baseURL)
	id := hintcache.HashMachine(host)
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if n.byID[id] != nil {
		return
	}
	// The breaker is made here so /metrics exposes its state from the first
	// scrape, not the first failure.
	p := &peer{
		id: id, url: baseURL, host: host, br: resilience.NewBreaker(n.breakerCfg),
		hintLag: obs.NewHistogram(nil), digestStale: obs.NewHistogram(nil),
	}
	p.link = link{set: &n.plane.connSet, dial: func(ctx context.Context) (*upConn, error) {
		return dialPeer(ctx, n.nw, host)
	}}
	p.sender = &peerSender{target: p, q: newPendq(hintQueueCap)}
	n.peers = append(n.peers, p)
	n.byID[id] = p
}

// backoffFor is p's retry backoff, seeded from both machine IDs. Each peer
// draws its own sequence: calls retried to several peers at one instant
// never share a source, so which retry waits how long does not depend on
// which goroutine ran first.
func (n *Node) backoffFor(p *peer) *resilience.Backoff {
	p.backoffOnce.Do(func() {
		p.backoff = resilience.NewBackoff(25*time.Millisecond, 200*time.Millisecond, 2, int64(n.machineID^p.id)+1)
	})
	return p.backoff
}

// peerByID resolves a machine ID to its record (nil when unknown).
func (n *Node) peerByID(machine uint64) *peer {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.byID[machine]
}

// peerList snapshots the peer table in AddPeer order. The table only
// grows, so the slice is shared, not copied.
func (n *Node) peerList() []*peer {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peers
}
