package cluster

import (
	"beyondcache/internal/hintcache"
	"beyondcache/internal/resilience"
)

// peer is everything the node keeps about one other node: built once by
// AddPeer, found by machine ID in the hint table's answer, and passed by
// pointer from there on. The identity fields and the breaker never change;
// each of the rest is guarded by the mutex of the code that owns it.
type peer struct {
	id   uint64 // hintcache.HashMachine(host)
	url  string // as given to AddPeer: the key Breakers reports
	host string // dial address, outbound-fault target, hop and metric label
	br   *resilience.Breaker

	// conn is the dialed connection (plane.mu); it may be dead, until
	// redialed. sender is the hint locators' pipeline to the peer, started
	// by the first round that sees it (hintPlane.mu). fails counts
	// consecutive failed contacts and contact is the sync round of the last
	// good one (the partitioned locator's membership.mu).
	conn    *peerConn
	sender  *peerSender
	fails   int
	contact uint64
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
	p := &peer{id: id, url: baseURL, host: host, br: resilience.NewBreaker(n.breakerCfg)}
	n.peers = append(n.peers, p)
	n.byID[id] = p
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

// Breakers snapshots every per-peer circuit breaker, keyed by peer base
// URL.
func (n *Node) Breakers() map[string]resilience.BreakerStats {
	peers := n.peerList()
	out := make(map[string]resilience.BreakerStats, len(peers))
	for _, p := range peers {
		out[p.url] = p.br.Stats()
	}
	return out
}
