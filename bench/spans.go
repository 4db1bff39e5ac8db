package main

import (
	"strings"
	"time"

	"beyondcache/internal/obs"
)

// class is the outcome class of a fetch, from its X-Cache header.
type class uint8

const (
	classLocal  class = iota // LOCAL and "LOCAL,COALESCED": served from memory
	classDisk                // LOCAL-DISK
	classRemote              // REMOTE
	classMiss                // MISS, "MISS,HEDGE", "MISS,STALE-HINT"
	numClasses
)

var classNames = [numClasses]string{"local", "disk", "remote", "miss"}

func classOf(xcache string) class {
	switch {
	case xcache == "LOCAL-DISK":
		return classDisk
	case strings.HasPrefix(xcache, "LOCAL"):
		return classLocal
	case xcache == "REMOTE":
		return classRemote
	default:
		return classMiss
	}
}

// breakdown is the self-time split of one fetch, derived from outside the
// program: the client's own span plus the X-Trace hop chain the node
// returned. The span tree is
//
//	CLIENT ⊃ node hop ⊃ { HINT-HOME, PEER ⊃ PEER-SERVE, ORIGIN ⊃ ORIGIN-SERVE,
//	                      PEER-REJECT, PEER-ABANDON, ... }
//
// and a span's self time is its duration minus its children's, clamped at 0
// because a hedged chain's children overlap (the abandoned peer probe runs
// beside the origin fetch that won).
type breakdown struct {
	// TransportSelf is client span minus node hop: client and server
	// net/http, loopback, scheduler wake-ups.
	TransportSelf time.Duration
	// NodeSelf is the node hop minus every upstream round trip it waited on.
	NodeSelf time.Duration
	// Upstream is the time the node hop's children cover.
	Upstream time.Duration

	// Round trips and the self-reports nested in them; 0 when the chain has
	// none. HintHome covers both HINT-HOME and HINT-HOME-MISS consults.
	PeerHop, PeerServe     time.Duration
	OriginHop, OriginServe time.Duration
	HintHome               time.Duration
}

// selfTimes splits one fetch. spans is obs.SpansFromHops over the chain
// (root = the node's terminal hop), so nesting follows the fleet's own rule:
// a *-SERVE self-report is a child of the round trip that follows it.
func selfTimes(client time.Duration, spans []obs.Span) breakdown {
	var b breakdown
	if len(spans) == 0 {
		b.TransportSelf = client
		return b
	}
	root := spans[0]
	b.TransportSelf = clampDur(client - root.Duration)
	var children time.Duration
	for _, s := range spans[1:] {
		if s.Parent == 0 {
			children += s.Duration
		}
		switch s.Outcome {
		case "PEER":
			b.PeerHop = s.Duration
		case "PEER-SERVE":
			b.PeerServe = s.Duration
		case "ORIGIN":
			b.OriginHop = s.Duration
		case "ORIGIN-SERVE":
			b.OriginServe = s.Duration
		case "HINT-HOME", "HINT-HOME-MISS":
			b.HintHome = s.Duration
		}
	}
	b.NodeSelf = clampDur(root.Duration - children)
	b.Upstream = root.Duration - b.NodeSelf
	return b
}

func clampDur(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// The self-time series a tracer keeps per outcome class ...
const (
	partTotal = iota
	partTransport
	partNode
	partUpstream
	numParts
)

// ... and per upstream hop kind, with the metric each median is reported as.
const (
	hopPeer = iota
	hopPeerServe
	hopPeerTransport
	hopOrigin
	hopOriginServe
	hopHintHome
	numHops
)

var hopMetrics = [numHops]string{
	"cluster.peer_hop_us", "cluster.peer_serve_us", "cluster.peer_transport_self_us",
	"cluster.origin_hop_us", "cluster.origin_serve_us", "overlay.hinthome_hop_us",
}

// tracer is one client's span recorder for the traced run. Spans stay in
// memory until the run ends; the self-time samples are what the per-layer
// medians are taken over.
type tracer struct {
	client string
	spans  []obs.Span
	parts  [numClasses][numParts][]int64
	hops   [numHops][]int64
}

// record files one fetch: the CLIENT span, the node's span group re-parented
// under it, and the fetch's self-time split.
func (t *tracer) record(seq uint64, cls class, start, elapsed time.Duration, xtrace string) {
	chain := obs.ParseHops(xtrace)
	if len(chain) == 0 {
		return
	}
	group := obs.SpansFromHops(seq, chain[:len(chain)-1], chain[len(chain)-1])
	t.spans = append(t.spans, obs.Span{
		TraceID: seq, Index: 0, Parent: obs.SpanRoot,
		Node: t.client, Outcome: "CLIENT", Start: start, Duration: elapsed,
	})
	for _, s := range group {
		// Shift the group down one slot: the node's root hangs off CLIENT.
		if s.Parent == obs.SpanRoot {
			s.Parent = 0
		} else {
			s.Parent++
		}
		s.Index++
		t.spans = append(t.spans, s)
	}

	b := selfTimes(elapsed, group)
	p := &t.parts[cls]
	p[partTotal] = append(p[partTotal], int64(elapsed))
	p[partTransport] = append(p[partTransport], int64(b.TransportSelf))
	p[partNode] = append(p[partNode], int64(b.NodeSelf))
	p[partUpstream] = append(p[partUpstream], int64(b.Upstream))
	if b.PeerHop > 0 {
		t.hops[hopPeer] = append(t.hops[hopPeer], int64(b.PeerHop))
		t.hops[hopPeerServe] = append(t.hops[hopPeerServe], int64(b.PeerServe))
		t.hops[hopPeerTransport] = append(t.hops[hopPeerTransport], int64(clampDur(b.PeerHop-b.PeerServe)))
	}
	if b.OriginHop > 0 {
		t.hops[hopOrigin] = append(t.hops[hopOrigin], int64(b.OriginHop))
		t.hops[hopOriginServe] = append(t.hops[hopOriginServe], int64(b.OriginServe))
	}
	if b.HintHome > 0 {
		t.hops[hopHintHome] = append(t.hops[hopHintHome], int64(b.HintHome))
	}
}

// merge appends o's spans and samples onto t.
func (t *tracer) merge(o *tracer) {
	t.spans = append(t.spans, o.spans...)
	for c := range t.parts {
		for p := range t.parts[c] {
			t.parts[c][p] = append(t.parts[c][p], o.parts[c][p]...)
		}
	}
	for h := range t.hops {
		t.hops[h] = append(t.hops[h], o.hops[h]...)
	}
}
