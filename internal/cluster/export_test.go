//go:build goexperiment.synctest

package cluster

import (
	"time"

	"beyondcache/internal/obs"
)

// StartMemFleet is StartFleet on a fresh in-memory network (sim_test.go),
// for the external tests that run a fleet inside a synctest bubble. wired
// reads the bytes written on the network so far.
func StartMemFleet(cfg FleetConfig) (f *Fleet, wired func() int64, err error) {
	m := newMemNet()
	f, err = startFleetOn(cfg, m.network())
	return f, m.wired.Load, err
}

// HintEntries is the size of every node's hint table, 4-way, for the
// oracle's simulator to bound its own by.
const HintEntries = hintEntries

// UpdateGolden is the -update flag, for the external tests' goldens.
var UpdateGolden = updateGolden

// HedgePoint is how long n lets a peer leg stay silent before it races the
// origin beside it.
func (n *Node) HedgePoint() time.Duration { return time.Duration(n.hedgeAt.Load()) }

// ViewVersion is the version of the membership view n routes hints by.
func (n *Node) ViewVersion() uint64 { return n.loc.(*hintLocator).overlay.View().Version() }

// FetchHists are n's client-facing latency histograms for REMOTE and for
// every kind of MISS.
func (n *Node) FetchHists() (remote, miss obs.HistogramSnapshot) {
	return n.hist.remote.Snapshot(), n.hist.miss.Snapshot()
}
