package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/trace"
)

// The hint directory keeps two location records per object (DESIGN.md §10):
// the tests here pin what that buys — a holder is not forgotten because a
// more recent one came and went — and regenerate the miss budget it was
// sized against.

// nonOwners returns the fleet's nodes that are not hint homes of url, in
// index order: each reaches the directory through the consult. (Choosing
// the nodes for the URL, not a URL for fixed nodes: three nodes that
// alternate on a ring of six own every object between them at R = 2.)
func nonOwners(f *Fleet, url string) []int {
	v, h := hintsOf(f.Nodes[0]).overlay.View(), hintcache.HashURL(url)
	var out []int
	for i, n := range f.Nodes {
		if !v.IsOwner(h, n.machineID) {
			out = append(out, i)
		}
	}
	return out
}

// TestSecondHolderSurvivesFirstEviction: A fills X from the origin, B
// fetches it cache-to-cache, B's copy goes first. B's machine-matched
// invalidate withdraws B's record only, so C still finds A — with one
// record per object B's inform had replaced A's, the invalidate deleted the
// only record, and C paid an origin fetch for an object a peer held.
func TestSecondHolderSurvivesFirstEviction(t *testing.T) {
	const url = "http://holders.example/second"
	for _, mode := range []string{"R=0", "partition"} {
		t.Run(mode, func(t *testing.T) {
			var f *Fleet
			a, b, c := 0, 1, 2
			if mode == "partition" {
				f = startPartFleet(t, 6, nil) // R = 2: four nodes are not homes of url
				ns := nonOwners(f, url)
				a, b, c = ns[0], ns[1], ns[2]
			} else {
				f = startFleet(t, 3, FleetConfig{})
			}
			if res, err := f.Fetch(a, url); err != nil || !res.Miss() {
				t.Fatalf("A's fill = %+v, %v; want MISS", res, err)
			}
			f.FlushAll()
			if res, err := f.Fetch(b, url); err != nil || !res.Remote() {
				t.Fatalf("B's fetch = %+v, %v; want REMOTE", res, err)
			}
			f.FlushAll()
			if err := f.Purge(b, url); err != nil {
				t.Fatal(err)
			}
			f.FlushAll()
			res, err := f.Fetch(c, url)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Remote() {
				t.Errorf("C's fetch = %+v, want REMOTE: A still holds the object", res)
			}
			if got := f.Nodes[a].Stats().PeerServes; got != 2 {
				t.Errorf("A served %d peers, want 2 (B, then C)", got)
			}
			if got := f.Origin.Fetches(); got != 1 {
				t.Errorf("origin fetches = %d, want 1", got)
			}
		})
	}
}

// TestHintHomeNamesHolderOtherThanAsker: B's own record is the home's most
// recent and stale (B dropped the copy, the invalidate has not left yet).
// B's consult carries its machine ID, the home passes over that record and
// names A; answering "B" turned the consult into a clean miss while a
// second holder was on record.
func TestHintHomeNamesHolderOtherThanAsker(t *testing.T) {
	const url = "http://holders.example/asker"
	f := startPartFleet(t, 6, nil)
	ns := nonOwners(f, url)
	a, b := ns[0], ns[1]
	if _, err := f.Fetch(a, url); err != nil {
		t.Fatal(err)
	}
	f.FlushAll()
	if res, err := f.Fetch(b, url); err != nil || !res.Remote() {
		t.Fatalf("B's first fetch = %+v, %v; want REMOTE", res, err)
	}
	f.FlushAll()
	if err := f.Purge(b, url); err != nil { // not flushed: the home still names B first
		t.Fatal(err)
	}
	res, err := f.Fetch(b, url)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote() {
		t.Errorf("B's second fetch = %+v, want REMOTE from A", res)
	}
	if got := f.Origin.Fetches(); got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
}

// TestHintMissBudget regenerates the number the two-holder table was sized
// against: of all fetches, the share that went to the origin while a peer
// held the object in memory. It is `shared-remote` in miniature with the
// clock taken out — 4 nodes of 512 slots, 2048 objects, Zipf 0.8, one
// request at a time to a random node, FlushAll every flushEvery requests
// standing in for the update interval — and a global view no node has:
// before each fetch the test reads residency on every node. What is left
// under the bound is hint lag (a copy made since the last round); the part
// above it was the table forgetting a holder whose record a more recent
// holder's inform had replaced. With one record per object this run gives
// 2.22 % (and 0.85 % wasted probes); with two, 1.56 % (1.00 %).
//
//	go test -run TestHintMissBudget -v ./internal/cluster
func TestHintMissBudget(t *testing.T) {
	const nodes, slots, objectSize = 4, 512, 64
	neverHedge(t) // peer-then-origin: no timer in the outcome
	f := startFleet(t, nodes, FleetConfig{
		CacheBytes: slots * objectSize,
		ObjectSize: objectSize,
	})
	missBudget(t, f, budgetRun{population: 2048, requests: 24000, flushEvery: 457, peerHeldBound: 0.019})
}

// TestPartitionedHintMissBudget is TestHintMissBudget at R = 2, shaped like
// `partition-churn`: 6 nodes of 683 slots, 4096 objects, Zipf 0.8, one
// request in 50 a write (Origin.Bump and PurgeAll, then the fetch), FlushAll
// every 200 requests. Every non-owner's miss pays a consult here, and what
// the consult does decides the share: answering "me" from a home that holds
// the object and recording the asker only at its next round left 1.02 % of
// fetches missing while a peer held the object (2.09 % wasted probes); a
// home that serves its own copy in the answer and records the asker at
// once, 0.42 % (1.78 %).
//
//	go test -run TestPartitionedHintMissBudget -v ./internal/cluster
func TestPartitionedHintMissBudget(t *testing.T) {
	const slots, objectSize = 683, 64
	neverHedge(t)
	f := startPartFleet(t, 6, func(cfg *FleetConfig) {
		cfg.CacheBytes = slots * objectSize
		cfg.ObjectSize = objectSize
	})
	missBudget(t, f, budgetRun{population: 4096, requests: 30000, flushEvery: 200, writeEvery: 50, peerHeldBound: 0.006})
}

// budgetRun shapes one miss-budget run: writeEvery 0 means no writes.
type budgetRun struct {
	population, requests, flushEvery, writeEvery int
	peerHeldBound                                float64
}

// missBudget drives f with one seeded request at a time and logs where the
// fetches went, failing if more than run.peerHeldBound of them missed while
// a peer held the object in memory. The ranks are drawn first, then a node
// per request (and, with writes, whether it is one), from the one rng.
func missBudget(t *testing.T, f *Fleet, run budgetRun) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	urls := make([]string, run.population)
	hashes := make([]uint64, run.population)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://budget.example/obj-%d", i)
		hashes[i] = hintcache.HashURL(urls[i])
	}
	zipf := trace.NewZipf(run.population, 0.8)
	ranks := make([]int, run.requests)
	for i := range ranks {
		ranks[i] = zipf.Sample(rng)
	}
	var local, remote, missNoCopy, missPeerHeld, wasted int
	for i, rank := range ranks {
		if i > 0 && i%run.flushEvery == 0 {
			f.FlushAll()
		}
		at := rng.Intn(len(f.Nodes))
		if run.writeEvery > 0 && rng.Intn(run.writeEvery) == 0 {
			f.Origin.Bump(urls[rank])
			f.PurgeAll(urls[rank])
		}
		peerHolds := false
		for j, n := range f.Nodes {
			peerHolds = peerHolds || (j != at && n.data.Contains(hashes[rank]))
		}
		res, err := f.Fetch(at, urls[rank])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Local():
			local++
		case res.Remote():
			remote++
		case peerHolds:
			missPeerHeld++
		default:
			missNoCopy++
		}
		if res.StaleHint() {
			wasted++
		}
	}
	share := func(n int) float64 { return float64(n) / float64(run.requests) }
	t.Logf("%d fetches: LOCAL %.4f  REMOTE %.4f  MISS, no copy anywhere %.4f  MISS while a peer held it %.4f  (wasted probes %.4f)",
		run.requests, share(local), share(remote), share(missNoCopy), share(missPeerHeld), share(wasted))
	if got := share(missPeerHeld); got > run.peerHeldBound {
		t.Errorf("%.4f of fetches missed while a peer held the object, bound %.4f: the hint table is forgetting holders again", got, run.peerHeldBound)
	}
}
