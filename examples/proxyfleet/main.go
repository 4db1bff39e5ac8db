// Proxyfleet: boot a real loopback fleet — one synthetic origin server and
// four networked cache nodes exchanging batched 20-byte hint updates over
// HTTP — then drive requests through it and watch misses turn into direct
// cache-to-cache transfers. This is the paper's Squid prototype (Section
// 3.2) in miniature.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"beyondcache/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fleet, err := cluster.StartFleet(cluster.FleetConfig{
		Nodes:          4,
		ObjectSize:     8 << 10,
		UpdateInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	// Make the origin realistically far away so the timing story shows.
	fleet.Origin.SetLatency(60 * time.Millisecond)

	fmt.Printf("origin:  %s\n", fleet.Origin.URL())
	for i, n := range fleet.Nodes {
		fmt.Printf("node %d:  %s\n", i, n.URL())
	}
	fmt.Println()

	urls := []string{
		"http://www.cs.utexas.edu/papers/tr98-04.ps",
		"http://www.digital.com/traces/proxy.html",
		"http://www.nlanr.net/Squid/",
	}

	// Node 0 fetches everything: compulsory misses to the origin.
	for _, u := range urls {
		res, err := fleet.Fetch(0, u)
		if err != nil {
			return err
		}
		fmt.Printf("node 0  %-45s %-16s %v\n", u, res.How, res.Elapsed.Round(time.Millisecond))
	}

	// Let the hint batches propagate over real sockets.
	fmt.Println("\n... waiting for hint batches to propagate ...")
	time.Sleep(300 * time.Millisecond)

	// Other nodes now hit node 0's copies via cache-to-cache transfers.
	for i := 1; i < len(fleet.Nodes); i++ {
		res, err := fleet.Fetch(i, urls[i%len(urls)])
		if err != nil {
			return err
		}
		fmt.Printf("node %d  %-45s %-16s %v\n", i, urls[i%len(urls)], res.How,
			res.Elapsed.Round(time.Millisecond))
	}

	// A repeat at node 1 is now a local hit.
	res, err := fleet.Fetch(1, urls[1])
	if err != nil {
		return err
	}
	fmt.Printf("node 1  %-45s %-16s %v (repeat)\n", urls[1], res.How,
		res.Elapsed.Round(time.Millisecond))

	// Demonstrate a false positive: every copy of urls[0] is purged
	// (nodes 0 and 3 hold one); node 2's hint goes stale until the
	// invalidate batches land, so its fetch wastes a probe and falls
	// through to the origin.
	if err := fleet.Purge(0, urls[0]); err != nil {
		return err
	}
	if err := fleet.Purge(3, urls[0]); err != nil {
		return err
	}
	res, err = fleet.Fetch(2, urls[0])
	if err != nil {
		return err
	}
	fmt.Printf("node 2  %-45s %-16s %v (all copies purged; hint was stale)\n",
		urls[0], res.How, res.Elapsed.Round(time.Millisecond))

	// Chaos act: cache a fresh URL at node 0 only, let its hint spread,
	// then blackhole the wire from node 3 to node 0 and fetch it there.
	// The origin is raced once the peer has been silent past node 3's
	// hedge point (50ms until the node has measured enough of its own
	// REMOTEs to take their p99), and it answers — the miss path stays
	// near direct-origin latency even with the hinted peer dead.
	const chaosURL = "http://www.research.att.com/~bala/papers/"
	if _, err := fleet.Fetch(0, chaosURL); err != nil {
		return err
	}
	time.Sleep(300 * time.Millisecond)
	node0 := strings.TrimPrefix(fleet.Nodes[0].URL(), "http://")
	if err := fleet.Nodes[3].FaultInjector().SetSpec(node0 + ":blackhole"); err != nil {
		return err
	}
	res, err = fleet.Fetch(3, chaosURL)
	if err != nil {
		return err
	}
	fmt.Printf("node 3  %-45s %-16s %v (hinted peer blackholed; origin raced)\n",
		chaosURL, res.How, res.Elapsed.Round(time.Millisecond))
	if err := fleet.Nodes[3].FaultInjector().SetSpec(""); err != nil {
		return err
	}

	fmt.Println("\nper-node stats:")
	for i, n := range fleet.Nodes {
		st := n.Stats()
		fmt.Printf("  node %d: local=%d remote=%d miss=%d falsePos=%d updatesSent=%d updatesRecv=%d\n",
			i, st.LocalHits, st.RemoteHits, st.Misses, st.FalsePositives,
			st.UpdatesSent, st.UpdatesReceived)
	}
	fmt.Printf("origin fetches: %d (each URL fetched from the origin only when no cache had it)\n",
		fleet.Origin.Fetches())
	return nil
}
