package cluster

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
)

// TestAddPeerOneRecordPerAddress: "http://h:p" and "h:p" hash to one machine
// ID, so they are one peer — one breaker under the spelling given first, one
// sender, and one series per per-peer metric family, not two under the same
// peer="h:p" label.
func TestAddPeerOneRecordPerAddress(t *testing.T) {
	const host = "127.0.0.1:9"
	for _, spellings := range [][2]string{{"http://" + host, host}, {host, "http://" + host}} {
		n := newMetaNode(t, NodeConfig{Name: "one-record"})
		n.AddPeer(spellings[0])
		n.AddPeer(spellings[1])

		if ps := n.peerList(); len(ps) != 1 || ps[0].url != spellings[0] {
			t.Errorf("%d peer records after AddPeer(%q), AddPeer(%q); want one, under the first spelling", len(ps), spellings[0], spellings[1])
		}
		expo, err := obs.ParseExposition(n.Metrics().String())
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		for _, family := range []string{"beyondcache_breaker_state", "beyondcache_hint_queue_depth"} {
			series := expo.Family(family).Series
			if len(series) != 1 || series[0].Labels["peer"] != host {
				t.Errorf("%s has series %+v, want one labelled peer=%q", family, series, host)
			}
		}
	}
}

// TestAddPeerURLWithPath: a peer written with a trailing slash is reached at,
// and identified by, its host:port — the machine ID its own hints carry.
func TestAddPeerURLWithPath(t *testing.T) {
	const host = "127.0.0.1:9"
	n := newMetaNode(t, NodeConfig{Name: "slash"})
	n.AddPeer("http://" + host + "/")
	p := n.peerByID(hintcache.HashMachine(host))
	if p == nil || p.host != host {
		t.Fatalf("peerByID(HashMachine(%q)) = %+v, want the peer added as http://%s/", host, p, host)
	}
}

// TestPeerTableConcurrent: the peer table is appended to while everything
// that reads it runs — fetches that resolve a hint to a record and transfer
// from it, metadata rounds, scrapes — and while one peer restarts under its
// records elsewhere. Once the node has closed, the plane holds no live
// connection, every one left in a record's idle set is closed, and no
// record's sender has a drain running: read off the records, which is where
// a leak would be.
func TestPeerTableConcurrent(t *testing.T) {
	for name, cfg := range map[string]FleetConfig{
		"R=0":         {},
		"partitioned": {HintPartition: true, HintReplicas: 2},
		"digests":     {UseDigests: true},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.ObjectSize = 256
			f := startFleet(t, 3, cfg)
			urls := urlsN("http://example.com/table/"+name, 64)
			for _, u := range urls {
				if _, err := f.Fetch(1, u); err != nil {
					t.Fatal(err)
				}
			}
			f.FlushAll()
			n := f.Nodes[0]

			// Addresses new to the node: two more nodes of the same kind.
			// Repeated ones: its two peers, under both spellings.
			addrs := []string{f.Nodes[1].URL(), f.Nodes[1].Addr(), f.Nodes[2].URL(), f.Nodes[2].Addr()}
			for i := 0; i < 2; i++ {
				extra, err := f.newNode(3 + i)
				if err != nil {
					t.Fatal(err)
				}
				if err := extra.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { extra.Close() })
				addrs = append(addrs, extra.URL())
			}

			var wg sync.WaitGroup
			run := func(fn func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn()
				}()
			}
			var remote int
			run(func() {
				for _, u := range urls {
					res, err := f.Fetch(0, u)
					if err != nil {
						t.Errorf("fetch %s: %v", u, err)
						return
					}
					if res.Remote() {
						remote++
					}
				}
			})
			run(func() {
				for i := 0; i < 50; i++ {
					n.AddPeer(addrs[i%len(addrs)])
				}
			})
			run(func() {
				for i := 0; i < 10; i++ {
					n.Flush()
				}
			})
			run(func() {
				for i := 0; i < 50; i++ {
					if _, err := obs.ParseExposition(n.Metrics().String()); err != nil {
						t.Errorf("scrape beside AddPeer: %v", err)
						return
					}
				}
			})
			run(func() {
				if err := f.RestartNode(2); err != nil {
					t.Error(err)
				}
			})
			wg.Wait()
			if remote == 0 {
				t.Error("no fetch went REMOTE: nothing resolved a hint to a peer record")
			}
			if got := len(n.peerList()); got != 4 {
				t.Errorf("%d peers after adding 2 + 2 addresses many times over, want 4", got)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}

			// Everything that wrote a record has returned: read them bare.
			if len(n.plane.conns) != 0 {
				t.Errorf("%d peer connections outlived Close", len(n.plane.conns))
			}
			conns := 0
			for _, p := range n.peerList() {
				for _, uc := range p.link.idle {
					conns++
					if err := uc.c.SetDeadline(time.Time{}); !errors.Is(err, net.ErrClosed) {
						t.Errorf("an idle connection to %s outlived Close (%v)", p.host, err)
					}
				}
				if draining(p) {
					t.Errorf("sender to %s has a drain running after Close", p.host)
				}
			}
			if sent := n.Stats().BatchesSent; conns == 0 || (sent == 0) != cfg.UseDigests {
				t.Errorf("%d connections dialed and %d batches sent, want some of each (no batch under digests: nothing is pushed)", conns, sent)
			}
		})
	}
}
