package cluster

import (
	"fmt"
	"io"
	"sync"

	"beyondcache/internal/trace"
)

// ReplayStats aggregates the outcomes of a trace replay against a fleet.
type ReplayStats struct {
	Requests   int64
	LocalHits  int64
	RemoteHits int64
	Misses     int64
	StaleHints int64
	Skipped    int64 // uncachable/error requests, not replayed
}

// HitRatio returns the fraction of replayed requests served from a cache.
func (s ReplayStats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalHits+s.RemoteHits) / float64(s.Requests)
}

// ReplayConfig tunes Replay.
type ReplayConfig struct {
	// FlushEvery forces a fleet-wide hint flush after every N requests
	// (0 leaves propagation to the background batchers).
	FlushEvery int
	// StrongConsistency purges every cached copy when an object's
	// version advances, emulating the simulators' invalidation-based
	// consistency. Without it the prototype serves what it has (weak
	// consistency, like stock Squid).
	StrongConsistency bool
}

// Replay drives the fleet with a trace over real sockets: each request's
// client maps round-robin to a node, the origin is primed with the
// request's object size and version, and the node's /fetch endpoint
// services it. Error and uncachable requests are skipped, as in the
// simulations.
func (f *Fleet) Replay(r trace.Reader, cfg ReplayConfig) (ReplayStats, error) {
	var stats ReplayStats
	versions := make(map[uint64]int64)
	sized := make(map[uint64]struct{})
	for {
		req, err := r.Next()
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, fmt.Errorf("replay: %w", err)
		}
		if !req.Cachable() {
			stats.Skipped++
			continue
		}
		url := req.URL()
		if _, ok := sized[req.Object]; !ok {
			f.Origin.SetSize(url, req.Size)
			sized[req.Object] = struct{}{}
		}
		// Advance the origin's version to match the trace, purging
		// stale copies under strong consistency.
		if prev := versions[req.Object]; req.Version > prev {
			for v := prev; v < req.Version-1; v++ {
				f.Origin.Bump(url)
			}
			if prev != 0 {
				f.Origin.Bump(url)
				if cfg.StrongConsistency {
					f.PurgeAll(url)
				}
			}
			versions[req.Object] = req.Version
		}

		node := req.Client % len(f.Nodes)
		res, err := f.Fetch(node, url)
		if err != nil {
			return stats, fmt.Errorf("replay request %d: %w", req.Seq, err)
		}
		stats.Requests++
		switch {
		case res.Local():
			stats.LocalHits++
		case res.Remote():
			stats.RemoteHits++
		default:
			stats.Misses++
			if res.StaleHint() {
				stats.StaleHints++
			}
		}
		if cfg.FlushEvery > 0 && stats.Requests%int64(cfg.FlushEvery) == 0 {
			f.FlushAll()
		}
	}
}

// PurgeAll drops every node's copy of a URL, ignoring nodes that do not
// have one (their 404) or cannot be reached. The nodes are asked at once —
// a purge costs the slowest node's round trip, not the sum — and PurgeAll
// returns when all have answered.
func (f *Fleet) PurgeAll(url string) {
	var wg sync.WaitGroup
	for i := range f.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.Purge(i, url) // an absent copy or an unreachable node is fine
		}()
	}
	wg.Wait()
}
