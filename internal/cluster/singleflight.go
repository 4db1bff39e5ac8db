package cluster

import (
	"sync"

	"beyondcache/internal/obs"
)

// flightGroup collapses duplicate in-flight work for the same key: the
// first caller (the leader) runs the function, everyone else arriving
// before it finishes blocks and shares the result. The paper's second
// design principle — do not slow down misses — is why this exists: without
// it a burst of concurrent requests for one uncached object pays one origin
// round trip per request (thundering herd) instead of one per object. The
// same mechanism coalesces digest-snapshot builds: N concurrent GET
// /digest scrapes marshal the filter once, not N times.
//
// This is a minimal purpose-built singleflight (the repository takes no
// dependencies beyond the standard library). Results are not cached: the
// entry is removed before waiters are released, so a fill that completes
// and is then invalidated cannot be re-served to later arrivals.
type flightGroup[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

// flight is one in-progress call.
type flight[T any] struct {
	done chan struct{}
	out  T
}

// fetchOutcome is what a fill produces: how it was served (REMOTE, MISS,
// "MISS,STALE-HINT", or LOCAL when the leader found the object already
// cached), the object version and body, or an error. hops are the upstream
// trace segments the fill accumulated (peer probes, origin round trips);
// they are shared read-only by every request coalesced onto the fill, so
// consumers must copy before appending.
type fetchOutcome struct {
	how     string
	version int64
	body    []byte
	hops    []obs.Hop
	err     error
}

// do runs fn for key, collapsing concurrent calls: exactly one caller
// executes fn; the rest wait and share its outcome. shared reports whether
// the caller was a waiter rather than the leader.
func (g *flightGroup[T]) do(key string, fn func() T) (out T, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight[T])
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.out, true
	}
	f := &flight[T]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.out = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.out, false
}

// inFlight reports whether a call for key is running now.
func (g *flightGroup[T]) inFlight(key string) bool {
	g.mu.Lock()
	_, ok := g.m[key]
	g.mu.Unlock()
	return ok
}
