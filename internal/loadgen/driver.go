package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/obs"
)

// DriverConfig parameterizes an open-loop run.
type DriverConfig struct {
	// Nodes is the fleet size; request i goes to node Clients[i] % Nodes,
	// the same client→node mapping the simulators use.
	Nodes int
	// Fetch asks one node for a URL (the runner passes Fleet.Fetch). An
	// error counts the request as failed.
	Fetch func(node int, url string) (cluster.FetchResult, error)
	// NumPhases sizes the per-phase result slots (<= 0 derives it from
	// the schedule's max phase index).
	NumPhases int
	// AdvanceVersion, when non-nil, is invoked before issuing a request
	// whose scheduled version exceeds anything yet seen for its object —
	// exactly once per (object, version) step, in schedule order. The
	// runner uses it to bump the origin and purge stale copies (the
	// strong-consistency validation mode).
	AdvanceVersion func(url string, from, to int64)
}

// PhaseResult aggregates one phase's client-side measurements.
type PhaseResult struct {
	Requests int64
	Errors   int64
	Local    int64
	Remote   int64
	Miss     int64
	Bytes    int64
	Hist     obs.HistogramSnapshot
}

// HitRate returns the fraction of the phase's successful requests served
// from any cache.
func (p PhaseResult) HitRate() float64 {
	served := p.Local + p.Remote + p.Miss
	if served == 0 {
		return 0
	}
	return float64(p.Local+p.Remote) / float64(served)
}

// ErrorRate returns the fraction of the phase's requests that failed.
func (p PhaseResult) ErrorRate() float64 {
	if p.Requests == 0 {
		return 0
	}
	return float64(p.Errors) / float64(p.Requests)
}

// Result aggregates a full run: per-phase slices plus the merged totals,
// and each request's outcome in schedule order.
type Result struct {
	Overall  PhaseResult
	Phases   []PhaseResult
	Outcomes []Outcome
}

// Outcome is how one request was served — its answer's How (LOCAL, REMOTE,
// MISS, ...) — or the error it failed with.
type Outcome struct {
	How string
	Err error
}

// record is one request's latency from intended arrival and what its fetch
// returned.
type record struct {
	lat time.Duration
	res cluster.FetchResult
	err error
}

// RunSchedule replays the schedule open-loop. One dispatcher sleeps to
// each request's intended arrival and hands the fetch to a goroutine of its
// own; it never waits for a response, so a stalled node cannot delay the
// sends behind it, and every latency runs from the intended arrival — a
// closed-loop driver would silently omit the queueing delay of requests it
// could not issue on time (coordinated omission). RunSchedule returns when
// every scheduled request has completed (or errored), or with ctx's error
// if the context ends first.
func RunSchedule(ctx context.Context, sched *Schedule, cfg DriverConfig) (*Result, error) {
	if cfg.Nodes < 1 || cfg.Fetch == nil {
		return nil, fmt.Errorf("loadgen: driver needs at least one node and a fetch function")
	}
	if sched.Len() == 0 {
		return nil, fmt.Errorf("loadgen: empty schedule")
	}
	numPhases := cfg.NumPhases
	if numPhases <= 0 {
		for _, p := range sched.Phases {
			numPhases = max(numPhases, int(p)+1)
		}
	}

	out := make([]record, sched.Len())
	seen := make(map[uint64]int64) // each object's highest version so far
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < sched.Len(); i++ {
		if !sleepTo(ctx, start, sched.Offsets[i]) {
			break
		}
		intended := start.Add(sched.Offsets[i])
		url := sched.URL(i)
		if v := sched.Versions[i]; cfg.AdvanceVersion != nil && v > seen[sched.Objects[i]] {
			cfg.AdvanceVersion(url, seen[sched.Objects[i]], v)
			seen[sched.Objects[i]] = v
		}
		node := int(sched.Clients[i]) % cfg.Nodes
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cfg.Fetch(node, url)
			out[i] = record{lat: time.Since(intended), res: res, err: err}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Phases: make([]PhaseResult, numPhases), Outcomes: make([]Outcome, len(out))}
	overall := obs.NewHistogram(nil)
	hists := make([]*obs.Histogram, numPhases)
	for pi := range hists {
		hists[pi] = obs.NewHistogram(nil)
	}
	for i, o := range out {
		res.Outcomes[i] = Outcome{How: o.res.How, Err: o.err}
		pi := int(sched.Phases[i])
		p := &res.Phases[pi]
		p.Requests++
		hists[pi].Observe(o.lat)
		overall.Observe(o.lat)
		if o.err != nil {
			p.Errors++
			continue
		}
		p.Bytes += o.res.Bytes
		switch {
		case o.res.Local():
			p.Local++
		case o.res.Remote():
			p.Remote++
		default:
			p.Miss++
		}
	}
	o := &res.Overall
	for pi := range res.Phases {
		p := &res.Phases[pi]
		p.Hist = hists[pi].Snapshot()
		o.Requests += p.Requests
		o.Errors += p.Errors
		o.Local += p.Local
		o.Remote += p.Remote
		o.Miss += p.Miss
		o.Bytes += p.Bytes
	}
	o.Hist = overall.Snapshot()
	return res, nil
}

// sleepTo sleeps until offset at from start, and reports whether ctx is
// still live.
func sleepTo(ctx context.Context, start time.Time, at time.Duration) bool {
	if d := at - time.Since(start); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}
