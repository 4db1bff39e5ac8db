package loadgen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/trace"
)

// RunOptions tunes a scenario run.
type RunOptions struct {
	// StartFleet boots the fleet the scenario runs on (nil means
	// cluster.StartFleet: loopback TCP).
	StartFleet func(cluster.FleetConfig) (*cluster.Fleet, error)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// BoundResult is one evaluated acceptance bound.
type BoundResult struct {
	Bound  Bound
	Actual float64
	Pass   bool
}

// RestartResult is one executed restart event's recovery outcome: what the
// replacement node found on disk and how long the boot scan took.
type RestartResult struct {
	Node     int
	At       time.Duration
	Objects  int
	Bytes    int64
	Duration time.Duration
}

// RunReport is a completed scenario run.
type RunReport struct {
	Scenario *Scenario
	Result   *Result
	Bounds   []BoundResult
	// Restarts records each restart event's disk-recovery outcome, in
	// execution order.
	Restarts []RestartResult
	// Pass is true when every bound held.
	Pass bool
}

// Run executes one scenario end to end: build the deterministic schedule,
// boot the fleet, replay open-loop while the event timeline breaks and
// heals things, then evaluate the acceptance bounds.
func Run(sc *Scenario, opt RunOptions) (*RunReport, error) {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	startFleet := opt.StartFleet
	if startFleet == nil {
		startFleet = cluster.StartFleet
	}
	sched, err := BuildSchedule(sc)
	if err != nil {
		return nil, err
	}
	logf("%s: schedule %d requests over %v", sc.Name, sched.Len(), sc.Span())

	interval := sc.UpdateInterval
	if interval == 0 {
		interval = 100 * time.Millisecond
	}
	var cacheDirs []string
	if sc.DiskTier {
		root, err := os.MkdirTemp("", "loadgen-disk-")
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s: disk tier: %w", sc.Name, err)
		}
		defer os.RemoveAll(root)
		for i := 0; i < sc.Nodes; i++ {
			cacheDirs = append(cacheDirs, filepath.Join(root, fmt.Sprintf("node-%d", i)))
		}
	}
	fleet, err := startFleet(cluster.FleetConfig{
		Nodes:          sc.Nodes,
		CacheBytes:     sc.CacheBytes,
		UpdateInterval: interval,
		HintPartition:  sc.HintPartition > 0,
		HintReplicas:   sc.HintPartition,
		CacheDirs:      cacheDirs,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	fleet.Origin.SetLatency(sc.OriginLatency)
	primeOrigin(fleet, sched)

	cfg := DriverConfig{
		Nodes:     sc.Nodes,
		Fetch:     fleet.Fetch,
		NumPhases: max(len(sc.Phases), 1),
	}
	if sc.StrongConsistency {
		cfg.AdvanceVersion = advanceVersionFunc(fleet)
	}

	if sc.Warmup > 0 {
		warm(fleet, sched, sc.Warmup)
		fleet.FlushAll()
		logf("%s: warmed %d requests", sc.Name, min(sc.Warmup, sched.Len()))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One walker applies the timeline beside the load. Only it writes
	// restarts and eventsErr, and they are read once it is done.
	var restarts []RestartResult
	var eventsErr error
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		restarts, eventsErr = walkEvents(ctx, fleet, sc, logf)
	}()

	res, err := RunSchedule(ctx, sched, cfg)
	cancel()
	<-walked
	if err != nil {
		return nil, err
	}
	if eventsErr != nil {
		return nil, fmt.Errorf("loadgen: %s: event timeline: %w", sc.Name, eventsErr)
	}

	rep := &RunReport{Scenario: sc, Result: res, Restarts: restarts, Pass: true}
	for _, b := range sc.Bounds {
		actual, err := evalBound(sc, res, b)
		if err != nil {
			return nil, err
		}
		pass := actual <= b.Value
		if b.Op == ">=" {
			pass = actual >= b.Value
		}
		rep.Bounds = append(rep.Bounds, BoundResult{Bound: b, Actual: actual, Pass: pass})
		rep.Pass = rep.Pass && pass
		logf("%s: bound %q: actual %.4g -> %v", sc.Name, b.Expr(), actual, pass)
	}
	return rep, nil
}

// primeOrigin fixes every scheduled object's origin body size before the
// run, so first fetches transfer the workload's sizes rather than the
// origin default.
func primeOrigin(fleet *cluster.Fleet, sched *Schedule) {
	seen := make(map[uint64]struct{}, sched.Len()/4)
	for i := 0; i < sched.Len(); i++ {
		obj := sched.Objects[i]
		if _, ok := seen[obj]; ok {
			continue
		}
		seen[obj] = struct{}{}
		fleet.Origin.SetSize(sched.URL(i), sched.Sizes[i])
	}
}

// advanceVersionFunc is the one place a live replay keeps an object's
// version: advance the origin to the scheduled version and purge stale
// cached copies (the simulators' invalidation-based consistency).
func advanceVersionFunc(fleet *cluster.Fleet) func(url string, from, to int64) {
	return func(url string, from, to int64) {
		start := from
		if start < 1 {
			start = 1
		}
		for v := start; v < to; v++ {
			fleet.Origin.Bump(url)
		}
		if from != 0 {
			fleet.PurgeAll(url)
		}
	}
}

// warm issues the schedule's first n requests one at a time, in schedule
// order (unrecorded, never advancing versions), to pre-fill caches before
// the measured run. One fetcher makes the warm-up the same every run: on a
// fake clock, fetchers sharing an instant would order themselves by real
// time.
func warm(fleet *cluster.Fleet, sched *Schedule, n int) {
	for i := range min(n, sched.Len()) {
		// Errors intentionally dropped: warmup is unmeasured.
		fleet.Fetch(int(sched.Clients[i])%len(fleet.Nodes), sched.URL(i))
	}
}

// walkEvents applies the scenario's events one at a time, in order, each
// at its offset from the walk's start. An event that takes time — a
// restart's boot recovery scan, an invalidation's purges — delays the ones
// behind it, and no two ever act on the fleet at once. Load keeps flowing
// throughout: requests routed at a node that is down fail and are recorded
// like any other. It returns each restart's recovery outcome, and the error
// of the first event that fails, unless the run ended first.
func walkEvents(ctx context.Context, fleet *cluster.Fleet, sc *Scenario, logf func(string, ...any)) ([]RestartResult, error) {
	var restarts []RestartResult
	start := time.Now()
	for _, e := range sc.Events {
		if !sleepTo(ctx, start, e.At) {
			break
		}
		logf("%s: %v", sc.Name, e)
		var err error
		switch e.Kind {
		case "fault":
			err = fleet.SetFaultSpec(expandTargets(e.Spec, fleet))
		case "origin-at":
			fleet.Origin.SetLatency(e.Latency)
		case "invalidate":
			invalidateHotSet(fleet, e.Count)
		case "kill":
			err = fleet.KillNode(e.Node)
		case "restart":
			if err = fleet.RestartNode(e.Node); err == nil {
				n := fleet.Nodes[e.Node]
				n.WaitRecovery()
				rec := n.RecoveryStats()
				logf("%s: node %d recovered %d objects (%d bytes) in %v",
					sc.Name, e.Node, rec.Objects, rec.Bytes, rec.Duration)
				restarts = append(restarts, RestartResult{Node: e.Node, At: e.At, Objects: rec.Objects, Bytes: rec.Bytes, Duration: rec.Duration})
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				break // cut short by the run's end
			}
			return restarts, fmt.Errorf("%v: %w", e, err)
		}
	}
	return restarts, nil
}

// invalidateHotSet bumps and purges the count most popular objects
// (object IDs are popularity ranks), fanning out over a few goroutines so
// a big storm applies in a bounded burst rather than a slow trickle.
func invalidateHotSet(fleet *cluster.Fleet, count int) {
	const fanout = 8
	var wg sync.WaitGroup
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rank := w; rank < count; rank += fanout {
				url := trace.ObjectURL(uint64(rank))
				fleet.Origin.Bump(url)
				fleet.PurgeAll(url)
			}
		}(w)
	}
	wg.Wait()
}

// expandTargets rewrites symbolic fault targets — "node-<i>" and "origin"
// — to the fleet's live host:port addresses. Longer node names replace
// first so "node-1" never clobbers "node-12"'s prefix.
func expandTargets(spec string, fleet *cluster.Fleet) string {
	type sub struct{ from, to string }
	subs := make([]sub, 0, len(fleet.Nodes)+1)
	for i, u := range fleet.NodeURLs() {
		subs = append(subs, sub{fmt.Sprintf("node-%d", i), hostPort(u)})
	}
	subs = append(subs, sub{"origin", hostPort(fleet.Origin.URL())})
	sort.Slice(subs, func(i, j int) bool { return len(subs[i].from) > len(subs[j].from) })
	for _, s := range subs {
		spec = strings.ReplaceAll(spec, s.from, s.to)
	}
	return spec
}

// hostPort strips the scheme from a base URL.
func hostPort(u string) string {
	u = strings.TrimPrefix(u, "http://")
	return strings.TrimSuffix(u, "/")
}

// evalBound extracts a bound's measured value from the run result.
func evalBound(sc *Scenario, res *Result, b Bound) (float64, error) {
	phaseOf := func(args []string) (PhaseResult, time.Duration, error) {
		if len(args) == 0 {
			return res.Overall, sc.Span(), nil
		}
		i := sc.PhaseIndex(args[0])
		if i < 0 || i >= len(res.Phases) {
			return PhaseResult{}, 0, fmt.Errorf("loadgen: bound %q: unknown phase %q", b.Expr(), args[0])
		}
		return res.Phases[i], sc.Phases[i].Dur, nil
	}
	quantile := func(p PhaseResult, q float64) float64 {
		return p.Hist.Quantile(q).Seconds()
	}
	switch b.Metric {
	case "p50", "p95", "p99":
		p, _, err := phaseOf(b.Args)
		if err != nil {
			return 0, err
		}
		q := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}[b.Metric]
		return quantile(p, q), nil
	case "p99_ratio":
		a, _, err := phaseOf(b.Args[:1])
		if err != nil {
			return 0, err
		}
		c, _, err := phaseOf(b.Args[1:])
		if err != nil {
			return 0, err
		}
		den := quantile(c, 0.99)
		if den == 0 {
			return 0, fmt.Errorf("loadgen: bound %q: reference phase %q recorded no latency", b.Expr(), b.Args[1])
		}
		return quantile(a, 0.99) / den, nil
	case "hit_rate":
		p, _, err := phaseOf(b.Args)
		if err != nil {
			return 0, err
		}
		return p.HitRate(), nil
	case "error_rate":
		p, _, err := phaseOf(b.Args)
		if err != nil {
			return 0, err
		}
		return p.ErrorRate(), nil
	case "reqps":
		p, dur, err := phaseOf(b.Args)
		if err != nil {
			return 0, err
		}
		if dur <= 0 {
			return 0, fmt.Errorf("loadgen: bound %q: zero-duration window", b.Expr())
		}
		return float64(p.Requests) / dur.Seconds(), nil
	default:
		return 0, fmt.Errorf("loadgen: unknown bound metric %q", b.Metric)
	}
}
