package loadgen

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/obs"
)

// uniformSchedule builds n requests spaced evenly by step, all phase 0.
func uniformSchedule(n int, step time.Duration) *Schedule {
	s := &Schedule{
		Offsets:  make([]time.Duration, n),
		Phases:   make([]uint8, n),
		Objects:  make([]uint64, n),
		Clients:  make([]int32, n),
		Sizes:    make([]int64, n),
		Versions: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		s.Offsets[i] = time.Duration(i) * step
		s.Objects[i] = uint64(i % 32)
		s.Clients[i] = int32(i)
		s.Sizes[i] = 100
		s.Versions[i] = 1
	}
	return s
}

// countAtLeast sums the histogram samples whose bucket lies entirely at or
// above min (i.e. the bucket's lower bound >= min) — a conservative count
// of observations >= min.
func countAtLeast(h obs.HistogramSnapshot, min time.Duration) int64 {
	var n int64
	for i, c := range h.Counts {
		// Bucket i covers (Bounds[i-1], Bounds[i]]; the overflow bucket
		// starts above the last bound.
		if i > 0 && h.Bounds[i-1] >= min {
			n += c
		}
	}
	return n
}

// serveAs is a stub fleet fetch that serves every URL as how, one byte.
func serveAs(how string) func(int, string) (cluster.FetchResult, error) {
	return func(int, string) (cluster.FetchResult, error) {
		return cluster.FetchResult{How: how, Bytes: 1}, nil
	}
}

// TestCoordinatedOmissionNotHidden is the regression test for the driver's
// core property. The fleet stalls every in-flight request for a window
// mid-run; a closed-loop driver would record the stall on just the few
// requests it had in flight and measure everything issued afterwards as
// fast. The open-loop driver measures from intended arrival instead, so all
// the requests that arrived during the stall must surface the delay in the
// recorded latencies.
func TestCoordinatedOmissionNotHidden(t *testing.T) {
	var stalled atomic.Bool
	fetch := func(int, string) (cluster.FetchResult, error) {
		if stalled.Load() {
			time.Sleep(250 * time.Millisecond)
		}
		return cluster.FetchResult{How: "LOCAL", Bytes: 2}, nil
	}

	const n = 600
	sched := uniformSchedule(n, time.Millisecond) // 600ms span

	go func() {
		time.Sleep(50 * time.Millisecond)
		stalled.Store(true)
		time.Sleep(250 * time.Millisecond)
		stalled.Store(false)
	}()

	res, err := RunSchedule(context.Background(), sched, DriverConfig{Nodes: 1, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Requests != n {
		t.Fatalf("issued %d of %d requests", res.Overall.Requests, n)
	}
	if res.Overall.Errors != 0 {
		t.Fatalf("%d errors", res.Overall.Errors)
	}

	// Roughly 250 intended arrivals fall inside the stall window, and each
	// of them waits out the stall. A closed-loop driver with four workers
	// would show at most ~8 samples over 100ms; require far more than that
	// could ever produce.
	slow := countAtLeast(res.Overall.Hist, 100*time.Millisecond)
	if slow < 40 {
		t.Fatalf("only %d samples >= 100ms; the stall's queueing delay was hidden (coordinated omission)", slow)
	}
	if p99 := res.Overall.Hist.Quantile(0.99); p99 < 100*time.Millisecond {
		t.Fatalf("p99 %v does not reflect the stall", p99)
	}
}

func TestDriverClassifiesAndPartitionsPhases(t *testing.T) {
	var hits atomic.Int64
	fetch := func(int, string) (cluster.FetchResult, error) {
		how := "MISS"
		switch hits.Add(1) % 3 {
		case 0:
			how = "LOCAL,COALESCED"
		case 1:
			how = "REMOTE"
		}
		return cluster.FetchResult{How: how, Bytes: 1}, nil
	}

	sched := uniformSchedule(90, 100*time.Microsecond)
	for i := 45; i < 90; i++ {
		sched.Phases[i] = 1
	}
	res, err := RunSchedule(context.Background(), sched, DriverConfig{
		Nodes:     1,
		Fetch:     fetch,
		NumPhases: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Phases[0].Requests != 45 || res.Phases[1].Requests != 45 {
		t.Fatalf("phase partition wrong: %+v", res.Phases)
	}
	o := res.Overall
	if o.Local+o.Remote+o.Miss != 90 || o.Local != 30 || o.Remote != 30 || o.Miss != 30 {
		t.Fatalf("classification wrong: local=%d remote=%d miss=%d", o.Local, o.Remote, o.Miss)
	}
	if got := o.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", got)
	}
	if o.Bytes != 90 {
		t.Fatalf("bytes = %d", o.Bytes)
	}
	if o.Hist.Count() != 90 {
		t.Fatalf("histogram holds %d samples", o.Hist.Count())
	}
}

// TestDriverKeepsEachOutcome: the result holds every request's answer, or
// its error, at the request's place in the schedule, whatever order the
// fetches finished in.
func TestDriverKeepsEachOutcome(t *testing.T) {
	fails := func(url string) bool { return strings.HasSuffix(url, "3") }
	fetch := func(_ int, url string) (cluster.FetchResult, error) {
		if fails(url) {
			return cluster.FetchResult{}, errors.New("boom")
		}
		return cluster.FetchResult{How: url}, nil // the answer names its request
	}
	sched := uniformSchedule(64, 0)
	res, err := RunSchedule(context.Background(), sched, DriverConfig{Nodes: 1, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != sched.Len() {
		t.Fatalf("%d outcomes for %d requests", len(res.Outcomes), sched.Len())
	}
	for i, o := range res.Outcomes {
		url := sched.URL(i)
		if fails(url) != (o.Err != nil) || (o.Err == nil && o.How != url) {
			t.Errorf("request %d (%s): outcome %+v", i, url, o)
		}
	}
}

func TestDriverCountsErrors(t *testing.T) {
	fetch := func(int, string) (cluster.FetchResult, error) {
		return cluster.FetchResult{}, errors.New("fetch: status 500: boom")
	}
	sched := uniformSchedule(20, 0)
	res, err := RunSchedule(context.Background(), sched, DriverConfig{Nodes: 1, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Errors != 20 {
		t.Fatalf("errors = %d, want 20", res.Overall.Errors)
	}
	if got := res.Overall.ErrorRate(); got != 1 {
		t.Fatalf("error rate = %v", got)
	}
	// Failed requests still contribute latency samples: a driver that
	// drops them would understate tail latency under faults.
	if res.Overall.Hist.Count() != 20 {
		t.Fatalf("histogram holds %d samples, want 20", res.Overall.Hist.Count())
	}
}

func TestDriverAdvancesVersionsOncePerStep(t *testing.T) {
	sched := uniformSchedule(40, 0)
	for i := range sched.Objects {
		sched.Objects[i] = 7 // one object, forty requests
		sched.Versions[i] = 1
	}
	sched.Versions[20] = 3 // modified once mid-trace

	// The dispatcher calls AdvanceVersion itself, on RunSchedule's own
	// goroutine, so plain variables do.
	var calls int
	var lastFrom, lastTo int64
	_, err := RunSchedule(context.Background(), sched, DriverConfig{
		Nodes: 1,
		Fetch: serveAs("LOCAL"),
		AdvanceVersion: func(url string, from, to int64) {
			calls++
			lastFrom, lastTo = from, to
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly two advances, in schedule order: 0→1 on first sight, then
	// (1)→3 — never one per request.
	if calls != 2 {
		t.Fatalf("AdvanceVersion called %d times, want 2", calls)
	}
	if lastFrom != 1 || lastTo != 3 {
		t.Fatalf("last advance %d->%d, want 1->3", lastFrom, lastTo)
	}
}

func TestRunScheduleRejectsBadInput(t *testing.T) {
	if _, err := RunSchedule(context.Background(), uniformSchedule(1, 0), DriverConfig{Fetch: serveAs("LOCAL")}); err == nil {
		t.Fatal("accepted a fleet of no nodes")
	}
	if _, err := RunSchedule(context.Background(), &Schedule{}, DriverConfig{Nodes: 1, Fetch: serveAs("LOCAL")}); err == nil {
		t.Fatal("accepted empty schedule")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSchedule(ctx, uniformSchedule(10, time.Second), DriverConfig{Nodes: 1, Fetch: serveAs("LOCAL")}); err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}
