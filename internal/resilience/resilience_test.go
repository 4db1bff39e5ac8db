package resilience

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable clock for breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(cfg BreakerConfig, clk *fakeClock) *Breaker {
	cfg.now = clk.now
	return NewBreaker(cfg)
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(BreakerConfig{Window: 4, FailureThreshold: 0.5, MinSamples: 2, Cooldown: time.Second}, clk)

	if b.Stats().State != Closed || !b.Allow() {
		t.Fatal("new breaker not closed/allowing")
	}
	b.Record(true)
	b.Record(false)
	// 1 failure in 2 samples = 0.5 >= threshold: open.
	if b.Stats().State != Open {
		t.Fatalf("state after threshold = %v, want open", b.Stats().State)
	}
	if b.Allow() {
		t.Error("open breaker allowed a request before cooldown")
	}
	st := b.Stats()
	if st.Refusals != 1 || st.Transitions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Second}, clk)
	b.Record(false)
	b.Record(false)
	if b.Stats().State != Open {
		t.Fatalf("state = %v, want open", b.Stats().State)
	}

	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.Stats().State != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.Stats().State)
	}
	// One probe per cooldown.
	if b.Allow() {
		t.Error("second half-open probe allowed within the cooldown")
	}
	// Probe succeeds: closed, with a fresh window (one failure must not
	// re-open it).
	b.Record(true)
	if b.Stats().State != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.Stats().State)
	}
	b.Record(false)
	if b.Stats().State != Closed {
		t.Error("single failure after recovery re-opened the breaker (window not reset)")
	}
}

// TestBreakerUnreportedProbeHoldsOneCooldown: a half-open probe that never
// reports — its caller abandoned it and gave no verdict — holds the target
// for one cooldown from its admission, not for good: then the next probe is
// admitted.
func TestBreakerUnreportedProbeHoldsOneCooldown(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(BreakerConfig{MinSamples: 2, Cooldown: time.Second}, clk)
	b.Record(false)
	b.Record(false)
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	clk.advance(900 * time.Millisecond)
	if b.Allow() {
		t.Error("a second probe admitted within one cooldown of the first's admission")
	}
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatalf("a probe refused one cooldown after an unreported probe's admission (state %v)", b.Stats().State)
	}
	if st := b.Stats(); st.State != HalfOpen || st.Refusals != 1 {
		t.Errorf("stats = %+v, want half-open with one refusal", st)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(BreakerConfig{MinSamples: 2, Cooldown: time.Second}, clk)
	b.Record(false)
	b.Record(false)
	clk.advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(false)
	if b.Stats().State != Open {
		t.Fatalf("state after failed probe = %v, want open", b.Stats().State)
	}
	// The cooldown restarts from the failed probe.
	clk.advance(500 * time.Millisecond)
	if b.Allow() {
		t.Error("reopened breaker allowed before the fresh cooldown elapsed")
	}
}

func TestBreakerThresholdAboveOneNeverOpens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := testBreaker(BreakerConfig{FailureThreshold: 2}, clk)
	for i := 0; i < 50; i++ {
		b.Record(false)
	}
	if b.Stats().State != Closed || !b.Allow() {
		t.Errorf("breaker with threshold > 1 opened: %v", b.Stats().State)
	}
}

func TestBackoffGrowthCapAndJitter(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 400*time.Millisecond, 2, 7)
	for attempt, full := range []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
		400 * time.Millisecond,
	} {
		d := b.Delay(attempt)
		if d < full/2 || d > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(10*time.Millisecond, time.Second, 2, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Delay(i)
		}
		return out
	}
	a, b := seq(3), seq(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRetryCountsAndStops(t *testing.T) {
	b := NewBackoff(time.Millisecond, 2*time.Millisecond, 2, 1)
	calls := 0
	retries, err := b.Retry(context.Background(), 3, func() error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil || retries != 2 || calls != 3 {
		t.Errorf("retries=%d calls=%d err=%v", retries, calls, err)
	}

	calls = 0
	fail := errors.New("always")
	retries, err = b.Retry(context.Background(), 3, func() error { calls++; return fail })
	if !errors.Is(err, fail) || retries != 2 || calls != 3 {
		t.Errorf("exhausted: retries=%d calls=%d err=%v", retries, calls, err)
	}

	// Context cancellation stops the retry loop during the sleep.
	slow := NewBackoff(time.Hour, time.Hour, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := slow.Retry(ctx, 5, func() error { return fail })
		if !errors.Is(err, fail) {
			t.Errorf("canceled retry err = %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Retry did not honor context cancellation")
	}
}

func TestRacePrimaryWins(t *testing.T) {
	r := Race(context.Background(), 50*time.Millisecond,
		func(ctx context.Context) (string, error) { return "peer", nil },
		func(ctx context.Context) (string, error) { t.Error("fallback ran"); return "", nil })
	if r.Winner != PrimaryWon || r.Value != "peer" || r.Hedged {
		t.Errorf("result = %+v", r)
	}
}

func TestRaceHedgeFiresAndFallbackWins(t *testing.T) {
	primaryCanceled := make(chan struct{})
	r := Race(context.Background(), 10*time.Millisecond,
		func(ctx context.Context) (string, error) {
			<-ctx.Done() // a blackholed peer: never answers
			close(primaryCanceled)
			return "", ctx.Err()
		},
		func(ctx context.Context) (string, error) { return "origin", nil })
	if r.Winner != FallbackWon || r.Value != "origin" || !r.Hedged {
		t.Errorf("result = %+v", r)
	}
	select {
	case <-primaryCanceled:
	case <-time.After(2 * time.Second):
		t.Error("losing primary was not canceled")
	}
}

func TestRaceSequentialFallbackOnPrimaryError(t *testing.T) {
	boom := errors.New("peer refused")
	r := Race(context.Background(), time.Hour,
		func(ctx context.Context) (string, error) { return "", boom },
		func(ctx context.Context) (string, error) { return "origin", nil })
	if r.Winner != FallbackAfterPrimary || r.Value != "origin" || r.Hedged || !errors.Is(r.PrimaryErr, boom) {
		t.Errorf("result = %+v", r)
	}
}

func TestRaceBothFail(t *testing.T) {
	p, f := errors.New("p"), errors.New("f")
	r := Race(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			time.Sleep(20 * time.Millisecond)
			return "", p
		},
		func(ctx context.Context) (string, error) { return "", f })
	if r.Winner != BothFailed || !errors.Is(r.PrimaryErr, p) || !errors.Is(r.Err, f) {
		t.Errorf("result = %+v", r)
	}
}

// raceAllocBudget is what one unhedged Race may allocate: the primary's
// cancelable context (two), the hedge timer, its function and the state the
// two share. The fallback's context is not among them: it is made only when
// a fallback runs.
const raceAllocBudget = 5

// goroutineID names the calling goroutine, from its stack trace's header.
func goroutineID() string {
	buf := make([]byte, 64)
	fields := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	return fields[1] // "goroutine N [running]:"
}

// TestRaceUnhedgedIsStraightLine: a race the budget timer never fires in is
// a straight line — the primary, and after a failed primary the fallback,
// run on the caller's goroutine, nothing is spawned beside them, and the
// whole costs raceAllocBudget allocations.
func TestRaceUnhedgedIsStraightLine(t *testing.T) {
	caller := goroutineID()
	base := runtime.NumGoroutine()
	inline := func(leg string, v int, err error) func(context.Context) (int, error) {
		return func(context.Context) (int, error) {
			if id := goroutineID(); id != caller {
				t.Errorf("%s ran on goroutine %s, the caller is %s", leg, id, caller)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines while the %s ran, %d before the race", n, leg, base)
			}
			return v, err
		}
	}
	if r := Race(context.Background(), time.Hour, inline("primary", 1, nil), inline("fallback", 2, nil)); r.Winner != PrimaryWon || r.Value != 1 {
		t.Errorf("result = %+v", r)
	}
	r := Race(context.Background(), time.Hour, inline("primary", 0, errors.New("refused")), inline("fallback", 2, nil))
	if r.Winner != FallbackAfterPrimary || r.Value != 2 || r.Hedged {
		t.Errorf("result = %+v", r)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after two unhedged races, %d before", n, base)
	}

	instant := func(context.Context) (int, error) { return 1, nil }
	allocs := testing.AllocsPerRun(1000, func() {
		Race(context.Background(), 50*time.Millisecond, instant, instant)
	})
	if allocs > raceAllocBudget {
		t.Errorf("an unhedged race allocates %.0f, budget is %d", allocs, raceAllocBudget)
	}
}

// TestRaceAbandonedPrimaryIsWaitedFor pins the other half of the inline
// contract: when the fallback wins, Race cancels the primary's context and
// returns once the primary has — with the fallback's value, FallbackWon and
// no PrimaryErr — and a fallback that fails first leaves the primary to
// finish as the only hope.
func TestRaceAbandonedPrimaryIsWaitedFor(t *testing.T) {
	var primaryReturned atomic.Bool
	r := Race(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			<-ctx.Done()
			primaryReturned.Store(true)
			return "", ctx.Err()
		},
		func(context.Context) (string, error) { return "origin", nil })
	if !primaryReturned.Load() {
		t.Error("Race returned while its inline primary was still running")
	}
	if r.Winner != FallbackWon || r.Value != "origin" || !r.Hedged || r.PrimaryErr != nil {
		t.Errorf("result = %+v", r)
	}

	down := errors.New("origin down")
	fallbackDone := make(chan struct{})
	r = Race(context.Background(), time.Millisecond,
		func(ctx context.Context) (string, error) {
			<-fallbackDone
			return "peer", ctx.Err()
		},
		func(context.Context) (string, error) { defer close(fallbackDone); return "", down })
	if r.Winner != PrimaryWon || r.Value != "peer" || !r.Hedged {
		t.Errorf("after a failed hedge, result = %+v; want the primary's answer", r)
	}
}
