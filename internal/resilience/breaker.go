// Package resilience is the prototype's failure-handling toolkit: per-peer
// circuit breakers, exponential backoff with jitter for retryable metadata
// operations, and a hedged race for the data path. It exists to enforce the
// paper's design principles under faults — a stale hint pointing at a dead
// or slow peer must never make a request slower than going straight to the
// origin (principles 1–2: minimize hops, do not slow down misses).
package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed: requests flow; outcomes feed the failure window.
	Closed BreakerState = iota
	// Open: requests are refused outright until the cooldown elapses.
	Open
	// HalfOpen: one probe per cooldown may test the target; its success
	// closes the breaker, its failure reopens it.
	HalfOpen
)

// String renders the state for logs and metric labels.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a Breaker. The zero value picks defaults.
type BreakerConfig struct {
	// Window is how many recent outcomes feed the failure rate
	// (<= 0 means 10).
	Window int
	// FailureThreshold opens the breaker when the windowed failure
	// rate reaches it (<= 0 means 0.5; > 1 never opens — tests use
	// that to disable breaking without a separate code path).
	FailureThreshold float64
	// MinSamples is the fewest outcomes before the rate is trusted
	// (<= 0 means 3).
	MinSamples int
	// Cooldown is how long an open breaker refuses before admitting a
	// half-open probe, and how long after admitting one it admits the
	// next (<= 0 means 5s).
	Cooldown time.Duration

	// now overrides the clock (tests).
	now func() time.Time
}

func (c *BreakerConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// BreakerStats is a snapshot of one breaker.
type BreakerStats struct {
	State       BreakerState `json:"state"`
	Failures    int64        `json:"failures"`
	Successes   int64        `json:"successes"`
	Transitions int64        `json:"transitions"`
	Refusals    int64        `json:"refusals"`
}

// Breaker is a closed/open/half-open circuit breaker over a sliding
// window of recent outcomes. Allow asks permission before an operation;
// Record reports how it went. All methods are safe for concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	// window is a ring of recent outcomes (true = failure).
	window []bool
	head   int
	filled int

	state BreakerState
	// armedAt is when the cooldown last started: the trip, a failed
	// probe, or a probe's admission.
	armedAt time.Time

	failures    int64
	successes   int64
	transitions int64
	refusals    int64
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.defaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// Allow reports whether an operation may proceed now. A closed breaker
// admits every call. An open or half-open one refuses until its cooldown
// has run, then admits one probe, moves to half-open and restarts the
// cooldown from that instant: a probe that never reports holds the target
// for one cooldown, not for good. Refusals are counted.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed {
		return true
	}
	now := b.cfg.now()
	if now.Sub(b.armedAt) < b.cfg.Cooldown {
		b.refusals++
		return false
	}
	b.setState(HalfOpen)
	b.armedAt = now
	return true
}

// Record reports an operation's outcome. In the closed state failures
// accumulate in the window and open the breaker once the failure rate
// reaches the threshold (with enough samples); in half-open, one success
// closes the breaker and one failure reopens it for a fresh cooldown.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.successes++
	} else {
		b.failures++
	}
	switch b.state {
	case HalfOpen:
		if ok {
			b.setState(Closed)
			b.resetWindow()
		} else {
			b.setState(Open)
			b.armedAt = b.cfg.now()
		}
	case Open:
		// A straggler from before the trip; the window restarts when
		// the breaker closes, so ignore it.
	default: // Closed
		b.push(!ok)
		if b.filled >= b.cfg.MinSamples && b.rate() >= b.cfg.FailureThreshold {
			b.setState(Open)
			b.armedAt = b.cfg.now()
		}
	}
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:       b.state,
		Failures:    b.failures,
		Successes:   b.successes,
		Transitions: b.transitions,
		Refusals:    b.refusals,
	}
}

func (b *Breaker) setState(s BreakerState) {
	if b.state != s {
		b.state = s
		b.transitions++
	}
}

func (b *Breaker) push(failure bool) {
	b.window[b.head] = failure
	b.head = (b.head + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
}

func (b *Breaker) rate() float64 {
	if b.filled == 0 {
		return 0
	}
	n := 0
	for i := 0; i < b.filled; i++ {
		if b.window[i] {
			n++
		}
	}
	return float64(n) / float64(b.filled)
}

func (b *Breaker) resetWindow() {
	b.head, b.filled = 0, 0
}
