package resilience

import (
	"context"
	"sync"
	"time"
)

// Winner says how a Race resolved.
type Winner int

const (
	// PrimaryWon: the primary succeeded (the hedge, if it started, was
	// canceled).
	PrimaryWon Winner = iota
	// FallbackWon: the hedge fired and the fallback succeeded while the
	// primary was still in flight — the primary was abandoned (the
	// paper: a cache-to-cache transfer must beat the origin or be
	// abandoned).
	FallbackWon
	// FallbackAfterPrimary: the primary failed outright and the
	// fallback succeeded — the classic stale-hint fall-through.
	FallbackAfterPrimary
	// BothFailed: no path produced a result.
	BothFailed
)

// RaceResult is the outcome of a hedged race.
type RaceResult[T any] struct {
	Value  T
	Winner Winner
	// Hedged reports whether the fallback was launched by the budget
	// timer while the primary was still in flight (as opposed to
	// sequentially after a primary error).
	Hedged bool
	// PrimaryErr is the primary's error when it completed with one.
	PrimaryErr error
	// Err is the terminal error, set only when Winner is BothFailed.
	Err error
}

// Race runs primary on the caller's goroutine and, if it has not returned
// within budget, starts the fallback beside it on a goroutine of its own;
// the first success wins and the loser's context is canceled. A primary that
// fails inside the budget is followed by the fallback at once, inline, so a
// race that never hedges spawns nothing and makes no fallback context.
//
// Race returns only when its inline primary has: a primary must return
// promptly once its context is canceled, or it holds up the leg that beat it.
//
// The node's hedged miss path is this function with primary = hinted-peer
// fetch and fallback = origin fetch.
func Race[T any](ctx context.Context, budget time.Duration, primary, fallback func(context.Context) (T, error)) RaceResult[T] {
	var h hedge[T]
	pctx, abandon := context.WithCancel(ctx)
	defer abandon()
	defer time.AfterFunc(budget, func() { h.run(ctx, fallback, abandon) }).Stop()
	v, err := primary(pctx)
	h.mu.Lock()
	h.settled = true
	hedged := h.done != nil
	h.mu.Unlock()
	if err == nil {
		if hedged {
			h.cancel() // abandon the hedge
		}
		return RaceResult[T]{Value: v, Winner: PrimaryWon, Hedged: hedged}
	}
	if hedged {
		<-h.done
	} else {
		h.v, h.err = fallback(ctx) // sequential fall-through, inline
	}
	switch {
	case h.err != nil:
		return RaceResult[T]{Winner: BothFailed, Hedged: hedged, PrimaryErr: err, Err: h.err}
	case h.beat:
		// An abandoned primary's error is the echo of its cancellation.
		return RaceResult[T]{Value: h.v, Winner: FallbackWon, Hedged: true}
	}
	return RaceResult[T]{Value: h.v, Winner: FallbackAfterPrimary, Hedged: hedged, PrimaryErr: err}
}

// hedge is a race's fallback leg: its outcome, and what the budget timer's
// goroutine shares with the caller's once it has started the leg. mu orders
// the two around the one moment they meet, the primary's return; v, err and
// beat are read after done.
type hedge[T any] struct {
	mu      sync.Mutex
	settled bool               // the primary has returned: too late to start
	cancel  context.CancelFunc // the fallback's context, once it runs
	done    chan struct{}      // closed when the fallback has returned
	v       T
	err     error
	beat    bool // it succeeded while the primary was still running
}

// run is the budget timer's function: the fallback, unless the primary
// returned first, abandoning the primary if the fallback succeeds.
func (h *hedge[T]) run(ctx context.Context, fallback func(context.Context) (T, error), abandon context.CancelFunc) {
	h.mu.Lock()
	if h.settled {
		h.mu.Unlock()
		return
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	h.cancel, h.done = cancel, make(chan struct{})
	h.mu.Unlock()
	v, err := fallback(fctx)
	h.mu.Lock()
	h.v, h.err, h.beat = v, err, err == nil && !h.settled
	h.mu.Unlock()
	if err == nil {
		abandon()
	}
	close(h.done)
}
