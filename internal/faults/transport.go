package faults

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// InjectedError is the connection-level failure the injector produces for
// drops, partitions, flap-down windows, and expired hangs. Callers can
// errors.As on it to tell injected faults from real ones.
type InjectedError struct {
	Target string
	Kind   string // "drop", "timeout"
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s for %s", e.Kind, e.Target)
}

// Timeout reports whether the fault models a timeout, mirroring net.Error
// so generic retry logic treats injected hangs like real deadline misses.
func (e *InjectedError) Timeout() bool { return e.Kind == "timeout" }

// Apply plays the decision out for one call to target under ctx, the way
// every injection point (Middleware, the cluster's peer plane and origin
// link) must: wait out the delay, then fail a hang — once it has run its
// course — or a drop with an *InjectedError. A positive code is the
// synthetic status to answer with instead of doing the work. Delays and
// hangs respect ctx (its error is returned bare), so per-hop deadlines still
// bound a faulted call.
func (d Decision) Apply(ctx context.Context, target string) (code int, err error) {
	if d.Delay > 0 {
		if err := sleepCtx(ctx, d.Delay); err != nil {
			return 0, err
		}
	}
	if d.Hang > 0 {
		if err := sleepCtx(ctx, d.Hang); err != nil {
			return 0, err
		}
		return 0, &InjectedError{Target: target, Kind: "timeout"}
	}
	if d.Drop {
		return 0, &InjectedError{Target: target, Kind: "drop"}
	}
	return d.Code, nil
}

// Middleware is the server-side injection point: inbound requests to a
// node running under chaos are judged against the node's own label (its
// name or host:port), so a spec like "peerB:latency=50ms" can make peerB
// serve slowly instead of (or as well as) making calls *to* peerB slow.
// Drops and expired hangs abort the connection mid-response, which the
// client sees as an EOF — the closest handler-level stand-in for a reset.
func Middleware(inj *Injector, self string, next http.Handler) http.Handler {
	if inj == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, err := inj.Decide(self).Apply(r.Context(), self)
		var injected *InjectedError
		if errors.As(err, &injected) {
			panic(http.ErrAbortHandler)
		}
		if err != nil {
			return // the client gave up during the delay or the hang
		}
		if code > 0 {
			http.Error(w, fmt.Sprintf("injected %d", code), code)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// sleepCtx sleeps for d or until ctx is done, returning the context error
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
