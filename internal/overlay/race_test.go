//go:build race

package overlay

// The race detector's instrumentation perturbs per-call allocation counts, so
// the allocation guard skips itself in a -race binary.
func init() { raceEnabled = true }
