// Package faults is the prototype's deterministic fault-injection layer:
// a seedable injector that can add latency, drop or hang requests, return
// synthetic 5xx responses, partition peer pairs, and flap a target down/up
// on a schedule. Faults are configured per target through a small text DSL
// (the -inject flag of cmd/cachenode), so fleets, tests, and examples can
// all run the exact same chaos.
//
// The DSL grammar (see DESIGN.md §8):
//
//	spec   := rule *( ";" rule )
//	rule   := target ":" opt *( "," opt )
//	target := "*" | host | host ":" port | name
//	opt    := "latency=" DUR        add DUR before the request proceeds
//	        | "jitter=" DUR         add uniform [0,DUR) on top of latency
//	        | "errrate=" FLOAT      probability of a synthetic 5xx reply
//	        | "errcode=" INT        status for injected errors (default 503)
//	        | "droprate=" FLOAT     probability of a connection-level drop
//	        | "timeout=" DUR        hang for DUR, then fail (slow-peer model)
//	        | "blackhole"           hang until the caller's deadline fires
//	        | "partition"           every request to target fails at once
//	        | "flap=" DUR "/" DUR   cycle: down for the first DUR, up for
//	                                the second, repeating
//
// Example: "peerB:latency=200ms,errrate=0.1;*:jitter=5ms". The first rule
// whose target matches wins; later rules (including "*") are fallbacks.
//
// Determinism: all randomness comes from one seeded source, so a fixed
// seed and request order replays the same fault sequence. The flap
// schedule is driven by a clock that tests can pin.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Rule is one parsed fault rule for one target.
type Rule struct {
	// Target is "*", a host, a host:port, or a node name.
	Target string
	// Latency is added before the request proceeds; Jitter adds a
	// uniform [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
	// ErrRate is the probability of replying with ErrCode instead of
	// forwarding; ErrCode defaults to 503.
	ErrRate float64
	ErrCode int
	// DropRate is the probability of a connection-level failure.
	DropRate float64
	// Hang holds the request for this long and then fails it — the
	// slow-or-dead peer the hedged miss path exists for. "blackhole"
	// parses to a Hang far beyond any sane deadline.
	Hang time.Duration
	// Partition fails every request to the target immediately,
	// modeling a network partition between this node and the target.
	Partition bool
	// FlapDown/FlapUp cycle the target down (requests drop) for
	// FlapDown, then up for FlapUp, repeating from the injector's
	// start time.
	FlapDown time.Duration
	FlapUp   time.Duration
}

// blackholeHang is the Hang used for "blackhole": effectively forever —
// the caller's context deadline always fires first.
const blackholeHang = time.Hour

// Decision is the injector's verdict for one request, applied in order:
// wait Delay, then hang/drop/reply-with-Code, or pass through untouched.
type Decision struct {
	// Delay is added latency (possibly zero).
	Delay time.Duration
	// Hang > 0 holds the request for Hang (or the context deadline,
	// whichever first) and then fails it.
	Hang time.Duration
	// Drop fails the request with a connection-level error.
	Drop bool
	// Code > 0 replies with a synthetic response of this status.
	Code int
}

// Counts is a snapshot of how many faults of each kind were injected.
type Counts struct {
	Latency int64 `json:"latency"`
	Errors  int64 `json:"errors"`
	Drops   int64 `json:"drops"`
	Hangs   int64 `json:"hangs"`
	Flaps   int64 `json:"flaps"`
}

// Injector evaluates a parsed fault spec against request targets. It is
// safe for concurrent use; all randomness flows from the seed given to
// New, so identical request sequences replay identical faults.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
	now   func() time.Time
	start time.Time

	latency atomic.Int64
	errors  atomic.Int64
	drops   atomic.Int64
	hangs   atomic.Int64
	flaps   atomic.Int64
}

// New parses spec and builds an injector seeded with seed. An empty spec
// is valid and injects nothing.
func New(spec string, seed int64) (*Injector, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	i := &Injector{
		rng: rand.New(rand.NewSource(seed)),
		now: time.Now,
	}
	i.start = i.now()
	i.rules = rules
	return i, nil
}

// SetSpec replaces the injector's rules at runtime (tests and demos heal
// or break targets mid-run). The flap schedule restarts from now.
func (i *Injector) SetSpec(spec string) error {
	rules, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = rules
	i.start = i.now()
	return nil
}

// SetClock pins the injector's clock (tests drive the flap schedule
// deterministically). The flap schedule restarts at the new clock's now.
func (i *Injector) SetClock(now func() time.Time) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.now = now
	i.start = now()
}

// Counts snapshots the injected-fault counters.
func (i *Injector) Counts() Counts {
	return Counts{
		Latency: i.latency.Load(),
		Errors:  i.errors.Load(),
		Drops:   i.drops.Load(),
		Hangs:   i.hangs.Load(),
		Flaps:   i.flaps.Load(),
	}
}

// match returns the first rule whose target matches, or nil. target is
// normally a host:port; a rule naming just the host matches any port.
func (i *Injector) match(target string) *Rule {
	for idx := range i.rules {
		r := &i.rules[idx]
		if r.Target == "*" || r.Target == target {
			return r
		}
		if host, _, err := net.SplitHostPort(target); err == nil && host == r.Target {
			return r
		}
	}
	return nil
}

// Decide evaluates the spec for one request to target. Fault kinds are
// checked in severity order — flap window, partition, random drop, hang —
// so a downed target never also pays injected latency; latency and error
// injection combine (a slow 503 is a realistic failure).
func (i *Injector) Decide(target string) Decision {
	i.mu.Lock()
	r := i.match(target)
	if r == nil {
		i.mu.Unlock()
		return Decision{}
	}
	var d Decision
	if r.FlapDown > 0 {
		cycle := r.FlapDown + r.FlapUp
		if cycle > 0 && i.now().Sub(i.start)%cycle < r.FlapDown {
			i.mu.Unlock()
			i.flaps.Add(1)
			return Decision{Drop: true}
		}
	}
	if r.Partition {
		i.mu.Unlock()
		i.drops.Add(1)
		return Decision{Drop: true}
	}
	if r.DropRate > 0 && i.rng.Float64() < r.DropRate {
		i.mu.Unlock()
		i.drops.Add(1)
		return Decision{Drop: true}
	}
	if r.Latency > 0 || r.Jitter > 0 {
		d.Delay = r.Latency
		if r.Jitter > 0 {
			d.Delay += time.Duration(i.rng.Int63n(int64(r.Jitter)))
		}
	}
	if r.Hang > 0 {
		d.Hang = r.Hang
		i.mu.Unlock()
		i.hangs.Add(1)
		return d
	}
	if r.ErrRate > 0 && i.rng.Float64() < r.ErrRate {
		d.Code = r.ErrCode
		if d.Code == 0 {
			d.Code = 503
		}
	}
	i.mu.Unlock()
	if d.Delay > 0 {
		i.latency.Add(1)
	}
	if d.Code > 0 {
		i.errors.Add(1)
	}
	return d
}

// ParseSpec parses the fault DSL. An empty spec yields no rules.
func ParseSpec(spec string) ([]Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// parseRule parses "target:opt,opt,...". Options never contain ':', so
// the last colon splits target (which may itself be host:port) from the
// option list.
func parseRule(raw string) (Rule, error) {
	cut := strings.LastIndexByte(raw, ':')
	if cut <= 0 || cut == len(raw)-1 {
		return Rule{}, fmt.Errorf("faults: rule %q: want target:opts", raw)
	}
	r := Rule{Target: strings.TrimSpace(raw[:cut])}
	for _, opt := range strings.Split(raw[cut+1:], ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		key, val, hasVal := strings.Cut(opt, "=")
		var err error
		switch key {
		case "latency":
			r.Latency, err = parseDur(key, val, hasVal)
		case "jitter":
			r.Jitter, err = parseDur(key, val, hasVal)
		case "timeout":
			r.Hang, err = parseDur(key, val, hasVal)
		case "errrate":
			r.ErrRate, err = parseRate(key, val, hasVal)
		case "droprate":
			r.DropRate, err = parseRate(key, val, hasVal)
		case "errcode":
			if !hasVal {
				return Rule{}, fmt.Errorf("faults: %s needs a value", key)
			}
			r.ErrCode, err = strconv.Atoi(val)
			if err == nil && (r.ErrCode < 400 || r.ErrCode > 599) {
				err = fmt.Errorf("faults: errcode %d outside 400..599", r.ErrCode)
			}
		case "blackhole":
			if hasVal {
				return Rule{}, fmt.Errorf("faults: blackhole takes no value")
			}
			r.Hang = blackholeHang
		case "partition":
			if hasVal {
				return Rule{}, fmt.Errorf("faults: partition takes no value")
			}
			r.Partition = true
		case "flap":
			if !hasVal {
				return Rule{}, fmt.Errorf("faults: flap needs down/up durations")
			}
			down, up, ok := strings.Cut(val, "/")
			if !ok {
				return Rule{}, fmt.Errorf("faults: flap %q: want down/up", val)
			}
			r.FlapDown, err = time.ParseDuration(down)
			if err == nil {
				r.FlapUp, err = time.ParseDuration(up)
			}
			if err == nil && (r.FlapDown <= 0 || r.FlapUp <= 0) {
				err = fmt.Errorf("faults: flap durations must be positive")
			}
		default:
			return Rule{}, fmt.Errorf("faults: unknown option %q in rule %q", key, raw)
		}
		if err != nil {
			return Rule{}, err
		}
	}
	return r, nil
}

func parseDur(key, val string, hasVal bool) (time.Duration, error) {
	if !hasVal {
		return 0, fmt.Errorf("faults: %s needs a duration", key)
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %w", key, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("faults: %s must be >= 0", key)
	}
	return d, nil
}

func parseRate(key, val string, hasVal bool) (float64, error) {
	if !hasVal {
		return 0, fmt.Errorf("faults: %s needs a value", key)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: %w", key, err)
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("faults: %s %g outside [0,1]", key, f)
	}
	return f, nil
}
