// Package loadgen is the load plane of the prototype: an open-loop,
// coordinated-omission-safe driver that replays the paper's synthetic
// workloads against a cache fleet, and a scenario matrix on top of it —
// flash crowds, diurnal ramps, partitions that heal, node loss and restart,
// origin brownouts, and mass-invalidation storms — each written as a small
// declarative text spec with acceptance bounds.
//
// The pieces compose like the rest of the repository: scenarios parse into
// a deterministic request Schedule (fixed seed ⇒ byte-identical schedule),
// RunSchedule replays the schedule through the fleet's own client
// (Fleet.Fetch) pacing by intended arrival time (never by response
// completion, so a stalled node cannot hide queueing delay from the
// recorded latencies), per-phase latencies land in the same obs.Histogram
// the nodes export on /metrics, and Run boots an internal/cluster fleet,
// walks the scenario's one event timeline — faults in the internal/faults
// DSL, origin latency steps, invalidation storms, kills, restarts — mid-run,
// and judges the bounds. The fleet
// runs on loopback TCP, or on an in-memory network inside a synctest bubble
// (internal/cluster's TestSimScenarios runs the shipped matrix that way).
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"beyondcache/internal/faults"
)

// Phase is one contiguous window of a scenario's arrival process. Arrivals
// within a phase are Poisson at Rate (ramping linearly to RateEnd when it
// differs). A hot-set phase redirects HotFrac of its arrivals onto the
// HotSet most popular objects with Zipf skew HotAlpha — the flash-crowd
// shape: a rate spike concentrated on few objects.
type Phase struct {
	// Name labels the phase in reports and acceptance bounds.
	Name string
	// Dur is the phase's wall-clock length.
	Dur time.Duration
	// Rate is the arrival rate in requests/second at phase start; RateEnd,
	// when positive and different, ramps the rate linearly across the
	// phase (diurnal ramps). RateEnd == 0 means constant Rate.
	Rate    float64
	RateEnd float64
	// HotSet > 0 concentrates the phase on the HotSet most popular objects
	// (object IDs are popularity ranks); HotAlpha is the Zipf skew of
	// draws inside the hot set (default 1.0); HotFrac is the fraction of
	// arrivals redirected onto it (default 1.0).
	HotSet   int
	HotAlpha float64
	HotFrac  float64
}

// Event is one step of a scenario's timeline, applied At after the run
// starts. Kind is the keyword that wrote it, and the one argument that
// keyword takes sits in its field:
//
//	fault <offset> <spec>       Spec: re-spec every node's fault injector,
//	                            in the internal/faults DSL with node names
//	                            ("node-1") and "origin" as targets, which
//	                            the runner rewrites to host:port addresses
//	heal <offset>               a fault event with an empty Spec: heal all
//	origin-at <offset> <dur>    Latency: the origin's service latency from
//	                            here on (brownout and recovery)
//	invalidate <offset> <n>     Count: bump the origin version of the n most
//	                            popular objects and purge every cached copy
//	kill <offset> <node>        Node: shut it down; requests the driver
//	                            routes at it fail until a restart
//	restart <offset> <node>     Node: stop it and boot a replacement on the
//	                            same address (and, with disk-tier, the same
//	                            cache directory, which it recovers from)
type Event struct {
	At      time.Duration
	Kind    string
	Spec    string
	Latency time.Duration
	Count   int
	Node    int
}

// String renders the event as its scenario line.
func (e Event) String() string {
	at := e.At.String()
	switch e.Kind {
	case "fault":
		if e.Spec == "" {
			return "heal " + at
		}
		return "fault " + at + " " + e.Spec
	case "origin-at":
		return "origin-at " + at + " " + e.Latency.String()
	case "invalidate":
		return "invalidate " + at + " " + strconv.Itoa(e.Count)
	}
	return e.Kind + " " + at + " " + strconv.Itoa(e.Node)
}

// Bound is one acceptance bound over the run's measured results:
//
//	accept <metric> [phase...] <=|>= <value>
//
// Metrics: p50/p95/p99 (one optional phase arg; durations), p99_ratio
// (two phase args; dimensionless), hit_rate / error_rate (one optional
// phase arg; fractions), reqps (one optional phase arg; requests/second).
type Bound struct {
	Metric string
	Args   []string
	Op     string // "<=" or ">="
	// Value is the threshold; duration-valued metrics store seconds.
	Value float64
	// IsDur records that Value was written as a duration, for Format.
	IsDur bool
}

// Expr renders the bound in spec syntax.
func (b Bound) Expr() string {
	var sb strings.Builder
	sb.WriteString(b.Metric)
	for _, a := range b.Args {
		sb.WriteByte(' ')
		sb.WriteString(a)
	}
	sb.WriteByte(' ')
	sb.WriteString(b.Op)
	sb.WriteByte(' ')
	if b.IsDur {
		sb.WriteString(time.Duration(b.Value * float64(time.Second)).String())
	} else {
		sb.WriteString(strconv.FormatFloat(b.Value, 'g', -1, 64))
	}
	return sb.String()
}

// Scenario is one parsed load scenario.
type Scenario struct {
	// Name labels the scenario (bench rows, CLI selection).
	Name string
	// Profile picks the workload the request stream is drawn from: "DEC",
	// "Berkeley", or "Prodigy". Scale scales the published trace size
	// (object population, client count); the request COUNT comes from the
	// phases' rates, not the profile.
	Profile string
	Scale   float64
	// Nodes is the fleet size.
	Nodes int
	// Seed fixes all schedule randomness (arrivals, hot-set draws).
	Seed int64
	// Pacing selects the arrival process: "poisson" (default) derives
	// arrivals from the phases' rates; "trace" rescales the profile's own
	// virtual timestamps onto Duration (the measured-vs-simulated
	// validation mode) and requires exactly one phase with no rate.
	Pacing string
	// Duration is the wall window for trace pacing (unused for poisson).
	Duration time.Duration
	// Requests trims the trace to its first N requests (trace pacing).
	Requests int
	// StrongConsistency makes the driver advance origin versions along
	// the trace and purge stale copies, emulating the simulator's
	// invalidation-based consistency (validation mode).
	StrongConsistency bool
	// OriginLatency is the origin's baseline artificial service latency.
	OriginLatency time.Duration
	// UpdateInterval is the fleet's metadata exchange interval (0 = 100ms).
	UpdateInterval time.Duration
	// CacheBytes bounds each node (0 = the node default).
	CacheBytes int64
	// HintPartition > 0 switches the fleet to the partitioned hint
	// directory (Plaxton-routed hint homes, DESIGN.md §14) with an
	// owner-set size of HintPartition replicas per object; 0 keeps the
	// default R = 0, every node an owner of every object.
	HintPartition int
	// DiskTier gives every node a persistent disk tier in a run-scoped
	// temporary directory: memory evictions spill to disk, and a restart
	// event's replacement node recovers the population from it.
	DiskTier bool
	// Warmup issues the first N schedule requests one at a time, in
	// order and unrecorded, before the measured run, pre-filling caches.
	Warmup int

	Phases []Phase
	// Events is the timeline, ordered by offset; events at one offset keep
	// the order the file wrote them in, and are applied in it.
	Events []Event
	Bounds []Bound
}

// Span returns the measured run's wall window: the phase durations summed
// (poisson pacing) or Duration (trace pacing).
func (s *Scenario) Span() time.Duration {
	if s.Pacing == "trace" {
		return s.Duration
	}
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Dur
	}
	return d
}

// PhaseIndex returns the index of the named phase, or -1.
func (s *Scenario) PhaseIndex(name string) int {
	for i, p := range s.Phases {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// phaseStart returns the wall offset at which phase i begins.
func (s *Scenario) phaseStart(i int) time.Duration {
	var d time.Duration
	for _, p := range s.Phases[:i] {
		d += p.Dur
	}
	return d
}

// boundMetrics lists the accepted bound metrics and their phase-arg counts
// (-1 = zero or one arg).
var boundMetrics = map[string]int{
	"p50": -1, "p95": -1, "p99": -1,
	"p99_ratio": 2,
	"hit_rate":  -1, "error_rate": -1, "reqps": -1,
}

// durationMetric reports whether a metric's threshold is a duration.
func durationMetric(m string) bool {
	return m == "p50" || m == "p95" || m == "p99"
}

// Parse reads a scenario from its text form. The format is line-oriented:
// '#' starts a comment, blank lines are skipped, and each line is a
// keyword followed by space-separated fields (see the scenarios/ directory
// for the matrix this repo ships). Parse orders the events by offset and
// validates cross-field constraints, so a scenario that parses is runnable.
func Parse(text string) (*Scenario, error) {
	sc := &Scenario{}
	seen := map[string]bool{}
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key, args := fields[0], fields[1:]
		// Singleton keys may appear once; phases, events and bounds
		// accumulate.
		switch key {
		case "phase", "fault", "heal", "origin-at", "invalidate", "restart", "kill", "accept":
		default:
			if seen[key] {
				return nil, fmt.Errorf("loadgen: line %d: duplicate %q", ln+1, key)
			}
			seen[key] = true
		}
		var err error
		switch key {
		case "name":
			err = oneWord(args, &sc.Name)
		case "profile":
			err = oneWord(args, &sc.Profile)
		case "pacing":
			err = oneWord(args, &sc.Pacing)
		case "scale":
			err = oneFloat(args, &sc.Scale)
		case "nodes":
			err = oneInt(args, &sc.Nodes)
		case "seed":
			var v int
			if err = oneInt(args, &v); err == nil {
				sc.Seed = int64(v)
			}
		case "requests":
			err = oneInt(args, &sc.Requests)
		case "warmup":
			err = oneInt(args, &sc.Warmup)
		case "duration":
			err = oneDur(args, &sc.Duration)
		case "origin-latency":
			err = oneDur(args, &sc.OriginLatency)
		case "update-interval":
			err = oneDur(args, &sc.UpdateInterval)
		case "cache-bytes":
			var v int
			if err = oneInt(args, &v); err == nil {
				sc.CacheBytes = int64(v)
			}
		case "hint-partition":
			err = oneInt(args, &sc.HintPartition)
		case "disk-tier":
			var w string
			if err = oneWord(args, &w); err == nil {
				switch w {
				case "true":
					sc.DiskTier = true
				case "false":
				default:
					err = fmt.Errorf("want true or false, got %q", w)
				}
			}
		case "strong-consistency":
			var w string
			if err = oneWord(args, &w); err == nil {
				switch w {
				case "true":
					sc.StrongConsistency = true
				case "false":
				default:
					err = fmt.Errorf("want true or false, got %q", w)
				}
			}
		case "phase":
			var p Phase
			if p, err = parsePhase(args); err == nil {
				if sc.PhaseIndex(p.Name) >= 0 {
					err = fmt.Errorf("duplicate phase %q", p.Name)
				} else {
					sc.Phases = append(sc.Phases, p)
				}
			}
		case "fault", "heal", "origin-at", "invalidate", "restart", "kill":
			var e Event
			if e, err = parseEvent(key, args); err == nil {
				sc.Events = append(sc.Events, e)
			}
		case "accept":
			var b Bound
			if b, err = parseBound(args); err == nil {
				sc.Bounds = append(sc.Bounds, b)
			}
		default:
			err = fmt.Errorf("unknown keyword %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: line %d (%s): %w", ln+1, key, err)
		}
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// eventArg is what each event keyword takes after its offset.
var eventArg = map[string]string{"fault": " <spec>", "heal": "", "origin-at": " <latency>",
	"invalidate": " <count>", "restart": " <node>", "kill": " <node>"}

// parseEvent parses an event line's fields after its keyword. heal is a
// fault event with an empty spec.
func parseEvent(key string, args []string) (e Event, err error) {
	want := 2
	switch {
	case key == "heal":
		want = 1
	case key == "fault" && len(args) > 2:
		args = []string{args[0], strings.Join(args[1:], " ")} // a spec may hold spaces
	}
	if len(args) != want {
		return Event{}, fmt.Errorf("want: %s <offset>%s", key, eventArg[key])
	}
	e.Kind = key
	if e.At, err = time.ParseDuration(args[0]); err != nil {
		return Event{}, err
	}
	switch key {
	case "heal":
		e.Kind = "fault"
	case "fault":
		e.Spec = args[1]
	case "origin-at":
		e.Latency, err = time.ParseDuration(args[1])
	case "invalidate":
		e.Count, err = strconv.Atoi(args[1])
	default:
		e.Node, err = strconv.Atoi(args[1])
	}
	return e, err
}

// parsePhase parses "name dur [rate=R | rate=R..R2] [hotset=N]
// [hotalpha=F] [hotfrac=F]".
func parsePhase(args []string) (Phase, error) {
	if len(args) < 2 {
		return Phase{}, fmt.Errorf("want: phase <name> <dur> [opts]")
	}
	p := Phase{Name: args[0]}
	if !wordOK(p.Name) {
		return Phase{}, fmt.Errorf("bad phase name %q", p.Name)
	}
	var err error
	if p.Dur, err = time.ParseDuration(args[1]); err != nil {
		return Phase{}, err
	}
	if p.Dur <= 0 {
		return Phase{}, fmt.Errorf("phase %q duration must be positive", p.Name)
	}
	for _, opt := range args[2:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Phase{}, fmt.Errorf("phase option %q: want key=value", opt)
		}
		switch key {
		case "rate":
			lo, hi, ramp := strings.Cut(val, "..")
			if p.Rate, err = parseFinite(lo); err != nil {
				return Phase{}, fmt.Errorf("rate: %w", err)
			}
			if ramp {
				if p.RateEnd, err = parseFinite(hi); err != nil {
					return Phase{}, fmt.Errorf("rate end: %w", err)
				}
			}
		case "hotset":
			if p.HotSet, err = strconv.Atoi(val); err != nil {
				return Phase{}, fmt.Errorf("hotset: %w", err)
			}
		case "hotalpha":
			if p.HotAlpha, err = parseFinite(val); err != nil {
				return Phase{}, fmt.Errorf("hotalpha: %w", err)
			}
		case "hotfrac":
			if p.HotFrac, err = parseFinite(val); err != nil {
				return Phase{}, fmt.Errorf("hotfrac: %w", err)
			}
		default:
			return Phase{}, fmt.Errorf("unknown phase option %q", key)
		}
	}
	return p, nil
}

// parseBound parses "<metric> [args...] <op> <value>".
func parseBound(args []string) (Bound, error) {
	if len(args) < 3 {
		return Bound{}, fmt.Errorf("want: accept <metric> [phase...] <= <value>")
	}
	b := Bound{Metric: args[0], Args: args[1 : len(args)-2], Op: args[len(args)-2]}
	if len(b.Args) == 0 {
		b.Args = nil // canonical: Format/Parse round-trips to the same value
	}
	want, ok := boundMetrics[b.Metric]
	if !ok {
		return Bound{}, fmt.Errorf("unknown metric %q", b.Metric)
	}
	if want >= 0 && len(b.Args) != want {
		return Bound{}, fmt.Errorf("metric %s wants %d phase args, got %d", b.Metric, want, len(b.Args))
	}
	if want < 0 && len(b.Args) > 1 {
		return Bound{}, fmt.Errorf("metric %s wants at most one phase arg, got %d", b.Metric, len(b.Args))
	}
	for _, a := range b.Args {
		if !wordOK(a) {
			return Bound{}, fmt.Errorf("bad phase arg %q", a)
		}
	}
	if b.Op != "<=" && b.Op != ">=" {
		return Bound{}, fmt.Errorf("bad op %q (want <= or >=)", b.Op)
	}
	raw := args[len(args)-1]
	if durationMetric(b.Metric) {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return Bound{}, fmt.Errorf("metric %s wants a duration threshold: %w", b.Metric, err)
		}
		if d < 0 {
			return Bound{}, fmt.Errorf("metric %s threshold must be >= 0", b.Metric)
		}
		b.Value = d.Seconds()
		b.IsDur = true
	} else {
		v, err := parseFinite(raw)
		if err != nil {
			return Bound{}, fmt.Errorf("threshold: %w", err)
		}
		b.Value = v
	}
	return b, nil
}

// Validate reports the first cross-field error, or nil.
func (s *Scenario) Validate() error {
	if !wordOK(s.Name) {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	switch s.Profile {
	case "DEC", "Berkeley", "Prodigy":
	case "":
		return fmt.Errorf("loadgen: %s: profile required (DEC, Berkeley, or Prodigy)", s.Name)
	default:
		return fmt.Errorf("loadgen: %s: unknown profile %q", s.Name, s.Profile)
	}
	if s.Scale < 0 || s.Scale > 1 {
		return fmt.Errorf("loadgen: %s: scale %g outside [0,1]", s.Name, s.Scale)
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("loadgen: %s: nodes must be positive", s.Name)
	}
	if s.Requests < 0 || s.Warmup < 0 || s.CacheBytes < 0 {
		return fmt.Errorf("loadgen: %s: negative counts", s.Name)
	}
	if s.OriginLatency < 0 || s.UpdateInterval < 0 || s.Duration < 0 {
		return fmt.Errorf("loadgen: %s: negative durations", s.Name)
	}
	if s.HintPartition < 0 || s.HintPartition > 8 {
		return fmt.Errorf("loadgen: %s: hint-partition %d outside [0,8] replicas", s.Name, s.HintPartition)
	}
	if len(s.Phases) > 255 {
		return fmt.Errorf("loadgen: %s: at most 255 phases", s.Name)
	}
	switch s.Pacing {
	case "", "poisson":
		if len(s.Phases) == 0 {
			return fmt.Errorf("loadgen: %s: poisson pacing needs at least one phase", s.Name)
		}
		for _, p := range s.Phases {
			if p.Rate <= 0 {
				return fmt.Errorf("loadgen: %s: phase %q needs rate > 0", s.Name, p.Name)
			}
			if p.RateEnd < 0 {
				return fmt.Errorf("loadgen: %s: phase %q rate end must be >= 0", s.Name, p.Name)
			}
			if p.HotSet < 0 || p.HotAlpha < 0 {
				return fmt.Errorf("loadgen: %s: phase %q hot-set params must be >= 0", s.Name, p.Name)
			}
			if p.HotFrac < 0 || p.HotFrac > 1 {
				return fmt.Errorf("loadgen: %s: phase %q hotfrac outside [0,1]", s.Name, p.Name)
			}
		}
	case "trace":
		if s.Duration <= 0 {
			return fmt.Errorf("loadgen: %s: trace pacing needs a duration", s.Name)
		}
		if len(s.Phases) > 1 {
			return fmt.Errorf("loadgen: %s: trace pacing takes at most one phase", s.Name)
		}
		for _, p := range s.Phases {
			if p.Rate != 0 || p.RateEnd != 0 || p.HotSet != 0 {
				return fmt.Errorf("loadgen: %s: trace pacing ignores rates and hot sets; drop them", s.Name)
			}
		}
	default:
		return fmt.Errorf("loadgen: %s: unknown pacing %q (want poisson or trace)", s.Name, s.Pacing)
	}
	span := s.Span()
	down := map[int]bool{} // the nodes a kill has taken down, until a restart
	for i, e := range s.Events {
		if e.At < 0 || e.At > span {
			return fmt.Errorf("loadgen: %s: %s: offset outside the run window %v", s.Name, e, span)
		}
		if i > 0 && e.At < s.Events[i-1].At {
			return fmt.Errorf("loadgen: %s: %s: events out of offset order", s.Name, e)
		}
		switch e.Kind {
		case "fault":
			// Targets are free-form (node names, "origin", "*"), so the
			// DSL's own parser checks a spec before the runner expands it.
			if _, err := faults.ParseSpec(e.Spec); err != nil {
				return fmt.Errorf("loadgen: %s: %w", s.Name, err)
			}
		case "origin-at":
			if e.Latency < 0 {
				return fmt.Errorf("loadgen: %s: %s: latency must be >= 0", s.Name, e)
			}
		case "invalidate":
			if e.Count <= 0 {
				return fmt.Errorf("loadgen: %s: %s: count must be positive", s.Name, e)
			}
		case "restart", "kill":
			if e.Node < 0 || e.Node >= s.Nodes {
				return fmt.Errorf("loadgen: %s: %s names node %d of a %d-node fleet", s.Name, e.Kind, e.Node, s.Nodes)
			}
			if e.Kind == "restart" {
				delete(down, e.Node)
				break
			}
			if down[e.Node] {
				return fmt.Errorf("loadgen: %s: node %d killed twice with no restart between", s.Name, e.Node)
			}
			down[e.Node] = true
			if len(down) == s.Nodes {
				return fmt.Errorf("loadgen: %s: kill events would take down the whole %d-node fleet", s.Name, s.Nodes)
			}
		default:
			return fmt.Errorf("loadgen: %s: unknown event kind %q", s.Name, e.Kind)
		}
	}
	for _, b := range s.Bounds {
		for _, a := range b.Args {
			if s.PhaseIndex(a) < 0 {
				return fmt.Errorf("loadgen: %s: bound %q names unknown phase %q", s.Name, b.Expr(), a)
			}
		}
	}
	return nil
}

// Format renders the scenario back to its canonical text form. Parsing the
// result yields an identical scenario (the fuzz target pins this).
func (s *Scenario) Format() string {
	var sb strings.Builder
	line := func(key string, vals ...string) {
		sb.WriteString(key)
		for _, v := range vals {
			sb.WriteByte(' ')
			sb.WriteString(v)
		}
		sb.WriteByte('\n')
	}
	line("name", s.Name)
	line("profile", s.Profile)
	if s.Scale != 0 {
		line("scale", strconv.FormatFloat(s.Scale, 'g', -1, 64))
	}
	line("nodes", strconv.Itoa(s.Nodes))
	line("seed", strconv.FormatInt(s.Seed, 10))
	if s.Pacing != "" {
		line("pacing", s.Pacing)
	}
	if s.Duration != 0 {
		line("duration", s.Duration.String())
	}
	if s.Requests != 0 {
		line("requests", strconv.Itoa(s.Requests))
	}
	if s.Warmup != 0 {
		line("warmup", strconv.Itoa(s.Warmup))
	}
	if s.StrongConsistency {
		line("strong-consistency", "true")
	}
	if s.OriginLatency != 0 {
		line("origin-latency", s.OriginLatency.String())
	}
	if s.UpdateInterval != 0 {
		line("update-interval", s.UpdateInterval.String())
	}
	if s.CacheBytes != 0 {
		line("cache-bytes", strconv.FormatInt(s.CacheBytes, 10))
	}
	if s.HintPartition != 0 {
		line("hint-partition", strconv.Itoa(s.HintPartition))
	}
	if s.DiskTier {
		line("disk-tier", "true")
	}
	for _, p := range s.Phases {
		vals := []string{p.Name, p.Dur.String()}
		if p.Rate != 0 {
			r := "rate=" + strconv.FormatFloat(p.Rate, 'g', -1, 64)
			if p.RateEnd != 0 {
				r += ".." + strconv.FormatFloat(p.RateEnd, 'g', -1, 64)
			}
			vals = append(vals, r)
		}
		if p.HotSet != 0 {
			vals = append(vals, "hotset="+strconv.Itoa(p.HotSet))
		}
		if p.HotAlpha != 0 {
			vals = append(vals, "hotalpha="+strconv.FormatFloat(p.HotAlpha, 'g', -1, 64))
		}
		if p.HotFrac != 0 {
			vals = append(vals, "hotfrac="+strconv.FormatFloat(p.HotFrac, 'g', -1, 64))
		}
		line("phase", vals...)
	}
	for _, e := range s.Events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	for _, b := range s.Bounds {
		line("accept", b.Expr())
	}
	return sb.String()
}

// wordOK reports whether s is a bare identifier-ish word: non-empty,
// printable, no whitespace, '#', or '='.
func wordOK(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r <= ' ' || r == '#' || r == '=' || r > '~' {
			return false
		}
	}
	return true
}

func oneWord(args []string, dst *string) error {
	if len(args) != 1 || !wordOK(args[0]) {
		return fmt.Errorf("want one word, got %q", strings.Join(args, " "))
	}
	*dst = args[0]
	return nil
}

func oneInt(args []string, dst *int) error {
	if len(args) != 1 {
		return fmt.Errorf("want one integer, got %q", strings.Join(args, " "))
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func oneFloat(args []string, dst *float64) error {
	if len(args) != 1 {
		return fmt.Errorf("want one number, got %q", strings.Join(args, " "))
	}
	v, err := parseFinite(args[0])
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// parseFinite parses a float but rejects NaN and infinities: no scenario
// field means anything with them, and NaN never compares equal to itself,
// which would break the canonical Parse/Format round trip.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

func oneDur(args []string, dst *time.Duration) error {
	if len(args) != 1 {
		return fmt.Errorf("want one duration, got %q", strings.Join(args, " "))
	}
	v, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
