package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"beyondcache/internal/trace"
)

// defaultScale is the workload scale used when a scenario omits one: small
// enough that schedule materialization is instant, large enough that the
// object population dwarfs any hot set.
const defaultScale = 0.001

// maxScheduleRequests is a sanity cap on schedule size: a scenario whose
// phase rates imply more arrivals than this is a typo, not a plan.
const maxScheduleRequests = 5_000_000

// Schedule is a fully materialized open-loop request plan: request i is
// issued at start+Offsets[i], carries the object/client/size/version of the
// workload draw, and is accounted to phase Phases[i]. Schedules are built
// deterministically from (scenario, seed) — the same inputs yield equal
// columns, which tests pin — and are read-only during a run, so any number
// of driver goroutines can share one.
type Schedule struct {
	// Offsets are intended arrival times from run start, non-decreasing.
	Offsets []time.Duration
	// Phases[i] is the index into the scenario's phase list.
	Phases []uint8
	// Objects, Clients, Sizes, Versions are the workload draws.
	Objects  []uint64
	Clients  []int32
	Sizes    []int64
	Versions []int64
}

// Len returns the number of scheduled requests.
func (s *Schedule) Len() int { return len(s.Offsets) }

// Span returns the last intended arrival offset (0 for an empty schedule).
func (s *Schedule) Span() time.Duration {
	if len(s.Offsets) == 0 {
		return 0
	}
	return s.Offsets[len(s.Offsets)-1]
}

// URL renders request i's fetch URL.
func (s *Schedule) URL(i int) string { return trace.ObjectURL(s.Objects[i]) }

// profileFor builds the trace profile a scenario draws from. requests, when
// positive, overrides the profile's request count.
func profileFor(sc *Scenario, requests int) (trace.Profile, error) {
	scale := sc.Scale
	if scale == 0 {
		scale = defaultScale
	}
	var p trace.Profile
	switch sc.Profile {
	case "DEC":
		p = trace.DECProfile(trace.Scale(scale))
	case "Berkeley":
		p = trace.BerkeleyProfile(trace.Scale(scale))
	case "Prodigy":
		p = trace.ProdigyProfile(trace.Scale(scale))
	default:
		return trace.Profile{}, fmt.Errorf("loadgen: unknown profile %q", sc.Profile)
	}
	if requests > 0 {
		p.Requests = int64(requests)
	}
	// The schedule replays requests in trace order but paces them itself,
	// so the profile's own warmup window is meaningless here.
	p.WarmupDays = 0
	p.Seed += sc.Seed // distinct scenario seeds draw distinct streams
	return p, nil
}

// BuildSchedule materializes a scenario into its request plan. All
// randomness flows from the scenario's seed: one source for the arrival
// process, an independent one for hot-set draws, so adding a hot set to a
// phase does not perturb arrival times.
func BuildSchedule(sc *Scenario) (*Schedule, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Pacing == "trace" {
		return buildTraceSchedule(sc)
	}
	return buildPoissonSchedule(sc)
}

// buildPoissonSchedule derives arrivals from the phases' rates and draws
// request content from the profile's generated stream, optionally
// redirected onto a hot set.
func buildPoissonSchedule(sc *Scenario) (*Schedule, error) {
	// Pass 1: the arrival process. Poisson arrivals at the phase's
	// (possibly ramping) rate: each gap is Exp(1)/rate(t).
	arrRng := rand.New(rand.NewSource(sc.Seed))
	s := &Schedule{}
	for pi, p := range sc.Phases {
		start, end := sc.phaseStart(pi), sc.phaseStart(pi)+p.Dur
		t := start
		for {
			r := p.Rate
			if p.RateEnd > 0 && p.RateEnd != p.Rate {
				frac := float64(t-start) / float64(p.Dur)
				r = p.Rate + (p.RateEnd-p.Rate)*frac
			}
			t += time.Duration(arrRng.ExpFloat64() / r * float64(time.Second))
			if t >= end {
				break
			}
			s.Offsets = append(s.Offsets, t)
			s.Phases = append(s.Phases, uint8(pi))
			if len(s.Offsets) > maxScheduleRequests {
				return nil, fmt.Errorf("loadgen: %s: schedule exceeds %d requests", sc.Name, maxScheduleRequests)
			}
		}
	}
	if len(s.Offsets) == 0 {
		return nil, fmt.Errorf("loadgen: %s: phase rates produce an empty schedule", sc.Name)
	}

	// Pass 2: request content. The profile's stream is drawn in order,
	// skipping uncachable/error entries (the load driver only measures
	// cachable fetches, like the simulators' replay); hot-set phases
	// redirect a fraction of draws onto the most popular ranks.
	need := len(s.Offsets)
	prof, err := profileFor(sc, traceHeadroom(need, sc))
	if err != nil {
		return nil, err
	}
	m, err := trace.MaterializedFor(prof)
	if err != nil {
		return nil, err
	}
	hotRng := rand.New(rand.NewSource(sc.Seed + 1))
	zipfs := make(map[int]*trace.Zipf) // one sampler per hot phase
	for pi, p := range sc.Phases {
		if p.HotSet > 0 {
			alpha := p.HotAlpha
			if alpha == 0 {
				alpha = 1.0
			}
			zipfs[pi] = trace.NewZipf(p.HotSet, alpha)
		}
	}
	s.Objects = make([]uint64, need)
	s.Clients = make([]int32, need)
	s.Sizes = make([]int64, need)
	s.Versions = make([]int64, need)
	firstSize := make(map[uint64]int64)
	lastVersion := make(map[uint64]int64)
	cur := m.Reader()
	for i := 0; i < need; i++ {
		req, err := nextCachable(cur, m)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s: %w", sc.Name, err)
		}
		if _, ok := firstSize[req.Object]; !ok {
			firstSize[req.Object] = req.Size
		}
		lastVersion[req.Object] = req.Version
		obj, size, version := req.Object, firstSize[req.Object], req.Version
		p := sc.Phases[s.Phases[i]]
		if z := zipfs[int(s.Phases[i])]; z != nil {
			frac := p.HotFrac
			if frac == 0 {
				frac = 1.0
			}
			if hotRng.Float64() < frac {
				obj = uint64(z.Sample(hotRng))
				if sz, ok := firstSize[obj]; ok {
					size = sz
				} else {
					size = prof.MedianSize
					firstSize[obj] = size
				}
				if version = lastVersion[obj]; version == 0 {
					version = 1
					lastVersion[obj] = 1
				}
			}
		}
		s.Objects[i] = obj
		s.Clients[i] = int32(req.Client)
		s.Sizes[i] = size
		s.Versions[i] = version
	}
	return s, nil
}

// traceHeadroom sizes the materialized trace so that drawing `need`
// cachable requests cannot exhaust it: the uncachable/error fractions are
// inflated with margin.
func traceHeadroom(need int, sc *Scenario) int {
	frac := 1.0
	switch sc.Profile {
	case "DEC":
		frac = 1 - 0.06 - 0.02
	case "Berkeley":
		frac = 1 - 0.13 - 0.03
	case "Prodigy":
		frac = 1 - 0.11 - 0.03
	}
	n := int(math.Ceil(float64(need)/frac*1.25)) + 512
	return n + sc.Warmup
}

// nextCachable advances the cursor past uncachable/error entries, wrapping
// to the start if the trace runs dry (headroom makes wrap rare; wrapping
// keeps the build total rather than failing a long scenario).
func nextCachable(cur *trace.Cursor, m *trace.Materialized) (trace.Request, error) {
	for tries := 0; tries < 2; tries++ {
		for {
			req, err := cur.Next()
			if err != nil {
				break
			}
			if req.Cachable() {
				return req, nil
			}
		}
		cur.Reset()
	}
	return trace.Request{}, fmt.Errorf("trace has no cachable requests")
}

// buildTraceSchedule replays the profile's own stream, rescaling its
// virtual timestamps onto the scenario's duration — the faithful mode the
// measured-vs-simulated validation uses.
func buildTraceSchedule(sc *Scenario) (*Schedule, error) {
	prof, err := profileFor(sc, sc.Requests)
	if err != nil {
		return nil, err
	}
	m, err := trace.MaterializedFor(prof)
	if err != nil {
		return nil, err
	}
	paced, err := trace.NewPaced(m, sc.Duration)
	if err != nil {
		return nil, err
	}
	s := &Schedule{}
	for i := 0; i < paced.Len(); i++ {
		req := paced.At(i)
		if !req.Cachable() {
			continue
		}
		s.Offsets = append(s.Offsets, paced.Offset(i))
		s.Phases = append(s.Phases, 0)
		s.Objects = append(s.Objects, req.Object)
		s.Clients = append(s.Clients, int32(req.Client))
		s.Sizes = append(s.Sizes, req.Size)
		s.Versions = append(s.Versions, req.Version)
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("loadgen: %s: trace has no cachable requests", sc.Name)
	}
	return s, nil
}
