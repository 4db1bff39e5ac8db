package obs

import (
	"strings"
	"testing"
	"time"
)

func TestExpoRendersFamiliesGrouped(t *testing.T) {
	e := NewExpo()
	e.Counter("a_total", "counts a", 1, L("k", "v1"))
	e.Gauge("b", "gauges b", 2.5)
	// Interleaved add to an existing family must regroup under it.
	e.Counter("a_total", "", 3, L("k", "v2"))
	out := e.String()

	if strings.Count(out, "# HELP a_total") != 1 || strings.Count(out, "# TYPE a_total counter") != 1 {
		t.Errorf("HELP/TYPE not emitted exactly once:\n%s", out)
	}
	// a_total's two series must be adjacent (family not split).
	bIdx := strings.Index(out, "# HELP b")
	if v2 := strings.Index(out, `a_total{k="v2"}`); v2 > bIdx {
		t.Errorf("family a_total split across the document:\n%s", out)
	}
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, out)
	}
	if v, ok := p.Value("a_total", L("k", "v2")); !ok || v != 3 {
		t.Errorf("a_total{k=v2} = %v, %v", v, ok)
	}
	if v, ok := p.Value("b"); !ok || v != 2.5 {
		t.Errorf("b = %v, %v", v, ok)
	}
}

func TestExpoLabelEscaping(t *testing.T) {
	e := NewExpo()
	e.Counter("c_total", "h", 1, L("k", `a"b\c`+"\n"))
	out := e.String()
	if !strings.Contains(out, `c_total{k="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Value("c_total", L("k", `a"b\c`+"\n")); !ok || v != 1 {
		t.Errorf("escaped label does not round-trip: %v %v", v, ok)
	}
}

func TestExpoHistogramExposition(t *testing.T) {
	h := NewHistogram(ExpBounds(time.Millisecond, 2, 2)) // 1ms, 2ms
	h.Observe(500 * time.Microsecond)
	h.Observe(1500 * time.Microsecond)
	h.Observe(time.Minute) // overflow

	e := NewExpo()
	e.Histogram("lat_seconds", "latency", h.Snapshot(), L("outcome", "X"))
	out := e.String()
	for _, want := range []string{
		`lat_seconds_bucket{outcome="X",le="0.001"} 1`,
		`lat_seconds_bucket{outcome="X",le="0.002"} 2`,
		`lat_seconds_bucket{outcome="X",le="+Inf"} 3`,
		`lat_seconds_count{outcome="X"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Family("lat_seconds")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("family missing or mistyped: %+v", f)
	}
	// _count equals the +Inf cumulative bucket by construction.
	inf, _ := p.Value("lat_seconds", L("le", "+Inf"))
	count, _ := p.Value("lat_seconds") // first matching series is a bucket; look up _count by name
	_ = count
	var cnt float64
	for _, s := range f.Series {
		if s.Name == "lat_seconds_count" {
			cnt = s.Value
		}
	}
	if inf != cnt {
		t.Errorf("+Inf bucket %v != _count %v", inf, cnt)
	}
	var sum float64
	for _, s := range f.Series {
		if s.Name == "lat_seconds_sum" {
			sum = s.Value
		}
	}
	want := (500*time.Microsecond + 1500*time.Microsecond + time.Minute).Seconds()
	if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("_sum = %v, want %v", sum, want)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"sample before family": "x_total 1\n",
		"sample before TYPE":   "# HELP x_total h\nx_total 1\n",
		"split family": "# HELP a h\n# TYPE a counter\na 1\n" +
			"# HELP b h\n# TYPE b counter\nb 1\na 2\n",
		"double declaration": "# HELP a h\n# TYPE a counter\n# HELP a h\n",
		"bad value":          "# HELP a h\n# TYPE a counter\na xyz\n",
		"unterminated label": "# HELP a h\n# TYPE a counter\na{k=\"v 1\n",
	} {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestHistogramsOfRoundTrip writes histograms through Expo and parses them
// back: bounds, per-bucket counts, and sums must survive exactly, for both
// the unlabeled aggregate and labeled series of one family.
func TestHistogramsOfRoundTrip(t *testing.T) {
	p1, p2 := NewHistogram(nil), NewHistogram(nil)
	p1.Observe(70 * time.Microsecond)
	p1.Observe(3 * time.Millisecond)
	p2.Observe(2 * time.Hour) // lands in the overflow bucket
	all := NewHistogram(nil)
	for _, p := range []*Histogram{p1, p2} {
		if err := all.Merge(p.Snapshot()); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}

	e := NewExpo()
	e.Histogram("x_seconds", "help", all.Snapshot())
	e.Histogram("x_seconds", "", p1.Snapshot(), L("peer", "p1"))
	e.Histogram("x_seconds", "", p2.Snapshot(), L("peer", "p2"))
	parsed, err := ParseExposition(e.String())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	hists := parsed.HistogramsOf("x_seconds")
	if len(hists) != 3 {
		t.Fatalf("got %d histograms, want 3", len(hists))
	}
	want := map[string]HistogramSnapshot{
		"":   all.Snapshot(),
		"p1": p1.Snapshot(),
		"p2": p2.Snapshot(),
	}
	for _, ph := range hists {
		w := want[ph.Labels["peer"]]
		if len(ph.Snapshot.Bounds) != len(w.Bounds) {
			t.Fatalf("peer %q: %d bounds, want %d", ph.Labels["peer"], len(ph.Snapshot.Bounds), len(w.Bounds))
		}
		for i := range w.Bounds {
			if ph.Snapshot.Bounds[i] != w.Bounds[i] {
				t.Fatalf("peer %q bound %d = %v, want %v", ph.Labels["peer"], i, ph.Snapshot.Bounds[i], w.Bounds[i])
			}
		}
		for i := range w.Counts {
			if ph.Snapshot.Counts[i] != w.Counts[i] {
				t.Errorf("peer %q bucket %d = %d, want %d", ph.Labels["peer"], i, ph.Snapshot.Counts[i], w.Counts[i])
			}
		}
		if ph.Snapshot.Count() != w.Count() {
			t.Errorf("peer %q count = %d, want %d", ph.Labels["peer"], ph.Snapshot.Count(), w.Count())
		}
	}
	// A parsed snapshot diffs cleanly against a later parse — the scraper's
	// actual usage.
	all.Observe(5 * time.Millisecond)
	e2 := NewExpo()
	e2.Histogram("x_seconds", "help", all.Snapshot())
	parsed2, err := ParseExposition(e2.String())
	if err != nil {
		t.Fatalf("ParseExposition 2: %v", err)
	}
	after := parsed2.HistogramsOf("x_seconds")[0].Snapshot
	before := hists[0].Snapshot
	d, err := after.Diff(before)
	if err != nil {
		t.Fatalf("Diff of parsed snapshots: %v", err)
	}
	if d.Count() != 1 {
		t.Errorf("parsed interval count = %d, want 1", d.Count())
	}
	// 5ms falls in the (2.56ms, 5.12ms] bucket of the default bounds; the
	// interval quantile must land inside that bucket.
	if q := d.Quantile(0.5); q <= 2560*time.Microsecond || q > 5120*time.Microsecond {
		t.Errorf("parsed interval p50 = %v, want in (2.56ms, 5.12ms]", q)
	}
}
