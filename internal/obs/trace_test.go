package obs

import (
	"strings"
	"testing"
	"time"
)

func TestHopSegmentRoundTrip(t *testing.T) {
	hops := []Hop{
		{Node: "edge-1", Outcome: "PEER-SERVE", Elapsed: 42 * time.Microsecond},
		{Node: "edge-0", Outcome: "LOCAL,COALESCED", Elapsed: 1500 * time.Nanosecond},
	}
	s := FormatChain(hops[:1], hops[1])
	// Outcomes contain commas, so the chain separator must not be a comma.
	if strings.Count(s, "|") != 1 {
		t.Fatalf("chain %q should have exactly one separator", s)
	}
	got := ParseHops(s)
	if len(got) != 2 {
		t.Fatalf("got %d hops", len(got))
	}
	if got[0] != hops[0] {
		t.Errorf("hop 0 = %+v, want %+v", got[0], hops[0])
	}
	// Sub-microsecond elapsed truncates to whole microseconds.
	if got[1].Elapsed != 1*time.Microsecond {
		t.Errorf("hop 1 elapsed = %v, want 1µs", got[1].Elapsed)
	}
	if got[1].Outcome != "LOCAL,COALESCED" {
		t.Errorf("hop 1 outcome = %q", got[1].Outcome)
	}
}

func TestParseHopsDropsMalformed(t *testing.T) {
	for _, bad := range []string{"nodeonly", "a;b", "a;b;notaduration", ";LOCAL;1us", "a;;1us", "a;b;-3us"} {
		if _, ok := ParseSegment(bad); ok {
			t.Errorf("ParseSegment(%q) accepted malformed input", bad)
		}
	}
	if hops := ParseHops(""); hops != nil {
		t.Errorf("empty chain should be nil; got %v", hops)
	}
	// Malformed segments are dropped, good ones kept.
	hops := ParseHops("a;LOCAL;1us|garbage|b;MISS;2us")
	if len(hops) != 2 || hops[0].Node != "a" || hops[1].Node != "b" {
		t.Errorf("mixed chain parsed as %v", hops)
	}
}

func TestSamplerRates(t *testing.T) {
	t.Run("all", func(t *testing.T) {
		s := NewSampler(1)
		for i := 0; i < 10; i++ {
			if !s.Sample() {
				t.Fatal("rate 1 must sample everything")
			}
		}
	})
	t.Run("disabled", func(t *testing.T) {
		s := NewSampler(-1)
		for i := 0; i < 10; i++ {
			if s.Sample() {
				t.Fatal("negative rate must sample nothing")
			}
		}
	})
	t.Run("one in k", func(t *testing.T) {
		s := NewSampler(0.25)
		hits := 0
		for i := 0; i < 400; i++ {
			if s.Sample() {
				hits++
			}
		}
		if hits != 100 {
			t.Errorf("1-in-4 sampler hit %d of 400", hits)
		}
	})
}
