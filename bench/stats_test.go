package main

import (
	"math"
	"testing"
	"time"

	"beyondcache/internal/obs"
)

func TestPercentileExactOnKnownSamples(t *testing.T) {
	// 1..100 shuffled: the nearest-rank q-quantile is exactly 100q.
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64((i*37)%100 + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile([]int64{7, 1, 9, 3}, 0.5); got != 3 {
		t.Errorf("median of {1,3,7,9} = %d, want the lower middle 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := sortedPercentileOrZero(make([]int64, 999), 0.99); got != 0 {
		t.Errorf("p99 of 999 samples reported with fewer than 10 beyond it")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if m := medianFloat(v); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
}

func usec(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func chain(t *testing.T, xtrace string) []obs.Span {
	t.Helper()
	hops := obs.ParseHops(xtrace)
	if len(hops) == 0 {
		t.Fatalf("unparseable chain %q", xtrace)
	}
	return obs.SpansFromHops(1, hops[:len(hops)-1], hops[len(hops)-1])
}

func TestSelfTimesFromHopChains(t *testing.T) {
	for _, tc := range []struct {
		name   string
		client time.Duration
		xtrace string
		want   breakdown
	}{
		{
			name: "local hit", client: usec(50), xtrace: "node-0;LOCAL;1us",
			want: breakdown{TransportSelf: usec(49), NodeSelf: usec(1)},
		},
		{
			name: "remote: PEER-SERVE nests under PEER", client: usec(300),
			xtrace: "node-1;PEER-SERVE;2us|127.0.0.1:9;PEER;200us|node-0;REMOTE;230us",
			want: breakdown{TransportSelf: usec(70), NodeSelf: usec(30), Upstream: usec(200),
				PeerHop: usec(200), PeerServe: usec(2)},
		},
		{
			name: "hint-home consult then transfer", client: usec(400),
			xtrace: "127.0.0.1:7;HINT-HOME;80us|node-2;PEER-SERVE;3us|127.0.0.1:9;PEER;150us|node-0;REMOTE;260us",
			want: breakdown{TransportSelf: usec(140), NodeSelf: usec(30), Upstream: usec(230),
				PeerHop: usec(150), PeerServe: usec(3), HintHome: usec(80)},
		},
		{
			// The abandoned probe ran beside the origin fetch that won, so
			// the children (60ms + 2.5ms) outlast the node hop: self time
			// clamps at 0 instead of going negative.
			name: "hedged: overlapping children clamp", client: usec(61000),
			xtrace: "127.0.0.1:9;PEER-ABANDON;60000us|origin;ORIGIN-SERVE;2000us|origin;ORIGIN;2500us|node-0;MISS,HEDGE;60900us",
			want: breakdown{TransportSelf: usec(100), NodeSelf: 0, Upstream: usec(60900),
				OriginHop: usec(2500), OriginServe: usec(2000)},
		},
		{
			name: "directory miss then origin", client: usec(500),
			xtrace: "127.0.0.1:7;HINT-HOME-MISS;70us|origin;ORIGIN-SERVE;5us|origin;ORIGIN;90us|node-0;MISS;180us",
			want: breakdown{TransportSelf: usec(320), NodeSelf: usec(20), Upstream: usec(160),
				OriginHop: usec(90), OriginServe: usec(5), HintHome: usec(70)},
		},
	} {
		if got := selfTimes(tc.client, chain(t, tc.xtrace)); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

func TestTracerRecordsClientSpanAboveNodeGroup(t *testing.T) {
	tr := &tracer{client: "client-0"}
	tr.record(42, classRemote, usec(10), usec(300),
		"node-1;PEER-SERVE;2us|127.0.0.1:9;PEER;200us|node-0;REMOTE;230us")
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want CLIENT + 3", len(tr.spans))
	}
	want := []struct {
		outcome string
		parent  uint8
	}{{"CLIENT", obs.SpanRoot}, {"REMOTE", 0}, {"PEER-SERVE", 3}, {"PEER", 1}}
	for i, w := range want {
		s := tr.spans[i]
		if s.Outcome != w.outcome || s.Parent != w.parent || int(s.Index) != i || s.TraceID != 42 {
			t.Errorf("span %d = %+v, want outcome %s parent %d", i, s, w.outcome, w.parent)
		}
	}
	if got := tr.parts[classRemote][partTransport]; len(got) != 1 || got[0] != int64(usec(70)) {
		t.Errorf("transport self samples = %v, want one of 70µs", got)
	}
	if got := tr.hops[hopPeerTransport]; len(got) != 1 || got[0] != int64(usec(198)) {
		t.Errorf("peer transport self samples = %v, want one of 198µs", got)
	}
}
