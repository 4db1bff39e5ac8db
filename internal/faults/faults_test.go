package faults

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseSpecGrammar(t *testing.T) {
	rules, err := ParseSpec("peerB:latency=200ms,errrate=0.1; 127.0.0.1:8002:jitter=5ms,errcode=502,droprate=0.25 ; *:flap=1s/2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules: %+v", len(rules), rules)
	}
	r := rules[0]
	if r.Target != "peerB" || r.Latency != 200*time.Millisecond || r.ErrRate != 0.1 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = rules[1]
	if r.Target != "127.0.0.1:8002" || r.Jitter != 5*time.Millisecond || r.ErrCode != 502 || r.DropRate != 0.25 {
		t.Errorf("rule 1 = %+v", r)
	}
	r = rules[2]
	if r.Target != "*" || r.FlapDown != time.Second || r.FlapUp != 2*time.Second {
		t.Errorf("rule 2 = %+v", r)
	}

	if rules, err := ParseSpec(""); err != nil || rules != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", rules, err)
	}
	if rules, err := ParseSpec("x:partition"); err != nil || !rules[0].Partition {
		t.Errorf("partition spec = %+v, %v", rules, err)
	}
	if rules, err := ParseSpec("x:blackhole"); err != nil || rules[0].Hang < time.Minute {
		t.Errorf("blackhole spec = %+v, %v", rules, err)
	}
	if rules, err := ParseSpec("x:timeout=3s"); err != nil || rules[0].Hang != 3*time.Second {
		t.Errorf("timeout spec = %+v, %v", rules, err)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"noopts",          // no colon
		"x:",              // empty opts
		"x:latency",       // missing value
		"x:latency=fast",  // bad duration
		"x:errrate=1.5",   // rate out of range
		"x:errrate=-0.1",  // negative rate
		"x:errcode=200",   // not an error code
		"x:flap=1s",       // missing up duration
		"x:flap=0s/1s",    // non-positive
		"x:wobble=1",      // unknown key
		"x:partition=yes", // flag with value
		"x:latency=-5ms",  // negative duration
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestDecideMatchesFirstRule(t *testing.T) {
	inj, err := New("127.0.0.1:9001:partition;*:latency=5ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.Decide("127.0.0.1:9001"); !d.Drop {
		t.Errorf("specific rule not applied: %+v", d)
	}
	if d := inj.Decide("127.0.0.1:9999"); d.Drop || d.Delay != 5*time.Millisecond {
		t.Errorf("wildcard fallback not applied: %+v", d)
	}
	// Host-only targets match any port.
	inj2, _ := New("10.0.0.1:partition", 1)
	if d := inj2.Decide("10.0.0.1:8080"); !d.Drop {
		t.Errorf("host rule did not match host:port: %+v", d)
	}
	if d := inj2.Decide("10.0.0.2:8080"); d.Drop {
		t.Errorf("host rule matched wrong host: %+v", d)
	}
}

func TestDecideDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []bool {
		inj, err := New("*:errrate=0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Decide("a:1").Code != 0
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences (suspicious)")
	}
}

func TestFlapSchedule(t *testing.T) {
	inj, err := New("peer:flap=100ms/200ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	now := base
	inj.SetClock(func() time.Time { return now })

	at := func(offset time.Duration) bool {
		now = base.Add(offset)
		return inj.Decide("peer").Drop
	}
	cases := []struct {
		off  time.Duration
		down bool
	}{
		{0, true}, // start of first down window
		{50 * time.Millisecond, true},
		{150 * time.Millisecond, false}, // up window
		{299 * time.Millisecond, false},
		{300 * time.Millisecond, true}, // second cycle
		{350 * time.Millisecond, true},
		{450 * time.Millisecond, false},
	}
	for _, c := range cases {
		if got := at(c.off); got != c.down {
			t.Errorf("at %v: down=%v, want %v", c.off, got, c.down)
		}
	}
	if n := inj.Counts().Flaps; n == 0 {
		t.Error("flap counter never incremented")
	}
}

// The three TestTransport tests drive Decide(...).Apply, the sequence every
// outbound injection point (the cluster's peer plane and origin link) runs in
// front of the wire.

func TestTransportInjectsErrorAndDrop(t *testing.T) {
	const target = "127.0.0.1:9"
	inj, err := New("*:errrate=1,errcode=503", 1)
	if err != nil {
		t.Fatal(err)
	}
	if code, err := inj.Decide(target).Apply(context.Background(), target); err != nil || code != 503 {
		t.Errorf("Apply = %d, %v; want the injected 503", code, err)
	}
	if inj.Counts().Errors != 1 {
		t.Errorf("counts = %+v", inj.Counts())
	}

	if err := inj.SetSpec("*:droprate=1"); err != nil {
		t.Fatal(err)
	}
	_, err = inj.Decide(target).Apply(context.Background(), target)
	var ie *InjectedError
	if err == nil || !errors.As(err, &ie) || ie.Kind != "drop" || ie.Target != target {
		t.Errorf("drop not injected: %v", err)
	}

	// Healing the spec lets the call through: no status, no error.
	if err := inj.SetSpec(""); err != nil {
		t.Fatal(err)
	}
	if code, err := inj.Decide(target).Apply(context.Background(), target); err != nil || code != 0 {
		t.Errorf("healed Apply = %d, %v; want 0, nil", code, err)
	}
}

func TestTransportHangRespectsContext(t *testing.T) {
	const target = "192.0.2.1:9"
	inj, err := New("*:blackhole", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := inj.Decide(target).Apply(ctx, target); err != context.DeadlineExceeded {
		t.Fatalf("blackholed call = %v, want the context's own error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("blackhole ignored context deadline: took %v", elapsed)
	}
	if inj.Counts().Hangs != 1 {
		t.Errorf("counts = %+v", inj.Counts())
	}
}

func TestTransportAddsLatency(t *testing.T) {
	const target = "127.0.0.1:9"
	inj, err := New("*:latency=40ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if code, err := inj.Decide(target).Apply(context.Background(), target); err != nil || code != 0 {
		t.Fatalf("delayed Apply = %d, %v; want 0, nil", code, err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("latency not injected: %v", elapsed)
	}
	if inj.Counts().Latency != 1 {
		t.Errorf("counts = %+v", inj.Counts())
	}
}

func TestMiddlewareInjectsServerSide(t *testing.T) {
	inj, err := New("me:errrate=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	var served bool
	h := Middleware(inj, "me", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served = true
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || served {
		t.Errorf("status %d served=%v; want injected 503", resp.StatusCode, served)
	}

	// Drop aborts the connection: the client sees a transport error.
	if err := inj.SetSpec("me:partition"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL); err == nil {
		t.Error("server-side drop produced a clean response")
	}

	// A label the spec does not mention passes straight through.
	if err := inj.SetSpec("someone-else:errrate=1"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !served {
		t.Errorf("untargeted request: status %d served=%v", resp.StatusCode, served)
	}
}
