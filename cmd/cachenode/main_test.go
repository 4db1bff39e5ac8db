package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"beyondcache/internal/cluster"
)

// startDaemon runs the command with a controllable wait, returning the base
// URL it printed (the last "serving on" line, the main listener) and a
// stopper. With -debug-addr the debug listener's URL comes first; use
// startDaemonAll to see both.
func startDaemon(t *testing.T, args []string) (url string, stop func()) {
	t.Helper()
	urls, stop := startDaemonAll(t, args)
	return urls[len(urls)-1], stop
}

// startDaemonAll is startDaemon returning every printed listener URL in
// print order.
func startDaemonAll(t *testing.T, args []string) (urls []string, stop func()) {
	t.Helper()
	var out bytes.Buffer
	release := make(chan struct{})
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		done <- run(args, &out, func() {
			close(started)
			<-release
		})
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not start")
	}
	for _, m := range regexp.MustCompile(`serving on (http://\S+)`).FindAllStringSubmatch(out.String(), -1) {
		urls = append(urls, m[1])
	}
	if len(urls) == 0 {
		t.Fatalf("no URL in output %q", out.String())
	}
	return urls, func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	}
}

func TestOriginAndNodeEndToEnd(t *testing.T) {
	originURL, stopOrigin := startDaemon(t, []string{"-origin", "-object-size", "2048"})
	defer stopOrigin()
	nodeURL, stopNode := startDaemon(t, []string{"-origin-url", originURL})
	defer stopNode()

	client := &http.Client{Timeout: 5 * time.Second}
	res, err := cluster.FetchFrom(client, nodeURL, "http://example.com/cli")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Miss() || res.Bytes != 2048 {
		t.Fatalf("first fetch = %+v, want 2048-byte MISS", res)
	}
	res, err = cluster.FetchFrom(client, nodeURL, "http://example.com/cli")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local() {
		t.Fatalf("second fetch = %+v, want LOCAL", res)
	}
}

// TestDebugAndMetricsEndpoints boots a node with -debug-addr and checks the
// two observability surfaces: pprof on the private debug listener, and the
// Prometheus exposition on the public one.
func TestDebugAndMetricsEndpoints(t *testing.T) {
	originURL, stopOrigin := startDaemon(t, []string{"-origin"})
	defer stopOrigin()
	urls, stopNode := startDaemonAll(t, []string{
		"-origin-url", originURL, "-debug-addr", "127.0.0.1:0", "-trace-sample", "1"})
	defer stopNode()
	if len(urls) != 2 {
		t.Fatalf("want debug + node URLs, got %v", urls)
	}
	debugURL, nodeURL := urls[0], urls[1]

	client := &http.Client{Timeout: 5 * time.Second}
	if _, err := cluster.FetchFrom(client, nodeURL, "http://example.com/dbg"); err != nil {
		t.Fatal(err)
	}
	for url, wantBody := range map[string]string{
		debugURL:                 "Types of profiles available", // pprof index (already /debug/pprof/)
		nodeURL + "/metrics":     "beyondcache_fetch_total",
		nodeURL + "/debug/spans": "MISS", // binary span records carry the outcome verbatim
	} {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		if !strings.Contains(string(body), wantBody) {
			t.Errorf("GET %s: body lacks %q", url, wantBody)
		}
	}
}

func TestNodeRequiresOrigin(t *testing.T) {
	err := run([]string{}, &bytes.Buffer{}, func() {})
	if err == nil || !strings.Contains(err.Error(), "origin-url") {
		t.Errorf("missing origin not rejected: %v", err)
	}
}

func TestBadFlagsRejected(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}, func() {}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-origin", "-listen", "999.999.999.999:1"}, &bytes.Buffer{}, func() {}); err == nil {
		t.Error("unlistenable address accepted")
	}
	for _, flag := range []string{"-inject", "-inject-inbound"} {
		if err := run([]string{"-origin-url", "http://127.0.0.1:1", flag, "*:latency=soon"}, &bytes.Buffer{}, func() {}); err == nil {
			t.Errorf("unparsable %s spec accepted", flag)
		}
	}
}

// registeredFlags returns the name of every flag run registers, read from
// the usage text -h prints (the flag set's output is the process's stderr).
func registeredFlags(t *testing.T) []string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"}, io.Discard, func() {})
	os.Stderr = stderr
	w.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z-]*)`).FindAllSubmatch(usage, -1) {
		names = append(names, string(m[1]))
	}
	return names
}

// TestFlagsAndReadmeAgree keeps README.md and the flag set from drifting:
// every registered flag is documented there as `-name` (arguments may follow
// inside the backticks), and every "| `-name` |" row of a README table names
// a flag that exists. A flag table for another command would have to
// lead its rows with something other than a bare backticked flag.
func TestFlagsAndReadmeAgree(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := registeredFlags(t)
	registered := make(map[string]bool)
	for _, name := range flags {
		registered[name] = true
		if !regexp.MustCompile("`-" + name + "[` ]").Match(readme) {
			t.Errorf("flag -%s is not documented in README.md", name)
		}
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z][a-z-]*)` \\|").FindAllSubmatch(readme, -1) {
		if !registered[string(m[1])] {
			t.Errorf("README.md has a table row for -%s, which cachenode does not register", m[1])
		}
	}
}

// TestFlagCountOnlyShrinks pins how many flags an operator can set, as
// cluster's TestConfigSurfaceOnlyShrinks pins the config fields behind them.
func TestFlagCountOnlyShrinks(t *testing.T) {
	const pinned = 18
	if flags := registeredFlags(t); len(flags) != pinned {
		t.Errorf("cachenode registers %d flags, pinned at %d: the count may only go down without a ROADMAP entry (lower the pin here when it does): %v",
			len(flags), pinned, flags)
	}
}

func TestNormalizeTargets(t *testing.T) {
	got, err := normalizeTargets(
		" http://a:1 ,, http://b:2/ ,http://a:1, b:2 , c:3", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2/", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("normalizeTargets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalizeTargets = %v, want %v", got, want)
		}
	}

	// The peer plane speaks plain HTTP: a peer it could never reach is refused.
	if _, err := normalizeTargets("http://a:1, https://c:3", ""); err == nil {
		t.Error("https peer accepted")
	}

	if _, err := normalizeTargets("http://x:1,http://127.0.0.1:9999", "127.0.0.1:9999"); err == nil {
		t.Error("own listen address accepted")
	} else if !strings.Contains(err.Error(), "own listen address") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestOwnAddressAmongPeersRefused: the peers are added before the node starts
// (and binds), and one that turns out to be the address it bound is still
// refused, the node closed behind the refusal.
func TestOwnAddressAmongPeersRefused(t *testing.T) {
	originURL, stopOrigin := startDaemon(t, []string{"-origin"})
	defer stopOrigin()
	addr := freeAddr(t)
	err := run([]string{"-origin-url", originURL, "-listen", addr, "-peers", "http://127.0.0.1:1, http://" + addr + "/"},
		&bytes.Buffer{}, func() { t.Error("the node came up with itself for a peer") })
	if err == nil || !strings.Contains(err.Error(), "own listen address "+addr) {
		t.Errorf("run = %v, want the own-listen-address refusal", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Error("the refused node is still listening")
	}
}

// freeAddr reserves an ephemeral port and releases it, so two nodes can be
// started with each other's address on the command line.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestPartitionedPairEndToEnd boots two partitioned nodes peered at each
// other; after node A fills an object and hints flush, node B's fetch must
// land REMOTE via either its local directory partition or the object's
// hint home.
func TestPartitionedPairEndToEnd(t *testing.T) {
	originURL, stopOrigin := startDaemon(t, []string{"-origin"})
	defer stopOrigin()
	addrA, addrB := freeAddr(t), freeAddr(t)
	aURL, stopA := startDaemon(t, []string{
		"-origin-url", originURL, "-hint-replicas", "2", "-update-interval", "50ms",
		"-listen", addrA, "-peers", "http://" + addrB})
	defer stopA()
	_, stopB := startDaemon(t, []string{
		"-origin-url", originURL, "-hint-replicas", "2", "-update-interval", "50ms",
		"-listen", addrB, "-peers", "http://" + addrA})
	defer stopB()
	client := &http.Client{Timeout: 5 * time.Second}
	bURL := "http://" + addrB

	// A fresh object per attempt: once B misses to the origin it holds the
	// object itself and every later fetch of the same URL is LOCAL.
	var last cluster.FetchResult
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("http://example.com/pp-%d", i)
		if _, err := cluster.FetchFrom(client, aURL, url); err != nil {
			t.Fatal(err)
		}
		time.Sleep(250 * time.Millisecond) // several 50ms flush intervals
		res, err := cluster.FetchFrom(client, bURL, url)
		if err != nil {
			t.Fatal(err)
		}
		if res.Remote() {
			return
		}
		last = res
	}
	t.Fatalf("fetch from B never went REMOTE (last %+v)", last)
}
