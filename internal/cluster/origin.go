// Package cluster is the networked prototype of the hint architecture,
// mirroring the paper's Squid modification (Section 3.2): cache nodes speak
// HTTP over TCP to clients and the origin and a framed protocol to each
// other (peer.go), keep 16-byte location-hint records in a set-associative
// table, exchange batched 20-byte hint updates (4-byte action, 8-byte object
// hash, 8-byte machine ID) as periodic hint calls, and serve each other's
// misses with direct cache-to-cache transfers. A miss whose hint turns out stale
// gets an error from the peer and falls through to the origin server — the
// false-positive path of Section 3.1.1.
package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"beyondcache/internal/obs"
)

// Origin is a synthetic origin server: it serves a deterministic body for
// any URL path, with an explicit version that can be bumped to invalidate
// cached copies. It stands in for the live web servers the paper's testbed
// fetched from.
type Origin struct {
	mu       sync.Mutex
	versions map[string]int64
	sizes    map[string]int64
	fetches  int64

	defaultSize int64
	// latency is an artificial service delay per object request,
	// standing in for WAN round trips to far-away servers.
	latency time.Duration
	// serveHist times /obj service, artificial latency included.
	serveHist *obs.Histogram
	nw        network // what Start listens on
	srv       *http.Server
	lis       net.Listener
	done      chan struct{}
}

// NewOrigin creates an origin whose objects default to defaultSize bytes.
func NewOrigin(defaultSize int64) *Origin {
	if defaultSize <= 0 {
		defaultSize = 8 << 10
	}
	return &Origin{
		versions:    make(map[string]int64),
		sizes:       make(map[string]int64),
		defaultSize: defaultSize,
		serveHist:   obs.NewHistogram(nil),
		nw:          tcp(),
		done:        make(chan struct{}),
	}
}

// Handler returns the origin's HTTP handler, for callers that serve the
// origin from their own server (an httptest.Server, typically) instead of
// Start's listener.
func (o *Origin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/obj", o.handleObj)
	mux.HandleFunc("/bump", o.handleBump)
	mux.HandleFunc("/metrics", o.handleMetrics)
	return mux
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close.
func (o *Origin) Start(addr string) error {
	lis, err := o.nw.listen(addr)
	if err != nil {
		return fmt.Errorf("origin listen: %w", err)
	}
	o.lis = lis
	o.srv = &http.Server{
		Handler:           o.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       30 * time.Second,
	}
	go func() {
		defer close(o.done)
		// ErrServerClosed is the normal shutdown signal.
		_ = o.srv.Serve(lis)
	}()
	return nil
}

// Addr returns the listening address.
func (o *Origin) Addr() string {
	if o.lis == nil {
		return ""
	}
	return o.lis.Addr().String()
}

// URL returns the base URL of the origin.
func (o *Origin) URL() string { return "http://" + o.Addr() }

// Close shuts the server down.
func (o *Origin) Close() error {
	if o.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	err := o.srv.Shutdown(ctx)
	if err != nil {
		_ = o.srv.Close()
		err = nil
	}
	<-o.done
	return err
}

// SetLatency injects an artificial delay before every object reply,
// modeling the WAN distance to origin servers. Safe to call while serving.
func (o *Origin) SetLatency(d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.latency = d
}

// SetSize fixes the body size of one URL.
func (o *Origin) SetSize(url string, size int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sizes[url] = size
}

// Bump increments the version of a URL, changing its body.
func (o *Origin) Bump(url string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.versions[url]++
	return o.versions[url] + 1
}

// Fetches returns how many object requests the origin has served.
func (o *Origin) Fetches() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fetches
}

// lookup counts one fetch of a URL and returns its version and size, and
// the service delay to apply, under one hold of the lock.
func (o *Origin) lookup(url string) (version, size int64, delay time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fetches++
	size, ok := o.sizes[url]
	if !ok {
		size = o.defaultSize
	}
	return o.versions[url] + 1, size, o.latency
}

// handleObj serves GET /obj?url=U.
func (o *Origin) handleObj(w http.ResponseWriter, r *http.Request) {
	url := queryURL(r)
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	start := time.Now()
	version, size, delay := o.lookup(url)
	if delay > 0 {
		time.Sleep(delay)
	}
	elapsed := time.Since(start)
	o.serveHist.Observe(elapsed)
	w.Header().Set(headerTraceHop,
		obs.Hop{Node: "origin", Outcome: "ORIGIN-SERVE", Elapsed: elapsed}.Segment())
	w.Header().Set(headerVersion, strconv.FormatInt(version, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header()["Content-Type"] = octetStream
	w.WriteHeader(http.StatusOK)
	w.Write(objectBody(url, version, size))
}

// handleBump serves POST /bump?url=U, invalidating the current body.
func (o *Origin) handleBump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	url := queryURL(r)
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	v := o.Bump(url)
	fmt.Fprintf(w, "%d", v)
}

// objectBody builds the deterministic body for (url, version, size): a
// repeating pattern derived from both, so any version change is visible in
// the payload. It is built whole so that it leaves in one Write: written in
// pieces, each piece is a syscall here and a wake-up of the fetching node.
func objectBody(url string, version int64, size int64) []byte {
	body := make([]byte, max(size, 0))
	for n := copy(body, fmt.Sprintf("%s#%d|", url, version)); n < len(body); {
		n += copy(body[n:], body[:n])
	}
	return body
}
