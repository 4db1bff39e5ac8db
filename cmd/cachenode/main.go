// Command cachenode runs one node of the networked hint-cache prototype, or
// (with -origin) the synthetic origin server the nodes fetch misses from.
//
// A three-node fleet on one machine:
//
//	cachenode -origin -listen 127.0.0.1:8000 &
//	cachenode -listen 127.0.0.1:8001 -origin-url http://127.0.0.1:8000 \
//	          -peers http://127.0.0.1:8002,http://127.0.0.1:8003 &
//	cachenode -listen 127.0.0.1:8002 -origin-url http://127.0.0.1:8000 \
//	          -peers http://127.0.0.1:8001,http://127.0.0.1:8003 &
//	cachenode -listen 127.0.0.1:8003 -origin-url http://127.0.0.1:8000 \
//	          -peers http://127.0.0.1:8001,http://127.0.0.1:8002 &
//
// Then fetch through any node:
//
//	curl 'http://127.0.0.1:8001/fetch?url=http://example.com/page'
//
// The X-Cache response header reports LOCAL, REMOTE (direct cache-to-cache
// transfer), or MISS (origin fetch).
//
// Hint batches go to every peer, each node keeping the whole hint directory;
// with -hint-replicas R (R > 0) on every node they route to each object's R
// Plaxton hint homes instead (the paper's self-configuring metadata
// hierarchy); with -digests nodes pull each other's Bloom-filter digests.
// Data transfers are direct cache-to-cache in every case.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only behind -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"beyondcache/internal/cluster"
	"beyondcache/internal/faults"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, func() { <-stop }); err != nil {
		fmt.Fprintln(os.Stderr, "cachenode:", err)
		os.Exit(1)
	}
}

// run starts the configured server, calls wait, then shuts down. Split out
// of main so tests can drive it with their own wait function.
func run(args []string, out io.Writer, wait func()) error {
	fs := flag.NewFlagSet("cachenode", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "address to listen on")
		originMode  = fs.Bool("origin", false, "run as the origin server instead of a cache node")
		originURL   = fs.String("origin-url", "", "origin server base URL (cache nodes)")
		peers       = fs.String("peers", "", "comma-separated peer base URLs")
		name        = fs.String("name", "", "node name for stats (default: listen address)")
		cacheBytes  = fs.Int64("cache-bytes", 64<<20, "object cache capacity in bytes")
		cacheDir    = fs.String("cache-dir", "", "directory for the persistent disk tier; evictions spill here and the population is recovered and re-advertised on boot (off when empty)")
		diskCap     = fs.Int64("disk-capacity", 0, "disk tier capacity in bytes; overflow retires the oldest log segment (0: unbounded; requires -cache-dir)")
		spillQueue  = fs.Int("spill-queue", 0, "bounded write-behind spill queue, in evicted objects; overflow drops oldest (0: 1024 default)")
		interval    = fs.Duration("update-interval", time.Second, "mean hint batch interval")
		digests     = fs.Bool("digests", false, "exchange Bloom-filter cache digests instead of exact hint records")
		hintReps    = fs.Int("hint-replicas", 0, "hint directory owner-set size R: each object's hints live on a Plaxton-routed owner set of this many nodes (0: every node owns every object and keeps the whole directory; DESIGN.md \u00a714)")
		objectSize  = fs.Int64("object-size", 8<<10, "origin default object size")
		traceSample = fs.Float64("trace-sample", 0, "fraction of fetches recorded in /debug/spans (0: node default of 1/64, >=1: all, <0: none)")
		debugAddr   = fs.String("debug-addr", "", "optional address for a net/http/pprof debug listener (off when empty)")

		inject    = fs.String("inject", "", `outbound fault spec, e.g. "127.0.0.1:8002:latency=200ms,errrate=0.1;*:droprate=0.01" (see internal/faults)`)
		injectIn  = fs.String("inject-inbound", "", "inbound fault spec: this node misbehaving as seen by its clients (rules match the node's own address)")
		faultSeed = fs.Int64("fault-seed", 0, "seed for injected-fault randomness")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *debugAddr != "" {
		stopDebug, err := serveDebug(*debugAddr, out)
		if err != nil {
			return err
		}
		defer stopDebug()
	}

	if *originMode {
		o := cluster.NewOrigin(*objectSize)
		if err := o.Start(*listen); err != nil {
			return err
		}
		fmt.Fprintf(out, "origin serving on %s\n", o.URL())
		wait()
		return o.Close()
	}

	if *originURL == "" {
		return fmt.Errorf("-origin-url is required for cache nodes")
	}
	peerURLs, err := normalizeTargets(*peers, "")
	if err != nil {
		return err
	}
	outbound, err := injector(*inject, *faultSeed)
	if err != nil {
		return err
	}
	inbound, err := injector(*injectIn, *faultSeed+1)
	if err != nil {
		return err
	}
	n, err := cluster.NewNode(cluster.NodeConfig{
		Name:           *name,
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		DiskCapacity:   *diskCap,
		SpillQueue:     *spillQueue,
		OriginURL:      *originURL,
		UpdateInterval: *interval,
		UseDigests:     *digests,
		HintReplicas:   *hintReps,
		TraceSample:    *traceSample,
		Faults:         outbound,
		InboundFaults:  inbound,
	})
	if err != nil {
		return err
	}
	if *inject != "" || *injectIn != "" {
		fmt.Fprintf(out, "chaos enabled (outbound %q, inbound %q, seed %d)\n", *inject, *injectIn, *faultSeed)
	}
	// Peers first: Start begins boot recovery, whose republish round must
	// find a mesh to go to. Only once it has bound is the node's own address
	// known, and a -peers entry naming it refused.
	for _, p := range peerURLs {
		n.AddPeer(p)
	}
	if err := n.Start(*listen); err != nil {
		return err
	}
	if _, err := normalizeTargets(*peers, n.Addr()); err != nil {
		_ = n.Close()
		return err
	}
	fmt.Fprintf(out, "cache node serving on %s (origin %s, %d peers)\n",
		n.URL(), *originURL, len(peerURLs))
	wait()
	return n.Close()
}

// injector builds the fault injector a spec flag asks for: none when empty.
func injector(spec string, seed int64) (*faults.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	return faults.New(spec, seed)
}

// normalizeTargets splits the comma-separated -peers list, trims whitespace,
// drops empty entries, dedupes (first occurrence wins, compared on the
// host:port behind any "http://" and trailing slash), and rejects a peer
// with any other scheme — the peer plane speaks plain HTTP — and the node's
// own listen address: a node feeding hints or probes back to itself is
// always a misconfiguration and would double-count the local machine in the
// hint overlay.
func normalizeTargets(list, self string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, raw := range strings.Split(list, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		key := strings.TrimPrefix(strings.TrimSuffix(u, "/"), "http://")
		if strings.Contains(key, "://") {
			return nil, fmt.Errorf("-peers entry %q: want http://host:port", u)
		}
		if self != "" && key == self {
			return nil, fmt.Errorf("-peers includes this node's own listen address %s", self)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, u)
	}
	return out, nil
}

// serveDebug binds net/http/pprof (via DefaultServeMux) on addr. Opt-in
// only: profiling endpoints stay off the node's public listener so exposing
// /fetch never exposes heap dumps.
func serveDebug(addr string, out io.Writer) (stop func(), err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen: %w", err)
	}
	srv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	fmt.Fprintf(out, "debug (pprof) serving on http://%s/debug/pprof/\n", lis.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close()
		}
		<-done
	}, nil
}
