package cluster

import (
	"net"
	"net/http"
	"time"

	"beyondcache/internal/faults"
)

// The package's HTTP clients are built here, in one place: the node's
// client, which after the peer plane reaches only the origin, and the Fleet
// driver's. The fault-injection layer has a single seam to wrap, and the
// tuned transport keeps enough idle connections per host that concurrent
// misses do not re-dial the origin (http.DefaultTransport keeps two) and
// bounds dial/TLS setup so a dead origin fails a connection attempt in
// seconds, not minutes.

// clientTimeout is the Fleet driver's request ceiling, and the ceiling on
// how long an injected inbound hang holds a peer call. The node's own client
// has none: fetchOrigin sets OriginTimeout, without Client.Timeout's goroutine.
const clientTimeout = 10 * time.Second

// metadataTimeout bounds one metadata-path attempt (a hint batch, a digest
// pull or a hint-home consult). Metadata is retried and eventually
// consistent, so one attempt to a dead target should fail fast, not ride out
// clientTimeout.
const metadataTimeout = 2 * time.Second

// newTransport builds the shared tuned http.Transport.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// newClient wraps a fresh tuned transport in a client with the given overall
// timeout (zero: none); inj, when non-nil, injects faults in front of the wire.
func newClient(inj *faults.Injector, timeout time.Duration) *http.Client {
	var rt http.RoundTripper = newTransport()
	if inj != nil {
		rt = faults.NewTransport(rt, inj)
	}
	return &http.Client{Transport: rt, Timeout: timeout}
}
