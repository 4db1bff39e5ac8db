package cluster

import (
	"net"
	"net/http"
	"time"

	"beyondcache/internal/faults"
)

// The package's HTTP clients are all built here, in one place, so every
// server kind (Node, Fleet driver) shares the same tuned transport
// and the fault-injection layer has a single seam to wrap. The bare
// &http.Client{Timeout: 10s} the prototype started with used
// http.DefaultTransport's 2-connections-per-host idle pool, which made
// hot cache-to-cache paths re-dial under load; the tuned transport keeps
// a deep per-host idle pool and bounds dial/TLS setup so a dead peer
// fails a connection attempt in seconds, not minutes.

// clientTimeout is the overall request ceiling. Data-path operations run
// under much tighter per-hop context deadlines (NodeConfig.PeerTimeout,
// OriginTimeout); this is the backstop for everything else.
const clientTimeout = 10 * time.Second

// metadataTimeout bounds one metadata-path attempt (a hint-batch POST or a
// digest pull). Metadata is retried and eventually consistent, so one
// attempt to a dead target should fail fast, not ride out clientTimeout.
const metadataTimeout = 2 * time.Second

// newTransport builds the shared tuned http.Transport.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// newClient wraps rt (nil means a fresh tuned transport) in the package's
// standard client. inj, when non-nil, interposes the fault-injecting
// transport between the client and the wire.
func newClient(rt http.RoundTripper, inj *faults.Injector) *http.Client {
	if rt == nil {
		rt = newTransport()
	}
	if inj != nil {
		rt = faults.NewTransport(rt, inj)
	}
	return &http.Client{Transport: rt, Timeout: clientTimeout}
}
