package cluster

import (
	"net"
	"net/http"
	"time"
)

// The package's one HTTP client is built here: the Fleet driver's, which
// talks to the nodes the way a browser would. Nodes themselves hold none —
// peers are reached over the peer plane (peer.go) and the origin over the
// origin link (originlink.go). The tuned transport keeps enough idle
// connections per host that a driver's concurrent requests do not re-dial a
// node (http.DefaultTransport keeps two) and bounds dial/TLS setup so a dead
// node fails a connection attempt in seconds, not minutes.

// clientTimeout is the Fleet driver's request ceiling, and the ceiling on
// how long an injected inbound hang holds a peer call.
const clientTimeout = 10 * time.Second

// metadataTimeout bounds one metadata-path attempt (a hint batch, a digest
// pull or a hint-home consult). Metadata is retried and eventually
// consistent, so one attempt to a dead target should fail fast, not ride out
// clientTimeout.
const metadataTimeout = 2 * time.Second

// newClient wraps a fresh tuned transport in a client with the given overall
// timeout.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
	}}
}
