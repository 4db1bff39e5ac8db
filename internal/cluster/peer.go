package cluster

// The peer plane (DESIGN.md §15): everything one cache node says to another
// — object transfers, hint-home consults, hint batches, digest pulls,
// liveness probes — is a wire.PeerHeader frame on a connection dialed on the
// peer's ordinary listener (GET /peer, upgraded; the front door hands the
// accepted end over). A call leases a connection from the peer's record, as
// an origin fetch does from the origin link (originlink.go), and holds it for
// that one call, so nothing waits behind a slow one. Deadlines, breakers,
// retries and fault injection stay per call, above this file.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"beyondcache/internal/faults"
	"beyondcache/internal/hintcache"
	"beyondcache/internal/obs"
	"beyondcache/internal/wire"
)

const (
	// peerProto names the protocol in the Upgrade handshake; in its 101 the
	// accepting node sends the label its self-timed hop segments carry.
	peerProto       = "beyondcache-peer/1"
	headerPeerLabel = "X-Peer-Label"
	// peerRequestLimit bounds a request body other than a hint batch (in
	// practice a URL); updatesLimit bounds the record bytes of one hint
	// batch (a full hintQueueCap batch is 160 KB).
	peerRequestLimit = 16 << 10
	updatesLimit     = 1 << 20
	// peerDialTimeout bounds connect plus handshake. peerWriteTimeout
	// bounds the write of an answer (and of the 101): a peer that stops
	// reading costs its connection, not a serve loop for ever.
	peerDialTimeout  = 2 * time.Second
	peerWriteTimeout = 5 * time.Second
	// peerInlineBody is the largest body copied behind its header into one
	// write; larger ones go out as a two-part vectored write instead.
	peerInlineBody = 4 << 10
	// clientTimeout is the ceiling on any deadline in the package: the Fleet
	// driver's per request, and how long an injected inbound hang holds a
	// peer call.
	clientTimeout = 10 * time.Second
	// metadataTimeout bounds one call to a peer: a hint batch, a digest
	// pull, a hint-home consult or an object transfer. One attempt to a dead
	// target should fail fast, not ride out clientTimeout; a transfer has
	// had the origin raced beside it long before (DESIGN.md §8).
	metadataTimeout = 2 * time.Second
)

var (
	errPeerAborted = errors.New("peer aborted the call")
	// longAgo is the deadline that cuts short a blocked read or write.
	longAgo = time.Unix(1, 0)
)

// peerPlane is a node's side of the connections between it and its peers:
// every live one, dialed or accepted, for close to cut — the front door
// forgets a connection it has handed over — and, under the same lock, each
// peer record's idle set.
type peerPlane struct {
	connSet
	// ctx ends with the plane, cutting short faulted calls' sleeps.
	ctx  context.Context
	stop context.CancelFunc
}

func (p *peerPlane) close() {
	p.stop()
	p.connSet.close()
}

// dialPeer connects to host and upgrades the connection: GET /peer on the
// peer's ordinary listener, answered 101 with the peer's label. It gives up
// when ctx ends, or after peerDialTimeout: a peer that accepts and says
// nothing holds no abandoned caller.
func dialPeer(ctx context.Context, nw network, host string) (*upConn, error) {
	ctx, cancel := context.WithTimeout(ctx, peerDialTimeout)
	defer cancel()
	c, err := nw.dial(ctx, host)
	if err != nil {
		return nil, err
	}
	// The 101 is metered as an origin answer's head is: whatever answers at
	// a peer's address cannot make the dialer buffer one endless header line
	// until ctx ends.
	uc := newUpConn(c)
	stop := context.AfterFunc(ctx, uc.cut)
	_, err = io.WriteString(c, "GET /peer HTTP/1.1\r\nHost: "+host+"\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n\r\n")
	var resp *http.Response
	if err == nil {
		if resp, err = http.ReadResponse(uc.br, nil); err != nil && uc.lr.N <= 0 {
			err = errHeadTooLong
		}
	}
	if err == nil && (resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != peerProto) {
		err = fmt.Errorf("upgrade refused: %s", resp.Status)
	}
	if !stop() && err == nil {
		err = ctx.Err() // the deadline may yet be cut: not a connection to keep
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("peer dial %s: %w", host, err)
	}
	uc.label = resp.Header.Get(headerPeerLabel)
	return uc, nil
}

// peerReply is a peer's answer to one call: the response header, its body,
// and the label the peer gave itself in the handshake.
type peerReply struct {
	wire.PeerHeader
	body  []byte
	label string
}

// call writes one call on a leased connection, under the next ID, and reads
// its answer. An answer that is not this call's — another ID or op, a
// request, a body past what its op allows (none; a digest up to
// digestBodyLimit; for an object, or a holder answer serving the home's own
// copy, any length, readSized bounding what the length alone can allocate) —
// fails the call, and the connection with it.
func (uc *upConn) call(h wire.PeerHeader, body []byte) (peerReply, error) {
	uc.calls++
	h.ID = uc.calls
	if err := uc.writeFrame(h, body); err != nil {
		return peerReply{}, err
	}
	hdr, err := uc.br.Peek(wire.PeerHeaderSize)
	if err != nil {
		return peerReply{}, err
	}
	a, err := wire.DecodePeerHeader(hdr)
	uc.br.Discard(wire.PeerHeaderSize)
	uc.lr.N = math.MaxInt64
	bodyOK := a.Len == 0 || a.Op == wire.PeerObject || a.Op == wire.PeerHolder || a.Op == wire.PeerDigest && a.Len <= digestBodyLimit
	if err == nil && (!a.Response || a.ID != h.ID || a.Op != h.Op || !bodyOK) {
		err = fmt.Errorf("peer plane: unexpected frame (op %d, call %d, %d body bytes)", a.Op, a.ID, a.Len)
	}
	if err != nil {
		return peerReply{}, err
	}
	// A slice of its own, exactly sized: for an object, the one the cache
	// will keep.
	out, err := readSized(uc.br, int64(a.Len))
	if err != nil {
		return peerReply{}, err
	}
	return peerReply{PeerHeader: a, body: out, label: uc.label}, nil
}

// writeFrame sends one frame: its header, and a small body behind it, in one
// write from the connection's scratch; a larger body as a vectored write
// behind the header.
func (uc *upConn) writeFrame(h wire.PeerHeader, body []byte) error {
	h.Len = len(body)
	uc.buf = wire.AppendPeerHeader(uc.buf[:0], h)
	if len(body) > peerInlineBody {
		_, err := (&net.Buffers{uc.buf, body}).WriteTo(uc.c)
		return err
	}
	uc.buf = append(uc.buf, body...)
	_, err := uc.c.Write(uc.buf)
	return err
}

// call makes one call to a peer on a connection leased from its record,
// within timeout. The outbound fault decision is drawn once per call and
// touches only this call. A nil error means the peer answered; the status is
// the caller's to judge.
func (n *Node) call(ctx context.Context, p *peer, timeout time.Duration, h wire.PeerHeader, body []byte) (r peerReply, err error) {
	ctx, cancel, code, err := applyFault(ctx, n.inj.Decide(p.host), p.host, timeout)
	defer cancel()
	if err != nil || code > 0 {
		return peerReply{PeerHeader: wire.PeerHeader{Status: uint16(code)}}, err
	}
	err = p.link.do(ctx, timeout, func(uc *upConn) (bool, error) {
		var err error
		r, err = uc.call(h, body)
		return err == nil, err
	})
	if err == nil && r.Status == 0 {
		err = errPeerAborted
	}
	return r, err
}

// errPeerMiss is a peer's definitive "not here" (status 404): the hint was
// stale, but the peer answered — the metadata is suspect, not the peer.
// errPeerFilling is its "not yet" (status 409): no copy, but a fill of its
// own in flight, so the hint that named it is about to come true. Both speak
// for a healthy peer; only a 404 demotes the hint.
var (
	errPeerMiss    = errors.New("status 404")
	errPeerFilling = errors.New("status 409")
)

// judge gives p's breaker its verdict on one call to it, made at start:
// healthy if the peer gave an answer the call's op defines, a failure
// otherwise. The exception is a call its race abandoned (ctx canceled, not
// timed out) before it had been silent for hedgeCold: the origin beat a
// peer that may be no more than slower than it, a race the hedge is run to
// lose now and then, and that judges nobody (DESIGN.md §8).
func judge(ctx context.Context, p *peer, start time.Time, healthy bool) {
	if !healthy && errors.Is(ctx.Err(), context.Canceled) && time.Since(start) < hedgeCold {
		return
	}
	p.br.Record(healthy)
}

// fetchPeer performs a cache-to-cache transfer: one object call on the
// peer plane, within the peer-call timeout, which gives the peer's breaker
// its verdict. ctx carries the race's abandon signal.
func (n *Node) fetchPeer(ctx context.Context, p *peer, url, reqID string, sampled bool) (fetched, error) {
	start := time.Now()
	r, err := n.call(ctx, p, metadataTimeout, sampledCall(wire.PeerObject, reqID, sampled), []byte(url))
	switch {
	case err == nil && r.Status == http.StatusNotFound:
		err = errPeerMiss
	case err == nil && r.Status == http.StatusConflict:
		err = errPeerFilling
	case err == nil && r.Status != http.StatusOK:
		err = fmt.Errorf("status %d", r.Status)
	}
	judge(ctx, p, start, err == nil || err == errPeerMiss || err == errPeerFilling)
	if err != nil {
		return fetched{}, fmt.Errorf("peer fetch: %w", err)
	}
	return servedBy(p, r, int64(r.A), start), nil
}

// servedBy is a transfer p served in its answer r, of the given version, to
// a call made at start. Its hop chain is the peer's self-timed serve segment
// (the answer's B field) followed by this node's round-trip measurement —
// the difference between the two is time on the wire.
func servedBy(p *peer, r peerReply, version int64, start time.Time) fetched {
	return fetched{version: version, body: r.body, hops: []obs.Hop{
		{Node: r.label, Outcome: "PEER-SERVE", Elapsed: time.Duration(r.B)},
		{Node: p.host, Outcome: "PEER", Elapsed: time.Since(start)},
	}}
}

// sampledCall starts a peer call's header; a sampled request's calls carry
// its trace ID so the peer can record its own span under it.
func sampledCall(op wire.PeerOp, reqID string, sampled bool) wire.PeerHeader {
	h := wire.PeerHeader{Op: op, Sampled: sampled}
	if sampled {
		h.A = obs.TraceID(reqID)
	}
	return h
}

// handlePeer answers a GET /peer that was not handed to the plane — one
// without the upgrade token, or served by something other than the node's
// front door — with 426.
func (n *Node) handlePeer(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Upgrade", peerProto)
	http.Error(w, "peer plane: upgrade required", http.StatusUpgradeRequired)
}

// acceptPeer takes the connection the front door read a GET /peer upgrade
// on, its reader holding whatever the peer sent behind it: it answers 101
// with this node's label and serves the connection's calls until either side
// closes it. Faults are drawn per call, so the handshake is not judged.
func (n *Node) acceptPeer(uc *upConn) {
	uc.c.SetDeadline(time.Now().Add(peerWriteTimeout))
	if _, err := io.WriteString(uc.c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n"+headerPeerLabel+": "+n.label()+"\r\n\r\n"); err != nil {
		uc.c.Close()
		return
	}
	uc.c.SetDeadline(time.Time{})
	n.plane.add(uc, n.servePeer)
}

// servePeer is an accepted connection's loop. It reads one call, plays out
// its fault, answers it and writes the answer, in order: the caller holds its
// connection for that one call, so nothing can wait behind a slow one, and
// concurrent calls arrive on connections of their own.
func (n *Node) servePeer(uc *upConn) {
	var small []byte // scratch for a request body other than a batch
	for {
		hdr, err := uc.br.Peek(wire.PeerHeaderSize)
		if err != nil {
			return
		}
		h, err := wire.DecodePeerHeader(hdr)
		if err != nil || h.Response {
			return
		}
		uc.br.Discard(wire.PeerHeaderSize)
		limit := peerRequestLimit
		if h.Op == wire.PeerHints {
			limit = updatesLimit
		}
		if h.Len > limit {
			// Refused unread, so the stream cannot be picked up again: an
			// oversized batch is told why, then the connection goes.
			if h.Op == wire.PeerHints {
				atomic.AddInt64(&n.stats.OversizeRejects, 1)
				uc.reply(wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID, Status: http.StatusRequestEntityTooLarge}, nil)
				readOff(uc.c, uc.br, int64(h.Len))
			}
			return
		}
		var body []byte
		if h.Op == wire.PeerHints {
			// A batch (up to 1 MiB) is read into a slice of its own, not
			// kept as the connection's scratch.
			body = make([]byte, h.Len)
		} else {
			if cap(small) < h.Len {
				small = make([]byte, h.Len)
			}
			body = small[:h.Len]
		}
		if _, err := io.ReadFull(uc.br, body); err != nil {
			return
		}
		if h.Op == wire.PeerObject {
			h.B = hintcache.HashURL(body) // all the call needs of its URL
		}
		var d faults.Decision
		if n.inboundInj != nil {
			d = n.inboundInj.Decide(n.label())
		}
		if n.serveCall(uc, h, d, body) != nil {
			return
		}
	}
}

// serveCall plays out the fault one call drew, if any, runs it and writes
// its answer. body is the call's; a hint batch is applied from it.
func (n *Node) serveCall(uc *upConn, h wire.PeerHeader, d faults.Decision, body []byte) error {
	resp := wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID}
	var err error
	if d != (faults.Decision{}) {
		// An injected hang outlasts no caller: clientTimeout is the ceiling
		// on any deadline in the package.
		fctx, cancel := context.WithTimeout(n.plane.ctx, clientTimeout)
		var code int
		code, err = d.Apply(fctx, n.label())
		cancel()
		resp.Status = uint16(code)
	}
	// A dropped or hung call is answered with status zero: the caller, if
	// it still waits, learns at once that no answer is coming.
	var out []byte
	if err == nil && resp.Status == 0 {
		out = n.answer(&resp, h, body)
	}
	return uc.reply(resp, out)
}

// reply writes an answer within peerWriteTimeout.
func (uc *upConn) reply(h wire.PeerHeader, body []byte) error {
	uc.c.SetWriteDeadline(time.Now().Add(peerWriteTimeout))
	return uc.writeFrame(h, body)
}

// answer runs one peer call, filling in resp and returning the body.
func (n *Node) answer(resp *wire.PeerHeader, h wire.PeerHeader, body []byte) []byte {
	resp.Status = http.StatusOK
	start := time.Now()
	switch h.Op {
	case wire.PeerPing:
		resp.Status = http.StatusNoContent
	case wire.PeerHolder:
		return n.answerHolder(resp, h, start)
	case wire.PeerHints:
		resp.Status = uint16(n.ingestHints(body, h.A, int64(h.C)))
	case wire.PeerDigest:
		return n.loc.serveDigest(h.A, resp)
	case wire.PeerObject:
		if version, out, ok := n.serveCopy(resp, h, start); ok {
			resp.A = uint64(version)
			return out
		}
		atomic.AddInt64(&n.stats.PeerRejects, 1)
		n.recordPeerSpan(h, "PEER-REJECT", time.Since(start))
		resp.Status = http.StatusNotFound
		if n.flights.inFlight(string(body)) {
			// A home named this node on its consult, ahead of the fill
			// now running here: not yet, rather than not here.
			resp.Status = http.StatusConflict
		}
	}
	return nil
}

// serveCopy answers a peer's call for h.B from this node's own copy, if
// either tier holds one — the hint that led the peer here may point at a
// spilled (or just-recovered) object: still locally cached, just on disk. A
// copy served is counted, timed and recorded as PEER-SERVE, its self-time in
// resp's B field.
func (n *Node) serveCopy(resp *wire.PeerHeader, h wire.PeerHeader, start time.Time) (int64, []byte, bool) {
	obj, body, ok := n.data.Get(h.B)
	if !ok && n.tier != nil {
		obj, body, ok = n.tier.Get(h.B)
	}
	if !ok {
		return 0, nil, false
	}
	elapsed := time.Since(start)
	atomic.AddInt64(&n.stats.PeerServes, 1)
	n.hist.peerServe.Observe(elapsed)
	n.recordPeerSpan(h, "PEER-SERVE", elapsed)
	resp.B = uint64(elapsed)
	return obj.Version, body, true
}

// ingestHints applies one hint batch — msg is the call's body, its 20-byte
// records, sender and stampNs its fixed fields — and returns the status to
// answer with (400 for a body that is not whole records of known actions;
// servePeer has already held it to updatesLimit).
func (n *Node) ingestHints(msg []byte, sender uint64, stampNs int64) int {
	updates, err := hintcache.AppendDecodedUpdates(make([]hintcache.Update, 0, len(msg)/hintcache.UpdateSize), msg)
	if err != nil {
		return http.StatusBadRequest
	}
	atomic.AddInt64(&n.stats.UpdatesReceived, int64(len(updates)))
	for _, u := range updates {
		n.applyHint(u)
	}
	// Freshness telemetry: the sender stamped the batch with its oldest
	// enqueue wall clock; the difference to our clock is how stale these
	// hints already were on arrival.
	from := n.peerByID(sender)
	if stampNs > 0 && from != nil {
		from.hintLag.Observe(time.Since(time.Unix(0, stampNs)))
	}
	// An inbound batch is a sign of life from its sender, though not that
	// this node can reach it (DESIGN.md §14).
	n.loc.contact(from, false, true)
	return http.StatusNoContent
}

// applyHint applies one hint record to the local directory unless it names
// this node: its own copies are tracked by the data cache, and a record of
// itself would spend one of the object's two holder slots.
func (n *Node) applyHint(u hintcache.Update) {
	if u.Machine != n.machineID {
		_ = n.hints.Apply(u)
	}
}
