package cluster

// The peer plane (DESIGN.md §15): everything one cache node says to another
// — object transfers, hint-home consults, hint batches, digest pulls,
// liveness probes — is a wire.PeerHeader frame on one connection per peer
// pair, dialed lazily on the peer's ordinary listener (GET /peer, upgraded
// and hijacked). Every call carries an ID and a read loop hands each answer
// to the caller waiting on it, so calls share the connection and a slow one
// holds up nothing behind it. Deadlines, breakers, retries and fault
// injection stay per call, above this file.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
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
	// peerInflight caps the calls of one inbound connection that may be off
	// its read loop at once; at the cap the loop stops reading, so a peer
	// cannot queue unbounded work here by not waiting for answers.
	peerInflight = 64
	// peerDialTimeout bounds connect plus handshake. peerWriteTimeout
	// bounds one frame write where the caller's own context does not: a
	// peer that stops reading costs a closed connection, not a stuck lock.
	// peerLingerTimeout bounds the reading-off of a refused batch.
	peerDialTimeout   = 2 * time.Second
	peerWriteTimeout  = 5 * time.Second
	peerLingerTimeout = 500 * time.Millisecond
	// peerInlineBody is the largest body copied behind its header into one
	// write; larger ones go out as a two-part vectored write instead.
	peerInlineBody = 4 << 10
	// clientTimeout is the ceiling on any deadline in the package: the Fleet
	// driver's per request, and how long an injected inbound hang holds a
	// peer call.
	clientTimeout = 10 * time.Second
	// metadataTimeout bounds one metadata-path attempt (a hint batch, a
	// digest pull or a hint-home consult). Metadata is retried and
	// eventually consistent, so one attempt to a dead target should fail
	// fast, not ride out clientTimeout.
	metadataTimeout = 2 * time.Second
)

var (
	errPlaneClosed = errors.New("peer plane closed")
	errPeerAborted = errors.New("peer aborted the call")
	// longAgo is the deadline that cuts short a blocked read or write.
	longAgo = time.Unix(1, 0)
)

// peerPlane is a node's connection state: the connection calls to each peer
// share, and every live connection, dialed or accepted, for close to cut —
// the front door forgets a connection it has handed over.
type peerPlane struct {
	// ctx ends with the plane, cutting short faulted calls' sleeps; wg
	// counts read loops, serve loops and calls taken off a serve loop.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// mu guards conns, closed and every peer record's conn.
	mu     sync.RWMutex
	conns  map[*peerConn]struct{}
	closed bool
}

// adopt registers pc (dialed to peer to, or accepted: nil) and starts loop
// on it, which runs until the connection dies. It refuses, returning the
// connection to use instead if there is one, once the plane has closed or
// another dial to the peer has won.
func (p *peerPlane) adopt(pc *peerConn, to *peer, loop func(*peerConn)) *peerConn {
	p.mu.Lock()
	var cur *peerConn
	if to != nil {
		cur = to.conn
	}
	if p.closed || cur != nil && cur.alive() {
		p.mu.Unlock()
		pc.c.Close()
		return cur
	}
	if to != nil {
		to.conn = pc
	}
	p.conns[pc] = struct{}{}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		loop(pc)
		pc.fail(io.EOF)
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
	}()
	return pc
}

func (p *peerPlane) close() {
	p.mu.Lock()
	p.closed = true
	for pc := range p.conns {
		pc.fail(errPlaneClosed)
	}
	p.mu.Unlock()
	p.stop()
	p.wg.Wait()
}

// conn returns the connection to a peer, dialing under the caller's own
// deadline if there is no live one. Two first callers may both dial; the
// later one closes its connection and shares the earlier.
func (p *peerPlane) conn(ctx context.Context, to *peer) (*peerConn, error) {
	p.mu.RLock()
	pc := to.conn
	p.mu.RUnlock()
	if pc != nil && pc.alive() {
		return pc, nil
	}
	ctx, cancel := context.WithTimeout(ctx, peerDialTimeout)
	defer cancel()
	pc, err := dialPeer(ctx, to.host)
	if err != nil {
		return nil, err
	}
	if pc = p.adopt(pc, to, (*peerConn).readLoop); pc == nil {
		return nil, errPlaneClosed
	}
	return pc, nil
}

// dialPeer connects to host and upgrades the connection: GET /peer on the
// peer's ordinary listener, answered 101 with the peer's label. It gives up
// when ctx ends: a peer that accepts and says nothing holds no abandoned caller.
func dialPeer(ctx context.Context, host string) (*peerConn, error) {
	c, err := (&net.Dialer{KeepAlive: 30 * time.Second}).DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(longAgo) })
	// lr meters what br reads while the 101 is parsed, as the origin link
	// meters an answer's header: whatever answers at a peer's address cannot
	// make the dialer buffer one endless header line until ctx ends.
	lr := &io.LimitedReader{R: c, N: originHeaderLimit}
	// Small, like the accepted side's: a body is read past it, into its slice.
	br := bufio.NewReaderSize(lr, 4<<10)
	_, err = io.WriteString(c, "GET /peer HTTP/1.1\r\nHost: "+host+"\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n\r\n")
	var resp *http.Response
	if err == nil {
		if resp, err = http.ReadResponse(br, nil); err != nil && lr.N <= 0 {
			err = errOriginHeader
		}
	}
	lr.N = math.MaxInt64
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
	return newPeerConn(c, br, resp.Header.Get(headerPeerLabel)), nil
}

// peerReply is a peer's answer to one call: the response header, its body,
// and the label the peer gave itself in the handshake.
type peerReply struct {
	wire.PeerHeader
	body  []byte
	label string
	err   error
}

// peerConn is one upgraded connection, either end.
type peerConn struct {
	c     net.Conn
	br    *bufio.Reader
	label string // the far end's label (dialed connections)

	// wlock serializes writers. It is a channel so that a caller whose
	// context ends while queued behind another writer can stop waiting;
	// wbuf is the header (and small-body) scratch it guards. cut is the
	// hook a turn arms on its context — it fails the write in progress by
	// moving its deadline into the past — and reports on wcut that it ran.
	wlock chan struct{}
	wbuf  []byte
	cut   func()
	wcut  chan struct{}

	// mu guards the calls awaiting an answer (dialed connections) and err,
	// what killed the connection.
	mu      sync.Mutex
	pending map[uint64]chan peerReply
	nextID  uint64
	err     error
}

func newPeerConn(c net.Conn, br *bufio.Reader, label string) *peerConn {
	pc := &peerConn{c: c, br: br, label: label, wlock: make(chan struct{}, 1), wcut: make(chan struct{}, 1), pending: make(map[uint64]chan peerReply)}
	pc.cut = func() {
		c.SetWriteDeadline(longAgo)
		pc.wcut <- struct{}{}
	}
	return pc
}

func (pc *peerConn) alive() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err == nil
}

// fail kills the connection and fails every call still waiting on it.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return
	}
	pc.err = err
	pc.c.Close()
	for id, ch := range pc.pending {
		ch <- peerReply{err: err} // buffered: never blocks
		delete(pc.pending, id)
	}
}

// take claims the channel awaiting call id's answer (nil if the answer, or
// the connection's death, got there first).
func (pc *peerConn) take(id uint64) chan peerReply {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ch := pc.pending[id]
	delete(pc.pending, id)
	return ch
}

// write sends one frame. It gives up, leaving the connection alone, if ctx
// ends while it waits its turn. Once it has the turn the write must finish
// before ctx ends (a deadline, or a hedge's abandon) and within
// peerWriteTimeout: half a frame leaves the far end nothing to resynchronize
// on, so a write cut short kills the connection. Answers are written under
// context.Background(): closing the connection is what ends their writes.
func (pc *peerConn) write(ctx context.Context, h wire.PeerHeader, body []byte) error {
	select {
	case pc.wlock <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-pc.wlock }()
	if err := ctx.Err(); err != nil {
		return err // ended as the turn came: nothing written, nothing broken
	}
	pc.c.SetWriteDeadline(time.Now().Add(peerWriteTimeout))
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, pc.cut)
		defer func() {
			if !stop() {
				<-pc.wcut // the hook is running: it must not cut the next turn's write
			}
		}()
	}
	h.Len = len(body)
	pc.wbuf = wire.AppendPeerHeader(pc.wbuf[:0], h)
	var err error
	if len(body) <= peerInlineBody {
		pc.wbuf = append(pc.wbuf, body...)
		_, err = pc.c.Write(pc.wbuf)
	} else {
		_, err = (&net.Buffers{pc.wbuf, body}).WriteTo(pc.c)
	}
	if err != nil {
		pc.fail(err)
	}
	return err
}

// readLoop delivers answers to the calls waiting for them until the
// connection dies. A request where an answer belongs, an undecodable header
// or a body declared past what the op allows (none; a digest frame; for an
// object any length, readSized bounding what the length alone can allocate)
// kills it; an answer nobody is waiting for — its caller's deadline fired
// first — is read and discarded.
func (pc *peerConn) readLoop() {
	hdr := make([]byte, wire.PeerHeaderSize)
	for {
		_, err := io.ReadFull(pc.br, hdr)
		var h wire.PeerHeader
		if err == nil {
			h, err = wire.DecodePeerHeader(hdr)
		}
		if err == nil && (!h.Response || h.Len > 0 && h.Op != wire.PeerObject && (h.Op != wire.PeerDigest || h.Len > digestBodyLimit)) {
			err = fmt.Errorf("peer plane: unexpected frame (op %d, %d body bytes)", h.Op, h.Len)
		}
		ch := pc.take(h.ID)
		var body []byte
		switch {
		case err != nil:
		case ch == nil:
			_, err = pc.br.Discard(h.Len)
		default:
			// A slice of its own, exactly sized: for an object, the one the
			// cache will keep.
			body, err = readSized(pc.br, int64(h.Len))
		}
		if ch != nil {
			ch <- peerReply{PeerHeader: h, body: body, label: pc.label, err: err}
		}
		if err != nil {
			pc.fail(err)
			return
		}
	}
}

// call sends one request on the connection and waits for its answer, both
// bounded by ctx: a caller whose deadline fires deregisters its ID and
// returns on time, and the late answer is discarded by the read loop.
func (pc *peerConn) call(ctx context.Context, h wire.PeerHeader, body []byte) (peerReply, error) {
	ch := make(chan peerReply, 1)
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return peerReply{}, pc.err
	}
	pc.nextID++
	h.ID = pc.nextID
	pc.pending[h.ID] = ch
	pc.mu.Unlock()
	if err := pc.write(ctx, h, body); err != nil {
		pc.take(h.ID)
		return peerReply{}, err
	}
	select {
	case r := <-ch:
		if r.err == nil && r.Status == 0 {
			r.err = errPeerAborted
		}
		return r, r.err
	case <-ctx.Done():
		pc.take(h.ID)
		return peerReply{}, ctx.Err()
	}
}

// call makes one call to a peer. The outbound fault decision is drawn once
// per call and touches only this call. A nil error means the peer answered;
// the status is the caller's to judge.
func (n *Node) call(ctx context.Context, p *peer, h wire.PeerHeader, body []byte) (peerReply, error) {
	if n.inj != nil {
		code, err := n.inj.Decide(p.host).Apply(ctx, p.host)
		if err != nil || code > 0 {
			return peerReply{PeerHeader: wire.PeerHeader{Status: uint16(code)}}, err
		}
	}
	// A connection the peer closed while it sat idle (a restart) is found
	// out by the first call to use it. Every op is idempotent, so — as
	// net/http does for a stale pooled connection — that call is tried once
	// more, on a fresh connection, if its deadline still allows.
	for attempt := 0; ; attempt++ {
		pc, err := n.plane.conn(ctx, p)
		if err != nil {
			return peerReply{}, err
		}
		r, err := pc.call(ctx, h, body)
		if err == nil || attempt > 0 || pc.alive() || ctx.Err() != nil {
			return r, err
		}
	}
}

// errPeerMiss is a peer's definitive "not here" (status 404): the hint was
// stale, but the peer answered — the metadata is suspect, not the peer.
var errPeerMiss = errors.New("status 404")

// fetchPeer performs a cache-to-cache transfer: one object call on the
// peer plane. On success it returns the hop chain for the transfer: the
// peer's self-timed serve segment (from its answer's fixed fields) followed
// by this node's round-trip measurement — the difference between the two is
// time on the wire. ctx carries the per-hop peer deadline (and, on the
// hedged path, the race's abandon signal).
func (n *Node) fetchPeer(ctx context.Context, p *peer, url, reqID string, sampled bool) (fetched, error) {
	start := time.Now()
	r, err := n.call(ctx, p, sampledCall(wire.PeerObject, reqID, sampled), []byte(url))
	switch {
	case err == nil && r.Status == http.StatusNotFound:
		err = errPeerMiss
	case err == nil && r.Status != http.StatusOK:
		err = fmt.Errorf("status %d", r.Status)
	}
	if err != nil {
		return fetched{}, fmt.Errorf("peer fetch: %w", err)
	}
	return fetched{version: int64(r.A), body: r.body, hops: []obs.Hop{
		{Node: r.label, Outcome: "PEER-SERVE", Elapsed: time.Duration(r.B)},
		{Node: p.host, Outcome: "PEER", Elapsed: time.Since(start)},
	}}, nil
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

// handlePeer accepts a peer's connection: GET /peer with the upgrade
// header, hijacked and served as frames until either side closes it. It
// sits outside the inbound fault middleware — faults are drawn per call.
func (n *Node) handlePeer(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != peerProto {
		w.Header().Set("Upgrade", peerProto)
		http.Error(w, "peer plane: upgrade required", http.StatusUpgradeRequired)
		return
	}
	c, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.SetDeadline(time.Now().Add(peerWriteTimeout))
	if _, err := io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+peerProto+"\r\n"+headerPeerLabel+": "+n.label()+"\r\n\r\n"); err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	n.plane.adopt(newPeerConn(c, brw.Reader, ""), nil, n.servePeer)
}

// servePeer is an accepted connection's read loop. It answers inline only
// what memory can answer — a memory-tier object, a directory lookup, a ping
// — and hands a disk-tier read, a batch apply, a digest serve or a faulted
// call to a goroutine of its own, so one slow call never holds up the
// frames behind it.
func (n *Node) servePeer(pc *peerConn) {
	// ctx ends with the connection, and with it the faulted calls' sleeps.
	ctx, cancel := context.WithCancel(n.plane.ctx)
	defer cancel()
	inflight := make(chan struct{}, peerInflight)
	hdr := make([]byte, wire.PeerHeaderSize)
	var small []byte // scratch for a request body consumed before the next read
	for {
		if _, err := io.ReadFull(pc.br, hdr); err != nil {
			return
		}
		h, err := wire.DecodePeerHeader(hdr)
		if err != nil || h.Response {
			return
		}
		limit := peerRequestLimit
		if h.Op == wire.PeerHints {
			// One frame header over the record limit; the record bytes the
			// frame declares are held to updatesLimit by ingestHints.
			limit = updatesLimit + wire.HeaderSize
		}
		if h.Len > limit {
			// Refused unread, so the stream cannot be picked up again: an
			// oversized batch is told why, then the connection goes.
			if h.Op == wire.PeerHints {
				n.stats.oversizeRejects.Add(1)
				pc.write(context.Background(), wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID, Status: http.StatusRequestEntityTooLarge}, nil)
				// Closing on unread bytes would reset the connection under a
				// caller still writing: read its batch off first, briefly.
				pc.c.SetReadDeadline(time.Now().Add(peerLingerTimeout))
				io.CopyN(io.Discard, pc.br, int64(h.Len))
			}
			return
		}
		var body, batch []byte
		if h.Op == wire.PeerHints {
			// A batch outlives this iteration: it is applied off the loop.
			batch = make([]byte, h.Len)
			body = batch
		} else {
			if cap(small) < h.Len {
				small = make([]byte, h.Len)
			}
			body = small[:h.Len]
		}
		if _, err := io.ReadFull(pc.br, body); err != nil {
			return
		}
		if h.Op == wire.PeerObject {
			h.B = hintcache.HashURL(string(body)) // all the call needs of its URL
		}
		var d faults.Decision
		if n.inboundInj != nil {
			d = n.inboundInj.Decide(n.label())
		}
		if d == (faults.Decision{}) && (h.Op == wire.PeerPing || h.Op == wire.PeerHolder ||
			h.Op == wire.PeerObject && (n.tier == nil || n.data.Contains(h.B))) {
			n.serveCall(ctx, pc, h, d, nil)
			continue
		}
		inflight <- struct{}{} // at the cap: stop reading until a call finishes
		n.plane.wg.Add(1)
		go func() {
			defer n.plane.wg.Done()
			defer func() { <-inflight }()
			n.serveCall(ctx, pc, h, d, batch)
		}()
	}
}

// serveCall plays out the fault one call drew, if any, runs it and writes
// its answer. batch is a hint call's body; no other op's body is kept.
func (n *Node) serveCall(ctx context.Context, pc *peerConn, h wire.PeerHeader, d faults.Decision, batch []byte) {
	resp := wire.PeerHeader{Op: h.Op, Response: true, ID: h.ID}
	var err error
	if d != (faults.Decision{}) {
		// An injected hang outlasts no caller: clientTimeout is the ceiling
		// on any deadline in the package.
		fctx, cancel := context.WithTimeout(ctx, clientTimeout)
		var code int
		code, err = d.Apply(fctx, n.label())
		cancel()
		resp.Status = uint16(code)
	}
	// A dropped or hung call is answered with status zero: the caller, if
	// it still waits, learns at once that no answer is coming.
	var out []byte
	if err == nil && resp.Status == 0 {
		out = n.answer(&resp, h, batch)
	}
	pc.write(context.Background(), resp, out)
}

// answer runs one peer call, filling in resp and returning the body.
func (n *Node) answer(resp *wire.PeerHeader, h wire.PeerHeader, batch []byte) []byte {
	resp.Status = http.StatusOK
	start := time.Now()
	switch h.Op {
	case wire.PeerPing:
		resp.Status = http.StatusNoContent
	case wire.PeerHolder:
		n.answerHolder(resp, h, start)
	case wire.PeerHints:
		resp.Status = uint16(n.ingestHints(batch, h.A, int64(h.C)))
	case wire.PeerDigest:
		return n.loc.serveDigest(h.A, resp)
	case wire.PeerObject:
		obj, body, ok := n.data.Get(h.B)
		if !ok && n.tier != nil {
			// The hint that led the peer here may point at a spilled (or
			// just-recovered) object: still locally cached, just on disk.
			obj, body, ok = n.tier.Get(h.B)
		}
		elapsed := time.Since(start)
		if !ok {
			n.stats.peerRejects.Add(1)
			n.recordPeerSpan(h, "PEER-REJECT", elapsed)
			resp.Status = http.StatusNotFound
			break
		}
		n.stats.peerServes.Add(1)
		n.hist.peerServe.Observe(elapsed)
		n.recordPeerSpan(h, "PEER-SERVE", elapsed)
		resp.A, resp.B = uint64(obj.Version), uint64(elapsed)
		return body
	}
	return nil
}

// ingestHints applies one hint batch — msg is the call's body, which must
// be exactly one KindHintBatch frame, sender and stampNs its fixed fields —
// and returns the status to answer with (413 for oversize, 400 for
// anything else undecodable). Records from this node are filtered out (our
// own copies are tracked by the data cache).
func (n *Node) ingestHints(msg []byte, sender uint64, stampNs int64) int {
	f, rest, err := wire.Decode(msg)
	if err != nil || len(rest) != 0 || f.Kind != wire.KindHintBatch {
		return http.StatusBadRequest
	}
	// The declared raw length is checked before inflating so a compressed
	// bomb cannot expand past the limit.
	if f.RawLen > updatesLimit {
		n.stats.oversizeRejects.Add(1)
		return http.StatusRequestEntityTooLarge
	}
	records, err := f.Payload(nil)
	if err != nil {
		return http.StatusBadRequest
	}
	updates, err := hintcache.AppendDecodedUpdates(make([]hintcache.Update, 0, len(records)/hintcache.UpdateSize), records)
	if err != nil {
		return http.StatusBadRequest
	}
	total := len(updates)
	kept := updates[:0]
	for _, u := range updates {
		if u.Machine == n.machineID {
			continue
		}
		kept = append(kept, u)
	}
	_ = n.hints.ApplyBatch(kept)
	n.stats.updatesReceived.Add(int64(total))
	// Freshness telemetry: the sender stamped the batch with its oldest
	// enqueue wall clock; the difference to our clock is how stale these
	// hints already were on arrival.
	from := n.peerByID(sender)
	if stampNs > 0 && from != nil {
		from.hintLag.Observe(time.Since(time.Unix(0, stampNs)))
	}
	// An inbound batch is a sign of life from its sender: a locator that
	// tracks membership lets a revived peer rejoin the routing plane
	// without waiting out a probe round.
	n.loc.contact(from, true)
	return http.StatusNoContent
}
