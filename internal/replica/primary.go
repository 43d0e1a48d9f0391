package replica

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"encoding/binary"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/wire"
)

// errStaleJoin reports a join from a node that has seen a newer epoch than
// this primary — this primary is the stale one and must not adopt it.
var errStaleJoin = errors.New("replica: joiner has seen a newer epoch")

// AttachClient routes a client attach (server.Replica). On the primary it
// returns the session — resuming an existing one when clientID matches a
// session the group already carries, which is how a failed-over client
// keeps its descriptor table. On a backup it fails with wire.ErrNotPrimary
// and the last known primary address, which the server sends the client as
// an epoch-0 Moved.
func (n *Node) AttachClient(cred fsapi.Cred, clientID uint64) (fsapi.Client, uint64, string, error) {
	if n.Role() != RolePrimary {
		addr, _ := n.primaryAddr.Load().(string)
		if addr == n.cfg.Advertise {
			addr = "" // don't send clients back to ourselves
		}
		return nil, 0, addr, wire.ErrNotPrimary
	}
	n.mu.Lock()
	if n.closed || n.fs == nil {
		n.mu.Unlock()
		return nil, 0, "", errors.New("replica: node closed")
	}
	if sess, ok := n.sessions[clientID]; ok && clientID != 0 {
		if sess.cred != cred {
			n.mu.Unlock()
			return nil, 0, "", fsapi.ErrPerm
		}
		sess.attached = true
		n.mu.Unlock()
		return sess.client, sess.id, "", nil
	}
	client, err := n.fs.Attach(cred)
	if err != nil {
		n.mu.Unlock()
		return nil, 0, "", err
	}
	id := clientID
	if id == 0 {
		// A pre-replication client with no resume identity: synthesize one
		// that cannot collide with a real 64-bit random ID in practice.
		n.anonID++
		id = n.anonID | (1 << 63)
		for n.sessions[id] != nil {
			n.anonID++
			id = n.anonID | (1 << 63)
		}
	}
	sess := newSession(id, cred, client)
	sess.attached = true
	n.sessions[id] = sess
	n.seq++
	seq := n.seq
	n.shipLocked(&wire.Entry{Seq: seq, Sess: id, Kind: wire.EntryAttach, Cred: cred}, 0)
	n.mu.Unlock()
	// The session must exist on the quorum before the client can use it:
	// otherwise a failover between AttachOK and the first op would strand
	// the client on a node that never heard of it.
	n.WaitQuorum(seq)
	return client, id, "", nil
}

// Apply executes one replicated operation, ships its entry, and returns
// the response plus the sequence WaitQuorum must cover before the client
// may see it (server.Replica). A request ID already in the session's
// replay cache — a client retransmission after failover — is answered
// from the cache without re-executing.
//
// Data operations on open descriptors run under opGate's read side plus a
// per-inode stripe, so independent files execute concurrently; the log lock
// is held only for the sequence assignment and the entry append, and log
// order equals execution order per inode (the stripe spans exec and seq)
// and against every exclusive operation (opGate spans both). Namespace and
// descriptor operations take opGate exclusively, which is also what guards
// the session's descriptor table.
func (n *Node) Apply(sessID uint64, req *wire.Request, trace uint64, exec func() wire.Response) (wire.Response, uint64) {
	n.mu.Lock()
	sess := n.sessions[sessID]
	n.mu.Unlock()
	if sess == nil {
		code := wire.CodeOf(fsapi.ErrBadFD)
		return wire.Response{ID: req.ID, Op: req.Op, Code: code,
			Msg: wire.MsgFor(code, fsapi.ErrBadFD)}, 0
	}
	if resp, seq, ok := sess.replayed(req.ID); ok {
		return resp, seq
	}

	var resp wire.Response
	var seq uint64
	if dataOp(req.Op) {
		n.opGate.RLock()
		st := n.stripe(sess.inos[req.FD])
		st.Lock()
		resp = exec()
		if resp.Code == wire.CodeOK {
			// Failed operations mutate nothing; only successes enter the log.
			n.mu.Lock()
			n.seq++
			seq = n.seq
			e := wire.Entry{Seq: seq, Sess: sessID, Kind: wire.EntryOp, Req: *req}
			if req.Op == wire.OpPwrite {
				e.Kind = wire.EntryPwrite // compact form: id/fd/off/data only
			}
			n.shipLocked(&e, trace)
			n.mu.Unlock()
		}
		st.Unlock()
		n.opGate.RUnlock()
	} else {
		n.opGate.Lock()
		resp = exec()
		if resp.Code == wire.CodeOK {
			e := wire.Entry{Sess: sessID, Kind: wire.EntryOp, Req: *req}
			switch req.Op {
			case wire.OpCreate, wire.OpOpen:
				sess.noteOpen(req, resp.FD)
				e.ResFD = resp.FD
			case wire.OpClose:
				sess.noteClose(req.FD)
			}
			n.mu.Lock()
			n.seq++
			seq = n.seq
			e.Seq = seq
			n.shipLocked(&e, trace)
			if req.Op == wire.OpDetach {
				delete(n.sessions, sessID)
				sess = nil // nothing left to cache against
			}
			n.mu.Unlock()
		}
		n.opGate.Unlock()
	}
	if sess != nil {
		sess.cacheResp(&resp, seq)
	}
	return resp, seq
}

// shipLocked appends one encoded entry to every live link's out-buffer and
// kicks their writers. With a single link — the common group shape — the
// entry encodes directly into that link's flat buffer; with several it is
// encoded once into the node's reused scratch and its bytes appended to
// each link's buffer. The steady state allocates nothing. A nonzero trace
// marks the link's pending drain as traced: the writer tags the frames it
// ships with the trace ID and emits the group-commit span. Caller holds
// n.mu.
//
// A close kicks nobody: its reply does not wait for the quorum (DESIGN §7),
// so its entry rides the next kicked entry or the heartbeat's drain instead
// of costing a replication round of its own.
func (n *Node) shipLocked(e *wire.Entry, trace uint64) {
	if len(n.links) == 0 {
		return
	}
	kick := e.Req.Op != wire.OpClose
	var enc []byte
	if len(n.links) > 1 {
		n.shipBuf = wire.AppendEntry(n.shipBuf[:0], e)
		enc = n.shipBuf
	}
	for l := range n.links {
		start := len(l.out)
		if enc == nil {
			l.out = wire.AppendEntry(l.out, e)
		} else {
			l.out = append(l.out, enc...)
		}
		l.ends = append(l.ends, len(l.out))
		if trace != 0 {
			l.pendTrace = trace
			l.pendTraceTime = time.Now()
		}
		n.m.bytesShipped.Add(uint64(len(l.out) - start))
		if kick {
			l.wake()
		}
	}
	n.m.entriesShipped.Add(uint64(len(n.links)))
}

// WaitQuorum blocks until the sliding ack window — the cumulative
// applied-seq a quorum of live backups has reached — covers seq
// (server.Replica). The effective quorum is capped at the live link
// count: with no backup connected the primary acknowledges alone. Waiters
// block on the window floor alone; they are woken only when it advances
// (or membership changes), not on every ack frame.
func (n *Node) WaitQuorum(seq uint64) {
	if seq == 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		need := n.cfg.Quorum
		if live := len(n.links); need > live {
			need = live
		}
		if need == 0 || n.closed || n.quorumSeq >= seq {
			return
		}
		n.cond.Wait()
	}
}

// refreshQuorumLocked recomputes the ack window floor — the k-th highest
// cumulative ack among live links, k = effective quorum — and reports
// whether it advanced. The floor is monotonic: a joining backup (which
// may raise k) never retracts acknowledgments already granted. Caller
// holds n.mu; on true the caller must cond.Broadcast.
func (n *Node) refreshQuorumLocked() bool {
	need := n.cfg.Quorum
	if live := len(n.links); need > live {
		need = live
	}
	if need == 0 {
		return false // WaitQuorum returns unconditionally; nothing to track
	}
	var floor uint64
	for l := range n.links {
		got := 0
		for o := range n.links {
			if o.ackedSeq >= l.ackedSeq {
				got++
			}
		}
		if got >= need && l.ackedSeq > floor {
			floor = l.ackedSeq
		}
	}
	if floor > n.quorumSeq {
		n.quorumSeq = floor
		return true
	}
	return false
}

// ReleaseSession marks a session's connection gone without detaching it,
// keeping it resumable for a failing-over client (server.Replica).
func (n *Node) ReleaseSession(sessID uint64) {
	n.mu.Lock()
	if sess := n.sessions[sessID]; sess != nil {
		sess.attached = false
		sess.released = time.Now()
	}
	n.mu.Unlock()
}

// Promote makes this node the primary (server.Replica; also called by the
// backup's failover watchdog). Idempotent on an existing primary.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	if Role(n.role.Load()) == RolePrimary {
		ep := n.epoch.Load()
		n.mu.Unlock()
		return ep, nil
	}
	if n.fs == nil {
		n.mu.Unlock()
		return 0, errors.New("replica: cannot promote before a snapshot has been restored")
	}
	ep := n.epoch.Add(1)
	n.role.Store(int32(RolePrimary))
	n.primaryAddr.Store(n.cfg.Advertise)
	n.m.promotions.Add(1)
	n.mu.Unlock()
	if c, ok := n.joinConn.Load().(net.Conn); ok && c != nil {
		c.Close() // unblock the join loop; it exits on seeing the role
	}
	n.cond.Broadcast()
	n.cfg.Logf("replica: promoted to primary at epoch %d", ep)
	return ep, nil
}

// HandleJoin owns a backup's replication connection (server.Replica):
// snapshot transfer, then log shipping and heartbeats until the link dies.
func (n *Node) HandleJoin(conn net.Conn, fr *wire.FrameReader, payload []byte) error {
	j, err := wire.ParseJoin(payload)
	if err != nil {
		return err
	}
	if n.Role() != RolePrimary {
		wire.WriteFrame(conn, wire.KindErr, wire.AppendErrFrame(nil, wire.ErrNotPrimary))
		return wire.ErrNotPrimary
	}
	if j.Epoch > n.Epoch() {
		wire.WriteFrame(conn, wire.KindErr, wire.AppendErrFrame(nil, errStaleJoin))
		return errStaleJoin
	}

	// Capture a consistent cut: opGate held exclusively quiesces the
	// pipelined data executors (they run outside the log lock) and freezes
	// every session's descriptor table, and the log lock freezes the log
	// position and the session manifest. The link
	// registers inside the same critical section, so every entry after
	// snapSeq reaches the backup through the link and none is
	// double-applied.
	var img bytes.Buffer
	n.opGate.Lock()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.opGate.Unlock()
		return errors.New("replica: node closed")
	}
	if err := n.cfg.Snapshot(&img); err != nil {
		n.mu.Unlock()
		n.opGate.Unlock()
		wire.WriteFrame(conn, wire.KindErr, wire.AppendErrFrame(nil, err))
		return fmt.Errorf("snapshot: %w", err)
	}
	jo := wire.JoinOK{
		Epoch:    n.Epoch(),
		SnapSeq:  n.seq,
		SnapSize: uint64(img.Len()),
	}
	for _, sess := range n.sessions {
		si := wire.SessionInfo{Sess: sess.id, Cred: sess.cred, NextFD: sess.next}
		for _, o := range sess.opens {
			si.Open = append(si.Open, o)
		}
		jo.Sessions = append(jo.Sessions, si)
	}
	l := newLink(conn, j.Addr)
	// The snapshot already carries everything through snapSeq: the link's
	// cumulative ack starts there, so a joining backup participates in the
	// quorum window immediately instead of reading as infinitely behind.
	l.ackedSeq = jo.SnapSeq
	n.links[l] = struct{}{}
	n.refreshQuorumLocked()
	n.mu.Unlock()
	n.opGate.Unlock()
	n.m.joins.Add(1)
	n.cond.Broadcast() // link count changed; quorum math too

	detach := func() {
		n.mu.Lock()
		delete(n.links, l)
		// A slow link leaving can advance the window (k drops with it).
		n.refreshQuorumLocked()
		n.mu.Unlock()
		n.cond.Broadcast()
	}
	// The JoinOK and every SnapChunk go out in one vectored write. A chunk
	// is its prefix staged ahead of a slice of the cut, so no chunk is built
	// or copied; at MaxIO bytes it always fits a frame.
	data := img.Bytes()
	var vw wire.VecWriter
	if err := vw.Stage(wire.KindJoinOK, wire.AppendJoinOK(nil, &jo)); err != nil {
		detach()
		return err
	}
	prefixes := make([]byte, 0, wire.SnapChunkPrefixSize*((len(data)+wire.MaxIO-1)/wire.MaxIO))
	for off := 0; off < len(data); off += wire.MaxIO {
		end := min(off+wire.MaxIO, len(data))
		pre := len(prefixes)
		prefixes = wire.AppendSnapChunkPrefix(prefixes, uint64(off), end-off)
		vw.StagePrefixed(wire.KindSnapChunk, prefixes[pre:], data[off:end])
	}
	if _, err := vw.Flush(conn); err != nil {
		detach()
		return err
	}
	n.m.snapshotBytes.Add(uint64(len(data)))
	n.cfg.Logf("replica: backup %s joined at seq %d (%d B snapshot of a %d MiB arena, %d sessions)",
		j.Addr, jo.SnapSeq, len(data), pmem.ImageSize(data)>>20, len(jo.Sessions))

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		l.runWriter(n)
	}()
	err = l.runReader(n, fr)
	conn.Close()
	detach()
	l.wake() // a writer waiting for the next heartbeat sees it left and exits
	<-writerDone
	n.cfg.Logf("replica: backup %s link down: %v", j.Addr, err)
	return err
}

// link is one primary→backup replication connection.
type link struct {
	conn net.Conn
	addr string

	// out holds encoded entries awaiting shipment, flat, with ends marking
	// each entry's end offset (frame splits land on entry boundaries); both
	// are guarded by the node's log lock. spareOut/spareEnds are the
	// writer's drained double-buffer, swapped back in on the next takeover
	// so the steady state recycles two buffers and allocates neither. kick
	// wakes the writer.
	out       []byte
	ends      []int
	spareOut  []byte
	spareEnds []int
	kick      chan struct{}

	// inflight counts entries the writer has taken but not yet flushed to
	// the socket; with len(ends) it is the link's ship lag. Guarded by the
	// node's log lock.
	inflight int

	// pendTrace marks the buffered (not yet drained) entries as carrying a
	// sampled operation; the writer tags the drain's frames with it and
	// emits the group-commit and ship spans. pendTraceTime is when the
	// traced entry was appended. Both guarded by the node's log lock;
	// traceHdr is the writer-private encoding scratch for the frame prefix.
	pendTrace     uint64
	pendTraceTime time.Time
	traceHdr      [wire.TraceCtxSize]byte

	// ackedSeq is the backup's highest cumulatively applied sequence;
	// guarded by the node's log lock (the quorum window reads it there).
	ackedSeq uint64
}

func newLink(conn net.Conn, addr string) *link {
	return &link{conn: conn, addr: addr, kick: make(chan struct{}, 1)}
}

// wake kicks the link's writer to drain what is buffered.
func (l *link) wake() {
	select {
	case l.kick <- struct{}{}:
	default: // already due to run; it drains everything buffered
	}
}

// runWriter ships buffered entries as KindReplicate frames — whatever has
// accumulated is split on entry boundaries into frames bounded by MaxFrame
// and MaxBatch, all staged and written with a single vectored write (the
// heartbeat rides the same writev) — and emits heartbeats on the
// configured interval.
func (l *link) runWriter(n *Node) {
	hb := time.NewTicker(n.cfg.HeartbeatInterval)
	defer hb.Stop()
	var vw wire.VecWriter
	var hbBuf []byte
	for {
		beat := false
		select {
		case <-l.kick:
		case <-hb.C:
			beat = true
		case <-n.stop:
			return
		}
		n.mu.Lock()
		out, ends := l.out, l.ends
		// The spares were drained by the previous iteration (this is the
		// only goroutine that writes them), so they are free to fill.
		l.out, l.ends = l.spareOut[:0], l.spareEnds[:0]
		l.spareOut, l.spareEnds = out, ends
		l.inflight = len(ends)
		trace, traceAt := l.pendTrace, l.pendTraceTime
		l.pendTrace = 0
		_, member := n.links[l]
		seq := n.seq
		n.mu.Unlock()
		if !member {
			return
		}
		// A traced drain ships as KindReplicateTraced frames, each prefixed
		// with the trace ID; the group-commit granularity is the whole drain,
		// so every frame it splits into carries the context.
		kind := wire.KindReplicate
		if trace != 0 {
			kind = wire.KindReplicateTraced
			binary.LittleEndian.PutUint64(l.traceHdr[:], trace)
		}
		stage := func(p []byte) {
			if trace != 0 {
				vw.StagePrefixed(kind, l.traceHdr[:], p)
			} else {
				vw.Stage(kind, p)
			}
		}
		frameStart, prev, count := 0, 0, 0
		frames := uint64(0)
		for _, end := range ends {
			if count > 0 && (count == wire.MaxBatch || end-frameStart > wire.MaxFrame-64) {
				stage(out[frameStart:prev])
				frames++
				frameStart = prev
				count = 0
			}
			prev = end
			count++
		}
		if count > 0 {
			stage(out[frameStart:prev])
			frames++
		}
		if beat {
			h := wire.Heartbeat{Epoch: n.Epoch(), Seq: seq, SentNs: uint64(time.Now().UnixNano())}
			hbBuf = wire.AppendHeartbeat(hbBuf[:0], &h)
			vw.Stage(wire.KindHeartbeat, hbBuf)
		}
		if vw.Count() == 0 {
			continue
		}
		// Counted before the write: once the bytes are out, the backup's ack
		// and the client's reply may land before this goroutine runs again.
		n.m.framesShipped.Add(frames)
		var shipStart time.Time
		if trace != 0 {
			shipStart = time.Now()
			n.cfg.Obs.SpanCtx(obs.SpanRepCommit, 0, trace, traceAt, uint64(shipStart.Sub(traceAt)), false)
		}
		_, err := vw.Flush(l.conn)
		if trace != 0 {
			n.cfg.Obs.SpanCtx(obs.SpanRepShip, 0, trace, shipStart, uint64(time.Since(shipStart)), err != nil)
		}
		n.mu.Lock()
		l.inflight = 0
		n.mu.Unlock()
		if err != nil {
			l.conn.Close()
			return
		}
	}
}

// runReader consumes the backup's acks and heartbeat echoes until the
// connection dies.
func (l *link) runReader(n *Node, fr *wire.FrameReader) error {
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return err
		}
		switch kind {
		case wire.KindRepAck:
			a, err := wire.ParseRepAck(payload)
			if err != nil {
				return err
			}
			n.mu.Lock()
			advanced := false
			if a.Seq > l.ackedSeq {
				l.ackedSeq = a.Seq
				advanced = n.refreshQuorumLocked()
			}
			n.mu.Unlock()
			// Wake waiters only when the window floor actually moved: acks
			// from below-quorum links are bookkeeping, not progress.
			if advanced {
				n.cond.Broadcast()
			}
		case wire.KindHeartbeat:
			h, err := wire.ParseHeartbeat(payload)
			if err != nil {
				return err
			}
			if rtt := uint64(time.Now().UnixNano()) - h.SentNs; rtt < 1<<62 {
				n.m.heartbeatRTT.Store(rtt)
			}
		default:
			return fmt.Errorf("%w: unexpected kind %d on replication link", wire.ErrBadMessage, kind)
		}
	}
}
