package replica

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/wire"
)

// maxSnapPrealloc bounds the snapshot buffer a backup sizes from JoinOK's
// SnapSize before the first chunk arrives.
const maxSnapPrealloc = 256 << 20

// runBackup is the backup's life: join the primary, restore its snapshot,
// apply its log, and watch its heartbeats. When the link dies it retries;
// when the primary stays silent past FailoverGrace (and AutoPromote is on)
// it promotes itself and exits — the node serves as primary from then on.
func (n *Node) runBackup() {
	defer n.wg.Done()
	lastContact := time.Now()
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		if n.Role() == RolePrimary {
			return
		}
		err := n.followPrimary(&lastContact)
		if n.Role() == RolePrimary {
			return
		}
		select {
		case <-n.stop:
			return
		default:
		}
		if err != nil {
			n.cfg.Logf("replica: replication link: %v", err)
		}
		if n.cfg.AutoPromote && time.Since(lastContact) > n.cfg.FailoverGrace {
			if _, perr := n.Promote(); perr != nil {
				n.cfg.Logf("replica: auto-promotion failed: %v", perr)
				// Never joined successfully; keep trying to find a primary.
				lastContact = time.Now()
			} else {
				return
			}
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-n.stop:
			return
		}
	}
}

// joinDialTimeout bounds each join dial and the join handshake's write.
const joinDialTimeout = time.Second

// followPrimary performs one join: handshake, snapshot restore, then the
// apply loop until the connection dies or the node is promoted/closed.
// lastContact is advanced on every frame from the primary.
func (n *Node) followPrimary(lastContact *time.Time) error {
	addr, _ := n.primaryAddr.Load().(string)
	if addr == "" {
		addr = n.cfg.PrimaryAddr
	}
	conn, err := net.DialTimeout("tcp", addr, joinDialTimeout)
	if err != nil {
		return err
	}
	n.joinConn.Store(conn)
	defer conn.Close()

	j := wire.Join{Epoch: n.Epoch(), Addr: n.cfg.Advertise}
	conn.SetDeadline(time.Now().Add(joinDialTimeout))
	if err := wire.WriteFrame(conn, wire.KindJoin, wire.AppendJoin(nil, &j)); err != nil {
		return err
	}
	fr := wire.NewFrameReader(conn)
	// The snapshot can be large; give the whole transfer a generous but
	// bounded window before the per-frame grace deadline takes over.
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	kind, payload, err := fr.Next()
	if err != nil {
		return err
	}
	switch kind {
	case wire.KindJoinOK:
	case wire.KindErr:
		return wire.ParseErrFrame(payload)
	default:
		return fmt.Errorf("%w: unexpected kind %d joining", wire.ErrBadMessage, kind)
	}
	jo, err := wire.ParseJoinOK(payload)
	if err != nil {
		return err
	}
	// SnapSize comes off the wire: it sizes the buffer only up to a bound,
	// past which append grows it as chunks arrive, and no chunk may carry
	// the image past it.
	img := make([]byte, 0, min(jo.SnapSize, maxSnapPrealloc))
	for uint64(len(img)) < jo.SnapSize {
		kind, payload, err := fr.Next()
		if err != nil {
			return err
		}
		if kind != wire.KindSnapChunk {
			return fmt.Errorf("%w: unexpected kind %d in snapshot", wire.ErrBadMessage, kind)
		}
		c, err := wire.ParseSnapChunk(payload)
		if err != nil {
			return err
		}
		if c.Off != uint64(len(img)) {
			return fmt.Errorf("%w: snapshot chunk at %d, want %d", wire.ErrBadMessage, c.Off, len(img))
		}
		if uint64(len(c.Data)) > jo.SnapSize-uint64(len(img)) {
			return fmt.Errorf("%w: snapshot chunk [%d,+%d) past the %d-byte snapshot",
				wire.ErrBadMessage, c.Off, len(c.Data), jo.SnapSize)
		}
		img = append(img, c.Data...)
	}
	fs, err := n.cfg.Restore(img)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}

	// Shadows must open at the primary's descriptor numbers.
	probe, err := fs.Attach(fsapi.Cred{})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	_, ok := probe.(fdReserver)
	probe.Detach()
	if !ok {
		return fmt.Errorf("restore: %T cannot open at a given descriptor number (no ReserveFDs)", probe)
	}

	// Install the restored volume and rebuild the session table from the
	// manifest: each session's shadow reopens its descriptors at their
	// numbers, lowest first, then skips the numbers handed out and closed.
	n.mu.Lock()
	if n.closed || Role(n.role.Load()) == RolePrimary {
		n.mu.Unlock()
		return nil
	}
	n.fs = fs
	n.seq = jo.SnapSeq
	n.epoch.Store(jo.Epoch)
	n.sessions = make(map[uint64]*session, len(jo.Sessions))
	for _, si := range jo.Sessions {
		client, err := fs.Attach(si.Cred)
		if err != nil {
			n.mu.Unlock()
			return fmt.Errorf("manifest attach: %w", err)
		}
		sess := newSession(si.Sess, si.Cred, client)
		slices.SortFunc(si.Open, func(a, b wire.OpenFD) int { return cmp.Compare(a.FD, b.FD) })
		for _, o := range si.Open {
			req := wire.Request{Op: wire.OpOpen, Path: o.Path, Flags: o.Flags, Perm: o.Perm}
			if resp := sess.openAt(&req, o.FD); resp.Code != wire.CodeOK {
				n.m.replayErrors.Add(1)
				n.cfg.Logf("replica: session %x descriptor %d (%s) not reopened: %s", si.Sess, o.FD, o.Path, resp.Msg)
			}
		}
		client.(fdReserver).ReserveFDs(si.NextFD - 1)
		sess.next = max(sess.next, si.NextFD)
		n.sessions[si.Sess] = sess
	}
	n.mu.Unlock()
	*lastContact = time.Now()
	n.cfg.Logf("replica: joined %s at epoch %d, seq %d (%d B snapshot of a %d MiB arena, %d sessions)",
		addr, jo.Epoch, jo.SnapSeq, len(img), pmem.ImageSize(img)>>20, len(jo.Sessions))

	// ents is reused across frames: the entries alias each frame's buffer
	// and every entry is applied before the next fr.Next() invalidates it,
	// so the steady-state apply loop allocates nothing. Acks are cumulative
	// (highest applied seq); a dedicated acker goroutine sends them,
	// coalescing every frame applied while a previous ack write was in
	// flight into one RepAck — the apply loop never blocks on the socket.
	// wmu serializes its writes with heartbeat echoes.
	var ents []wire.Entry
	var wmu sync.Mutex
	ackKick := make(chan struct{}, 1)
	ackerDone := make(chan struct{})
	go n.runAcker(conn, &wmu, ackKick, ackerDone)
	defer func() {
		conn.Close() // unblock an in-flight ack write
		close(ackKick)
		<-ackerDone
	}()
	// Liveness is enforced on reads alone: the per-frame grace deadline
	// below must not bound writes, or the async acker (which writes at
	// arbitrary points, unlike the old inline ack that always followed a
	// fresh deadline) trips a stale write deadline and tears the link down.
	conn.SetWriteDeadline(time.Time{})
	for {
		conn.SetReadDeadline(time.Now().Add(n.cfg.FailoverGrace))
		kind, payload, err := fr.Next()
		if err != nil {
			return err
		}
		*lastContact = time.Now()
		switch kind {
		case wire.KindReplicate, wire.KindReplicateTraced:
			// A traced frame carries the sampled operation's trace ID as a
			// prefix; the apply and the covering ack become spans in it.
			var trace uint64
			if kind == wire.KindReplicateTraced {
				trace, payload, err = wire.SplitTraceCtx(payload)
				if err != nil {
					return err
				}
			}
			ents, err = wire.DecodeEntriesInto(ents[:0], payload)
			if err != nil {
				return err
			}
			var applyStart time.Time
			if trace != 0 {
				applyStart = time.Now()
			}
			if err := n.applyEntries(ents); err != nil {
				return err
			}
			if trace != 0 {
				n.cfg.Obs.SpanCtx(obs.SpanRepApply, 0, trace, applyStart,
					uint64(time.Since(applyStart)), false)
				n.noteTracedApply(trace, n.Seq())
			}
			select {
			case ackKick <- struct{}{}:
			default: // the acker is already due to run; it reads the latest seq
			}
		case wire.KindHeartbeat:
			h, err := wire.ParseHeartbeat(payload)
			if err != nil {
				return err
			}
			n.m.primarySeq.Store(h.Seq)
			// Echo verbatim so the primary can measure the round trip.
			wmu.Lock()
			err = wire.WriteFrame(conn, wire.KindHeartbeat, payload)
			wmu.Unlock()
			if err != nil {
				return err
			}
		case wire.KindErr:
			return wire.ParseErrFrame(payload)
		default:
			return fmt.Errorf("%w: unexpected kind %d on replication link", wire.ErrBadMessage, kind)
		}
	}
}

// runAcker streams cumulative applied-seq acknowledgments to the primary.
// Each kick means "the applied seq advanced"; the acker reads the latest
// value, so any number of frames applied during one ack write collapse
// into the next ack. Exits when the kick channel closes or a write fails.
func (n *Node) runAcker(conn net.Conn, wmu *sync.Mutex, kick <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var buf []byte
	var lastSent uint64
	for range kick {
		seq := n.Seq()
		if seq <= lastSent {
			continue
		}
		a := wire.RepAck{Epoch: n.Epoch(), Seq: seq}
		buf = wire.AppendRepAck(buf[:0], &a)
		wmu.Lock()
		err := wire.WriteFrame(conn, wire.KindRepAck, buf)
		wmu.Unlock()
		if err != nil {
			return
		}
		n.emitAckSpan(seq)
		lastSent = seq
	}
}

// applyEntries replays a shipped batch under the log lock, entry by entry in
// log order. The log lock is held across the whole frame, so promotion and
// metrics never observe a half-applied batch.
func (n *Node) applyEntries(ents []wire.Entry) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || Role(n.role.Load()) == RolePrimary {
		return nil
	}
	for i := range ents {
		if ents[i].Seq != n.seq+uint64(i)+1 {
			return fmt.Errorf("%w: log gap: entry %d after %d", wire.ErrBadMessage,
				ents[i].Seq, n.seq+uint64(i))
		}
	}
	for i := range ents {
		n.applyEntry(&ents[i])
		n.seq = ents[i].Seq
	}
	return nil
}

// applyEntry replays one entry against its session's shadow. The caller
// holds the log lock.
func (n *Node) applyEntry(e *wire.Entry) {
	if hook := n.cfg.ApplyHook; hook != nil {
		hook(e)
	}
	switch e.Kind {
	case wire.EntryAttach:
		client, err := n.fs.Attach(e.Cred)
		if err != nil {
			n.cfg.Logf("replica: shadow attach for session %x failed: %v", e.Sess, err)
			n.m.replaySkipped.Add(1)
			return
		}
		n.sessions[e.Sess] = newSession(e.Sess, e.Cred, client)
	case wire.EntryOp, wire.EntryPwrite:
		sess := n.sessions[e.Sess]
		if sess == nil {
			n.m.replaySkipped.Add(1)
			return
		}
		req := &e.Req
		var resp wire.Response
		switch req.Op {
		case wire.OpCreate, wire.OpOpen:
			resp = sess.openAt(req, e.ResFD)
		default:
			resp = wire.Execute(sess.client, req)
		}
		switch {
		case resp.Code != wire.CodeOK:
			// The primary only ships successes; a failure here means the
			// replicas diverged, or the descriptor could not be reopened
			// when this backup joined.
			n.m.replayErrors.Add(1)
			n.cfg.Logf("replica: replay of seq %d (%v) failed: %s", e.Seq, req.Op, resp.Msg)
		case req.Op == wire.OpClose:
			sess.noteClose(req.FD)
		case req.Op == wire.OpDetach:
			delete(n.sessions, e.Sess)
			return // nothing left to cache against
		}
		sess.cacheResp(&resp, e.Seq)
	}
}

// fdReserver is what a backup needs of its shadow clients beyond fsapi:
// opening at the descriptor number the primary handed out
// (core.Client.ReserveFDs).
type fdReserver interface{ ReserveFDs(last fsapi.FD) }

// openAt replays a create or open so that it hands out descriptor fd, the
// number the primary handed out, and records it. Any other number is
// divergence, answered as a failure.
func (s *session) openAt(req *wire.Request, fd fsapi.FD) wire.Response {
	s.client.(fdReserver).ReserveFDs(fd - 1)
	resp := wire.Execute(s.client, req)
	if resp.Code != wire.CodeOK {
		return resp
	}
	s.noteOpen(req, resp.FD)
	if resp.FD != fd {
		resp.Code = wire.CodeOther
		resp.Msg = fmt.Sprintf("opened descriptor %d, the primary's is %d", resp.FD, fd)
	}
	return resp
}
