// Package server serves a mounted Simurgh volume over TCP using the wire
// protocol. One connection is one attached process: the handshake performs
// fsapi.FileSystem.Attach and the resulting fsapi.Client — which owns the
// connection's open-file table, exactly like a preloaded process in the
// paper — executes every operation the connection sends.
//
// Batches are the unit of scheduling: a KindBatch frame is decoded by the
// connection's reader goroutine and handed to a bounded worker pool; the
// worker executes the batch's operations sequentially in order (so a client
// may batch dependent calls like create→write→close) and writes the reply
// in one or more KindReply frames (several, when the responses — say many
// coalesced MaxIO reads — would overflow a single frame). Concurrency comes
// from connections and from pipelining:
// a client may send further batches before earlier replies arrive, and
// independent batches of one connection may execute on different workers.
//
// Read-only batches skip the pool entirely: a batch made solely of
// never-replicated reads (pread, stat, lstat, fstat, readlink, readdir)
// executes inline on the connection goroutine with connection-local scratch
// — no queue hop, no handoff, no allocation. This is safe because batch
// execution order across batches is already unguaranteed (independent
// batches run on different workers), and those ops touch no session state
// that replication would have to sequence.
//
// The steady-state request path is allocation-free: frames land in pooled
// buffers, requests decode aliasing the frame (wire.DecodeBatchInto),
// responses encode straight into a reused reply payload sized by
// wire.ResponseSize — read data lands there directly from the file system
// (wire.AppendRead) — and reply frames go out in one vectored write
// (wire.VecWriter). A batch that does queue transfers frame-buffer
// ownership into a pooled job, released only after its reply is written.
//
// Backpressure is explicit: when the worker queue stays full past
// Config.RequestTimeout the batch is answered with CodeOverload instead of
// stalling the connection forever, and connections beyond Config.MaxConns
// are refused with a KindErr frame at accept. Shutdown drains: the listener
// closes, idle readers are nudged off their blocking reads, in-flight
// batches finish and flush their replies, and only stragglers past
// Config.DrainTimeout are cut.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/wire"
)

// Replica is the replication layer's hook surface (implemented by
// internal/replica.Node). The server stays ignorant of roles, epochs, and
// quorums; it routes attaches and state-changing operations through the
// hook and hands replication-protocol connections over wholesale.
type Replica interface {
	// AttachClient routes a client attach: on the primary it returns the
	// session (resuming an existing one when clientID matches), on a
	// backup it fails with wire.ErrNotPrimary and a redirect address.
	AttachClient(cred fsapi.Cred, clientID uint64) (c fsapi.Client, sessID uint64, redirect string, err error)
	// Apply executes one replicated operation: exec runs under the log
	// lock, the entry ships to the backups, and the returned sequence is
	// what WaitQuorum gates on. Duplicate request IDs (a client replaying
	// after failover) are answered from the session's replay cache without
	// re-executing. trace (0 = untraced) is the distributed trace ID of the
	// batch; the replication layer tags the shipped entry's frame with it so
	// backup-side spans link into the same trace.
	Apply(sessID uint64, req *wire.Request, trace uint64, exec func() wire.Response) (wire.Response, uint64)
	// WaitQuorum blocks until the configured quorum of live backups has
	// acknowledged seq (immediately when no backup is connected).
	WaitQuorum(seq uint64)
	// ReleaseSession marks a session's connection gone without detaching
	// it, so a failed-over client can resume it.
	ReleaseSession(sessID uint64)
	// HandleJoin takes ownership of a backup's replication connection
	// (snapshot transfer, log shipping, heartbeats) and blocks until the
	// link dies.
	HandleJoin(conn net.Conn, fr *wire.FrameReader, payload []byte) error
	// Promote makes this node the primary (admin op), returning the new
	// epoch.
	Promote() (uint64, error)
}

// Sharding is the shard authority's hook surface (implemented by
// internal/shard.Authority). The server stays ignorant of maps, prefixes,
// and epochs: it serves the encoded map over the control kinds, verifies
// attach-time shard claims, and asks per operation whether this node still
// serves the operation's shard — answering CodeMoved (never executing, and
// never entering the replication log) when it does not.
type Sharding interface {
	// MapFor returns the encoded shard map, or nil when the caller's epoch
	// is already current (KindMapGet).
	MapFor(haveEpoch uint64) []byte
	// Install decodes and installs a pushed map, returning the encoded
	// installed map (KindMapSet). On a node losing shards it returns only
	// after the handoff drain, making the caller's reply the migration
	// barrier.
	Install(payload []byte) ([]byte, error)
	// CheckAttach verifies an attach-time shard claim: nil to accept, a
	// Moved naming the current owner to refuse.
	CheckAttach(claim wire.AttachClaim) *wire.Moved
	// MovedPath decides a path-carrying operation: nil to serve, a Moved
	// when the path's shard lives elsewhere.
	MovedPath(path string) *wire.Moved
	// MovedShard decides a descriptor operation by the session's attach
	// claim (claimed=false for plain unclaimed clients).
	MovedShard(shard uint32, claimed bool) *wire.Moved
}

// Config parameterizes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// FS is the volume to serve. Required unless Replica is set (a backup
	// has no volume until its snapshot restores; the replication layer
	// supplies the clients).
	FS fsapi.FileSystem
	// Replica, when set, routes attaches and state-changing operations
	// through the replication layer.
	Replica Replica
	// Sharding, when set, scopes this node to the shards its authority
	// serves: stale-routed operations answer CodeMoved and the map control
	// kinds (MapGet/MapSet) are served.
	Sharding Sharding
	// MaxConns bounds concurrently open connections; further accepts are
	// refused with a KindErr frame. Default 256.
	MaxConns int
	// Workers is the batch-execution pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds batches waiting for a worker across all
	// connections. Default 1024.
	QueueDepth int
	// RequestTimeout bounds how long a decoded batch may wait for a free
	// queue slot before it is refused with CodeOverload, and how long the
	// attach handshake may take. Default 5s.
	RequestTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight connections before
	// force-closing them. Default 5s.
	DrainTimeout time.Duration
	// Obs, when set, receives server-side spans (queue wait, execute,
	// quorum wait) for traced batches — frames of kind KindBatchTraced.
	// Untraced batches never touch it. Optional; nil records nothing.
	Obs *obs.Registry
	// Logf receives connection-level diagnostics. Default: discard.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server accepts wire-protocol connections and executes their batches
// against one fsapi.FileSystem.
type Server struct {
	cfg      Config
	m        metrics
	work     chan *job
	draining atomic.Bool
	drainCh  chan struct{} // closed when Shutdown starts
	aborted  atomic.Bool   // set by Abort before it touches any connection

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	connWG       sync.WaitGroup
	workerWG     sync.WaitGroup
	shutdownOnce sync.Once
}

// job is one decoded batch queued for execution. It owns the frame buffer
// its requests alias (taken from the FrameReader with Detach); putJob
// returns both the job and the buffer to their pools once the reply is
// written.
type job struct {
	sess  *session
	reqs  []wire.Request
	owner *wire.Buf
	enq   time.Time
	trace uint64 // distributed trace ID of the batch; 0 = untraced
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

func getJob() *job { return jobPool.Get().(*job) }

func putJob(j *job) {
	wire.PutBuf(j.owner)
	j.owner = nil
	j.sess = nil
	j.trace = 0
	clear(j.reqs) // drop aliases into the released buffer
	j.reqs = j.reqs[:0]
	jobPool.Put(j)
}

// replyBudget bounds one KindReply payload so the frame (kind byte plus
// payload) always fits MaxFrame. A batch whose responses exceed it — e.g.
// several coalesced MaxIO reads — is split across multiple reply frames;
// request IDs let the client match each partial reply.
const replyBudget = wire.MaxFrame - 1

// maxStagedReply bounds the reply bytes a batch may accumulate before a
// vectored flush, so a huge read batch (up to MaxBatch coalesced MaxIO
// preads) never holds its entire reply in memory at once.
const maxStagedReply = 2 * wire.MaxFrame

// replyScratch is the reusable buffer set each reply-producing goroutine (a
// worker, or a connection's fast path) threads through batch execution:
// responses encode into payload — reads land there straight from the file
// system (wire.AppendRead) — and whole frames are staged as views into it.
type replyScratch struct {
	payload    []byte
	frameStart int // start of the currently open frame within payload
	vw         wire.VecWriter
}

// shrink drops an outsized payload after a batch so a single giant reply
// doesn't pin memory in a long-lived worker.
func (rs *replyScratch) shrink() {
	if cap(rs.payload) > maxStagedReply {
		rs.payload = nil
	}
}

// grow makes the payload's capacity at least want, keeping its contents.
// Frames already staged keep pointing into the old array, whose bytes are
// complete and never mutated again.
func (rs *replyScratch) grow(want int) {
	if want > cap(rs.payload) {
		rs.payload = append(make([]byte, 0, want), rs.payload...)
	}
}

// connState is the per-connection scratch the read loop reuses: the decoded
// request slice (aliasing the current frame buffer) and the fast path's
// reply scratch.
type connState struct {
	reqs []wire.Request
	rs   replyScratch
}

// fastOps marks the operations a batch may contain and still execute
// inline on the connection goroutine: reads that never replicate and touch
// no per-session mutable state (the descriptor table; positions live in the
// client). A whole-file read of a session is one of these.
var fastOps = [wire.NumOps]bool{
	wire.OpPread: true, wire.OpStat: true, wire.OpLstat: true,
	wire.OpFstat: true, wire.OpReadlink: true, wire.OpReadDir: true,
}

// fastBatch reports whether every request qualifies for the inline path.
func fastBatch(reqs []wire.Request) bool {
	for i := range reqs {
		if !fastOps[reqs[i].Op] {
			return false
		}
	}
	return true
}

// session is the server half of one attached connection.
type session struct {
	srv    *Server
	conn   net.Conn
	client fsapi.Client
	sessID uint64 // replication session identity (0 without a Replica)

	// claimShard is the shard this session claimed at attach time; claimed
	// distinguishes a real claim from a plain (router-less) client, whose
	// descriptor operations are only fenced when the node serves nothing.
	claimShard uint32
	claimed    bool

	wmu  sync.Mutex
	bufw *bufWriter

	inflight sync.WaitGroup // batches queued or executing
}

// bufWriter is the minimal buffered-writer surface session needs; split out
// so tests can substitute a failing writer.
type bufWriter struct {
	w   io.Writer
	buf []byte
}

func newBufWriter(w io.Writer) *bufWriter {
	return &bufWriter{w: w, buf: make([]byte, 0, 64<<10)}
}

func (b *bufWriter) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *bufWriter) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// New builds a Server for cfg. Call Serve to start accepting.
func New(cfg Config) (*Server, error) {
	if cfg.FS == nil && cfg.Replica == nil {
		return nil, errors.New("server: Config.FS is required")
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		work:    make(chan *job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns nil
// after a drain-initiated stop, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		draining := s.draining.Load()
		over := len(s.conns) >= s.cfg.MaxConns || draining
		if !over {
			s.conns[conn] = struct{}{}
		}
		s.mu.Unlock()
		if over {
			// Over-limit connections may retry; a draining server is going
			// away, so tell those clients not to.
			reason := error(wire.ErrOverload)
			if draining {
				reason = wire.ErrShutdown
			}
			s.refuse(conn, reason)
			continue
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// refuse answers an over-limit connection with a KindErr frame and closes
// it without admitting it to the connection table.
func (s *Server) refuse(conn net.Conn, reason error) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	wire.WriteFrame(conn, wire.KindErr, wire.AppendErrFrame(nil, reason))
	conn.Close()
}

// handleConn runs one connection: handshake, then the batch read loop.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	fr := wire.NewFrameReader(countingReader{inner: conn, m: &s.m})
	defer fr.Release()
	sess := &session{srv: s, conn: conn, bufw: newBufWriter(conn)}

	// The handshake must arrive promptly; afterwards the connection may
	// idle indefinitely between batches.
	conn.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	done, err := s.handshake(fr, sess)
	if err != nil {
		s.cfg.Logf("server: attach from %s failed: %v", conn.RemoteAddr(), err)
		s.writeErrFrame(sess, err)
		return
	}
	if done {
		// The handshake consumed the whole connection (a replication join
		// that has since died, a redirect, an admin promote).
		return
	}
	conn.SetReadDeadline(time.Time{})
	s.m.sessions.Add(1)

	err = s.readLoop(fr, sess)
	// Let queued and executing batches flush their replies before the
	// deferred close; their responses are the last frames of the session.
	sess.inflight.Wait()
	if s.cfg.Replica != nil {
		// Keep the session resumable: the client may be failing over, not
		// leaving. An explicit OpDetach already tore it down via Apply.
		s.cfg.Replica.ReleaseSession(sess.sessID)
	} else {
		sess.client.Detach()
	}
	if err != nil && !errors.Is(err, io.EOF) && !s.draining.Load() {
		s.cfg.Logf("server: conn %s: %v", conn.RemoteAddr(), err)
		s.writeErrFrame(sess, err)
	}
}

// handshake expects the opening frame: KindAttach from clients (attach to
// the volume, acknowledge with the file system name), KindJoin from a
// backup enlisting for replication, or KindPromote from an admin. done
// reports that the connection needs no batch loop.
func (s *Server) handshake(fr *wire.FrameReader, sess *session) (done bool, err error) {
	kind, payload, err := fr.Next()
	if err != nil {
		return false, fmt.Errorf("reading attach: %w", err)
	}
	s.m.framesRead.Add(1)
	switch kind {
	case wire.KindAttach:
	case wire.KindJoin:
		if s.cfg.Replica == nil {
			return false, fmt.Errorf("%w: join without replication", wire.ErrBadMessage)
		}
		sess.conn.SetReadDeadline(time.Time{})
		if err := s.cfg.Replica.HandleJoin(sess.conn, fr, payload); err != nil && !s.draining.Load() {
			s.cfg.Logf("server: replication link %s: %v", sess.conn.RemoteAddr(), err)
		}
		return true, nil
	case wire.KindPromote:
		if s.cfg.Replica == nil {
			return false, fmt.Errorf("%w: promote without replication", wire.ErrBadMessage)
		}
		epoch, err := s.cfg.Replica.Promote()
		if err != nil {
			return false, err
		}
		sess.wmu.Lock()
		defer sess.wmu.Unlock()
		var pl [8]byte
		binary.LittleEndian.PutUint64(pl[:], epoch)
		if err := wire.WriteFrame(sess.bufw, wire.KindPromoteOK, pl[:]); err != nil {
			return false, err
		}
		return true, sess.bufw.Flush()
	case wire.KindMapGet:
		if s.cfg.Sharding == nil {
			return false, fmt.Errorf("%w: map get without sharding", wire.ErrBadMessage)
		}
		have, err := wire.ParseMapGet(payload)
		if err != nil {
			return false, err
		}
		return true, s.writeFrame(sess, wire.KindMapOK, s.cfg.Sharding.MapFor(have))
	case wire.KindMapSet:
		if s.cfg.Sharding == nil {
			return false, fmt.Errorf("%w: map set without sharding", wire.ErrBadMessage)
		}
		// An install that retires shards blocks on the handoff drain; its
		// reply is the migration coordinator's barrier, so no read deadline
		// may cut it short.
		sess.conn.SetReadDeadline(time.Time{})
		installed, err := s.cfg.Sharding.Install(payload)
		if err != nil {
			return false, err
		}
		return true, s.writeFrame(sess, wire.KindMapOK, installed)
	default:
		return false, fmt.Errorf("%w: expected attach, got kind %d", wire.ErrBadMessage, kind)
	}
	cred, clientID, claim, claimed, err := wire.ParseAttachClaim(payload)
	if err != nil {
		return false, err
	}
	if claimed && s.cfg.Sharding != nil {
		if mv := s.cfg.Sharding.CheckAttach(claim); mv != nil {
			// The claimed shard lives elsewhere: answer Moved instead of
			// attaching, so a stale-mapped router refetches before it ever
			// holds a session here.
			return true, s.writeFrame(sess, wire.KindMoved, wire.AppendMoved(nil, mv))
		}
		sess.claimShard, sess.claimed = claim.Shard, true
	}
	var client fsapi.Client
	var name string
	if s.cfg.Replica != nil {
		var sessID uint64
		var redirect string
		client, sessID, redirect, err = s.cfg.Replica.AttachClient(cred, clientID)
		if errors.Is(err, wire.ErrNotPrimary) {
			sess.wmu.Lock()
			defer sess.wmu.Unlock()
			rdr := wire.Redirect{Addr: redirect}
			if err := wire.WriteFrame(sess.bufw, wire.KindRedirect, wire.AppendRedirect(nil, &rdr)); err != nil {
				return false, err
			}
			return true, sess.bufw.Flush()
		}
		if err != nil {
			return false, err
		}
		sess.sessID = sessID
		name = "replicated"
		if s.cfg.FS != nil {
			name = s.cfg.FS.Name()
		}
	} else {
		client, err = s.cfg.FS.Attach(cred)
		if err != nil {
			return false, err
		}
		name = s.cfg.FS.Name()
	}
	sess.client = client
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if err := wire.WriteFrame(sess.bufw, wire.KindAttachOK, []byte(name)); err != nil {
		return false, err
	}
	return false, sess.bufw.Flush()
}

// readLoop decodes batch frames and dispatches them until the connection
// errors, the client disconnects, or drain nudges the read. Read-only
// batches run inline right here; everything else transfers the frame buffer
// into a pooled job and queues for a worker.
func (s *Server) readLoop(fr *wire.FrameReader, sess *session) error {
	var cs connState
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			return err
		}
		s.m.framesRead.Add(1)
		var trace uint64
		switch kind {
		case wire.KindBatch:
		case wire.KindBatchTraced:
			trace, payload, err = wire.SplitTraceCtx(payload)
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: expected batch, got kind %d", wire.ErrBadMessage, kind)
		}
		cs.reqs, err = wire.DecodeBatchInto(cs.reqs[:0], payload)
		if err != nil {
			return err
		}
		if len(cs.reqs) == 0 {
			continue
		}
		s.m.observeBatch(len(cs.reqs))
		if fastBatch(cs.reqs) {
			s.execBatch(sess, cs.reqs, &cs.rs, time.Now(), trace, true)
			cs.rs.shrink()
			continue
		}
		if err := s.submit(sess, fr, cs.reqs, trace); err != nil {
			return err
		}
	}
}

// submit hands one batch to the worker pool, answering with CodeOverload
// (or CodeShutdown while draining) if no queue slot frees up within
// RequestTimeout. The frame buffer's ownership moves into the job; the
// requests in reqs alias it, so they are shallow-copied and stay valid.
func (s *Server) submit(sess *session, fr *wire.FrameReader, reqs []wire.Request, trace uint64) error {
	j := getJob()
	j.sess = sess
	j.enq = time.Now()
	j.trace = trace
	j.reqs = append(j.reqs[:0], reqs...)
	j.owner = fr.Detach()
	sess.inflight.Add(1)
	select {
	case s.work <- j:
		return nil
	default:
		// Queue full: fall through to the timed wait. Only this slow path
		// pays for a timer.
	}
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case s.work <- j:
		return nil
	case <-s.drainCh:
		return s.rejectJob(j, wire.ErrShutdown)
	case <-timer.C:
		return s.rejectJob(j, wire.ErrOverload)
	}
}

// rejectJob answers an unadmitted job's batch with the rejection error and
// releases the job.
func (s *Server) rejectJob(j *job, reason error) error {
	j.sess.inflight.Done()
	err := s.rejectBatch(j.sess, j.reqs, reason)
	putJob(j)
	return err
}

// rejectBatch replies to every request of an unadmitted batch with the
// rejection error.
func (s *Server) rejectBatch(sess *session, reqs []wire.Request, reason error) error {
	code := wire.CodeOf(reason)
	var payload []byte
	for i := range reqs {
		resp := wire.Response{ID: reqs[i].ID, Op: reqs[i].Op, Code: code}
		payload = wire.AppendResponse(payload, &resp)
	}
	return s.writeReply(sess, payload)
}

// worker executes queued batches until the work channel closes, reusing one
// replyScratch across every batch it runs.
func (s *Server) worker() {
	defer s.workerWG.Done()
	var rs replyScratch
	for j := range s.work {
		s.execBatch(j.sess, j.reqs, &rs, j.enq, j.trace, false)
		j.sess.inflight.Done()
		putJob(j)
		rs.shrink()
	}
}

// execBatch executes one batch's operations in order against the session's
// client and writes the reply frames, splitting whenever the accumulated
// responses would overflow one frame. Responses encode directly into the
// scratch payload (sized by wire.ResponseSize — no staging copy) and closed
// frames flush in one vectored write. With a Replica configured,
// state-changing operations detour through the replication log, and each
// flush waits for the quorum to cover the highest sequence it carries —
// acks pipeline across a batch instead of stalling per op. A close is the one
// replicated operation whose sequence the flush does not wait for: it is in
// the log, and the reply goes out once the primary has executed it. All a
// failover can lose that way is the entry itself — a descriptor left open in
// the promoted backup's shadow session until the session detaches — and the
// client never names a descriptor again after closing it. Every read lands
// in the reply frame: room for the most it may return is reserved at the
// payload's tail, the file system reads into it, and the reservation is
// trimmed to what came back — one copy, device to frame.
func (s *Server) execBatch(sess *session, reqs []wire.Request, rs *replyScratch, enq time.Time, trace uint64, fast bool) {
	rep := s.cfg.Replica
	var pendingSeq uint64
	var execStart time.Time
	if trace != 0 {
		// The batch arrived in a traced frame: time the execute window and
		// attribute the queue wait (worker path only — the fast path never
		// queued). The untraced path takes none of these clock reads.
		execStart = time.Now()
		if !fast {
			s.cfg.Obs.SpanCtx(obs.SpanSrvQueue, batchOp(reqs), trace, enq, uint64(execStart.Sub(enq)), false)
		}
	}
	rs.payload = rs.payload[:0]
	rs.frameStart = 0
	// Size the payload once, from what the batch's reads may return, rather
	// than by doubling under staged frames that keep every outgrown array
	// alive until the flush.
	reads := 0
	for i := range reqs {
		if reqs[i].Op == wire.OpPread {
			reads += wire.ReadResponseMax(&reqs[i])
		}
	}
	rs.grow(min(reads, maxStagedReply))
	// flush writes out everything staged, after the quorum covers it; false
	// means the session is dead and the batch with it.
	flush := func() bool {
		if rep != nil && pendingSeq > 0 {
			s.waitQuorum(rep, pendingSeq, trace, batchOp(reqs))
			pendingSeq = 0
		}
		if err := s.flushReplies(sess, rs); err != nil {
			s.cfg.Logf("server: reply to %s failed: %v", sess.conn.RemoteAddr(), err)
			sess.conn.Close() // unwedge the reader; the session is dead
			return false
		}
		return true
	}
	// closeFrame stages the open frame. The staged view stays valid even if
	// payload's array is later reallocated: the old array's bytes are
	// complete and never mutated.
	closeFrame := func() {
		if len(rs.payload) > rs.frameStart {
			rs.vw.Stage(wire.KindReply, rs.payload[rs.frameStart:len(rs.payload):len(rs.payload)])
			rs.frameStart = len(rs.payload)
		}
	}
	// full reports that a response of up to need bytes would overflow the
	// open frame; nextFrame then closes it, and flushes once enough is staged.
	full := func(need int) bool {
		open := len(rs.payload) - rs.frameStart
		return open > 0 && open+need > replyBudget
	}
	nextFrame := func() bool {
		closeFrame()
		return rs.vw.StagedBytes() < maxStagedReply || flush()
	}
	shd := s.cfg.Sharding
	for i := range reqs {
		req := &reqs[i]
		var resp wire.Response
		var mv *wire.Moved
		if shd != nil {
			mv = s.shardMoved(sess, req)
		}
		landed := false // a read's response is in the payload already
		switch {
		case mv != nil:
			resp = movedResponse(sess, req, mv)
		case req.Op.Retired():
			resp = errResponse(req, fsapi.ErrInval)
		case req.Op == wire.OpPread:
			// The reservation, not the bytes read, is the bound the frame
			// and the staging budget are held to: what a read returns is
			// known only once it is in place.
			need := wire.ReadResponseMax(req)
			if full(need) && !nextFrame() {
				return
			}
			if tail := len(rs.payload) + need; tail > cap(rs.payload) {
				if tail > maxStagedReply {
					// The payload never outgrows the staging budget on a
					// reservation's account: write out what it holds.
					closeFrame()
					if !flush() {
						return
					}
					tail = need
				}
				rs.grow(max(tail, min(2*cap(rs.payload), maxStagedReply)))
			}
			if p, err := wire.AppendRead(rs.payload, sess.client, req); err != nil {
				resp = errResponse(req, err)
			} else {
				rs.payload, landed = p, true
			}
		case rep != nil && req.Op.Replicated():
			var seq uint64
			resp, seq = rep.Apply(sess.sessID, req, trace, func() wire.Response {
				// Re-check under the replication op gate: a migration's
				// authority swap between the loop's check and this exec must
				// still fence the op. A Moved response never enters the log
				// (only CodeOK ships), so the client retries it on the new
				// owner with nothing half-applied here.
				if shd != nil {
					if mv := s.shardMoved(sess, req); mv != nil {
						return movedResponse(sess, req, mv)
					}
				}
				return wire.Execute(sess.client, req)
			})
			if seq > pendingSeq && req.Op != wire.OpClose {
				pendingSeq = seq
			}
		default:
			resp, _ = wire.ExecuteInto(sess.client, req, nil)
			wire.FillWriteOff(sess.client, req, &resp)
		}
		s.m.requestNs.observe(uint64(time.Since(enq)))
		s.m.requests.Add(1)
		if landed {
			continue
		}
		need := wire.ResponseSize(&resp)
		if need > replyBudget {
			// A single response no frame can carry (an enormous directory
			// listing): answer that request with an error instead of
			// tearing the connection down on an unwritable frame.
			resp = errResponse(req, wire.ErrFrameTooLarge)
			need = wire.ResponseSize(&resp)
		}
		if full(need) && !nextFrame() {
			return
		}
		rs.payload = wire.AppendResponse(rs.payload, &resp)
	}
	closeFrame()
	if !flush() {
		return
	}
	if trace != 0 {
		kind := obs.SpanSrvExec
		if fast {
			kind = obs.SpanSrvExecFast
		}
		s.cfg.Obs.SpanCtx(kind, batchOp(reqs), trace, execStart, uint64(time.Since(execStart)), false)
	}
}

// errResponse answers req with err's wire code and message.
func errResponse(req *wire.Request, err error) wire.Response {
	code := wire.CodeOf(err)
	return wire.Response{ID: req.ID, Op: req.Op, Code: code, Msg: wire.MsgFor(code, err)}
}

// batchOp maps a batch to the obs operation class of its first request, for
// span display (wire ops are obs ops shifted by the invalid sentinel).
func batchOp(reqs []wire.Request) obs.Op {
	if len(reqs) == 0 {
		return 0
	}
	return obs.Op(reqs[0].Op - 1)
}

// waitQuorum blocks until the replica layer has quorum coverage for seq,
// attributing the stall to the quorum-wait histogram. With pipelined
// shipping this is the only point where replication latency is visible to a
// client: execution never waits, only the reply flush does.
func (s *Server) waitQuorum(rep Replica, seq uint64, trace uint64, op obs.Op) {
	start := time.Now()
	rep.WaitQuorum(seq)
	wait := uint64(time.Since(start))
	s.m.quorumWaitNs.observe(wait)
	if trace != 0 {
		s.cfg.Obs.SpanCtx(obs.SpanSrvQuorum, op, trace, start, wait, false)
	}
}

// errAborted is what a reply flush reports once Abort has begun.
var errAborted = errors.New("server: aborted")

// flushReplies writes every staged reply frame in one vectored write under
// the session's write lock and resets the scratch.
func (s *Server) flushReplies(sess *session, rs *replyScratch) error {
	if s.aborted.Load() {
		// A killed daemon acknowledges nothing. Abort cuts connections one
		// by one; when the replication link goes first, the quorum wait ends
		// and releases this worker while its client's connection is still up.
		rs.vw.Flush(io.Discard)
		rs.payload, rs.frameStart = rs.payload[:0], 0
		return errAborted
	}
	sess.wmu.Lock()
	_, err := rs.vw.Flush(sess.conn)
	sess.wmu.Unlock()
	rs.payload = rs.payload[:0]
	rs.frameStart = 0
	return err
}

// shardMoved decides whether req may execute on this node, returning the
// Moved destination when its shard has been handed off. Path-carrying
// operations route by path; descriptor operations by the session's
// attach-time shard claim. Detach is exempt: a departing client may always
// clean its session up wherever it is.
func (s *Server) shardMoved(sess *session, req *wire.Request) *wire.Moved {
	switch req.Op {
	case wire.OpDetach:
		return nil
	case wire.OpSymlink:
		// Path carries the link's uninterpreted target string; the link's
		// own name (Path2) is what places the operation on a shard.
		return s.cfg.Sharding.MovedPath(req.Path2)
	case wire.OpRename, wire.OpLink:
		// Two-path operations are local only when both names are: a stale
		// router whose map splits the pair must be bounced, not half-served.
		if mv := s.cfg.Sharding.MovedPath(req.Path); mv != nil {
			return mv
		}
		return s.cfg.Sharding.MovedPath(req.Path2)
	}
	if req.Path != "" {
		return s.cfg.Sharding.MovedPath(req.Path)
	}
	return s.cfg.Sharding.MovedShard(sess.claimShard, sess.claimed)
}

// movedResponse answers one fenced request with CodeMoved. The message
// names the shard's current owner for humans; routers ignore it and
// refetch the map.
func movedResponse(sess *session, req *wire.Request, mv *wire.Moved) wire.Response {
	msg := fmt.Sprintf("wire: shard moved (epoch %d)", mv.Epoch)
	if mv.Addr != "" {
		msg = fmt.Sprintf("wire: shard moved to %s (epoch %d)", mv.Addr, mv.Epoch)
	}
	return wire.Response{ID: req.ID, Op: req.Op, Code: wire.CodeMoved, Msg: msg}
}

// writeFrame frames and flushes one handshake/control reply under the
// session's write lock.
func (s *Server) writeFrame(sess *session, kind wire.Kind, payload []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if err := wire.WriteFrame(sess.bufw, kind, payload); err != nil {
		return err
	}
	return sess.bufw.Flush()
}

// writeReply frames and flushes one KindReply payload under the session's
// write lock.
func (s *Server) writeReply(sess *session, payload []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if err := wire.WriteFrame(sess.bufw, wire.KindReply, payload); err != nil {
		return err
	}
	return sess.bufw.Flush()
}

// writeErrFrame best-effort reports a connection-level error to the peer.
func (s *Server) writeErrFrame(sess *session, err error) {
	sess.conn.SetWriteDeadline(time.Now().Add(time.Second))
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if wire.WriteFrame(sess.bufw, wire.KindErr, wire.AppendErrFrame(nil, err)) == nil {
		sess.bufw.Flush()
	}
}

// Draining reports whether Shutdown has begun (for health endpoints).
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort terminates the server immediately — no drain, no flushed replies,
// connections cut mid-frame. It exists so crash tests can approximate a
// SIGKILLed daemon in-process; production shutdown is Shutdown.
func (s *Server) Abort() {
	s.shutdownOnce.Do(func() {
		s.aborted.Store(true)
		s.draining.Store(true)
		close(s.drainCh)
		s.mu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		close(s.work)
		s.workerWG.Wait()
	})
}

// Shutdown gracefully drains the server: stop accepting, nudge idle
// readers, let in-flight batches reply, force-close stragglers after
// DrainTimeout, then stop the worker pool. Idempotent; later calls return
// once the first drain completes.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(s.shutdown)
}

func (s *Server) shutdown() {
	s.draining.Store(true)
	close(s.drainCh)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Knock blocked readers off their reads; their handlers then wait
		// for in-flight batches and exit.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// All connection handlers have returned, so nothing can submit; the
	// queue can close and the workers run it dry.
	close(s.work)
	s.workerWG.Wait()
}
