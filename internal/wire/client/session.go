package client

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/wire"
)

// sendItem is one encoded request group queued for the writer. payload
// aliases rb's pooled buffer; the writer holds one of rb's references and
// releases it once the bytes are on the wire. trace (0 = untraced) marks a
// sampled group: the writer tags the whole coalesced frame with it and
// records the enqueue/send spans; start is the submission time the enqueue
// span begins at. t is the transport that was live when the group's calls
// were registered: a writer sends only its own transport's groups, because a
// group registered under an earlier one was in pend when resume took its
// snapshot and has already been replayed — sending it again would put the
// same request IDs on the wire twice, and two copies in flight at once can
// both miss the server's replay cache.
type sendItem struct {
	rb      *refBuf
	payload []byte
	n       int // requests in payload
	trace   uint64
	start   time.Time
	t       *transport
}

// refBuf is a reference-counted pooled request buffer. One buffer backs a
// whole submitted group and has two holders: the submission, whose pending
// calls keep their encoded segments in it for failover replay until the
// group retires, and the write loop, until the payload is written. It
// recycles when the second of them lets go.
type refBuf struct {
	buf  *wire.Buf
	refs atomic.Int32
}

var refBufPool = sync.Pool{New: func() any { return new(refBuf) }}

// getRefBuf returns a refcounted buffer with room for est bytes and zero
// length. The caller must Store the reference count before sharing it.
func (s *Session) getRefBuf(est int) *refBuf {
	rb := refBufPool.Get().(*refBuf)
	if rb.buf == nil || cap(rb.buf.B) < est {
		wire.PutBuf(rb.buf)
		rb.buf = wire.GetBuf(est)
	}
	rb.buf.B = rb.buf.B[:0]
	s.reqBufs.Add(1)
	return rb
}

// release drops one of the references to a buffer s handed out; the last one
// returns the buffer and the wrapper to their pools.
func (rb *refBuf) release(s *Session) {
	if rb.refs.Add(-1) == 0 {
		wire.PutBuf(rb.buf)
		rb.buf = nil
		refBufPool.Put(rb)
		s.reqBufs.Add(-1)
	}
}

// pendingCall is one submitted, unanswered request of a submission. seg
// retains the request's encoded bytes so a failover can replay it verbatim
// (same ID — the server deduplicates replicated operations by request ID,
// making the replay exactly-once), and seqNo orders replays by original
// submission. out is where the reader lands the response; dst, when set, is
// where it lands read data (the caller's buffer, eliminating the
// frame→response→caller double copy).
//
// Ownership protocol: a pendingCall in s.pend may be touched only by
// whoever removes it from the map under s.mu — the reader claims it to
// deliver (and is the only goroutine allowed to decode into dst and write
// out), the waiter claims it back to withdraw it. The reader's last touch of
// a call is the decrement of its submission's count; a submission whose
// count has reached zero belongs to its waiter alone.
type pendingCall struct {
	sub   *submission
	id    uint32
	out   *wire.Response
	seg   []byte
	seqNo uint64
	dst   []byte
}

// submission is one group of requests in flight on a session: start
// registers and enqueues it, wait collects it. Splitting the two is what
// lets a router start a batch's part on every shard before it waits on any
// of them, from one goroutine. The waiter is woken once, when the reader
// has landed the group's last response — not once per request.
//
// A submission is reusable: between a wait (or a failed start) and the next
// start it is idle and wholly its owner's.
type submission struct {
	s     *Session
	calls []pendingCall // registered in s.pend by pointer; never moved while in flight
	rb    *refBuf       // the group's encoded requests, held until the group retires
	left  atomic.Int32  // calls neither answered nor withdrawn
	done  chan struct{} // buffered 1: sent by whichever reader takes left to zero
	trace uint64        // distributed trace ID; 0 = untraced
	begin time.Time     // submission time; the round-trip spans' begin
	reads int32         // read calls that brought no buffer: s.frameReads' share

	// one is the request and response of a single call (callDst): they live
	// here, not on the caller's stack, because the call's out pointer is
	// reachable from s.pend.
	one struct {
		req  [1]wire.Request
		resp [1]wire.Response
	}
}

var subPool = sync.Pool{New: func() any { return new(submission) }}

func getSub() *submission { return subPool.Get().(*submission) }

// putSub returns an idle submission to the pool.
func putSub(sub *submission) {
	sub.one.req[0], sub.one.resp[0] = wire.Request{}, wire.Response{}
	subPool.Put(sub)
}

// transport is one connection generation. A session survives its
// transports: when one dies and failover is enabled, the session attaches
// a successor and replays its unanswered calls over it.
type transport struct {
	conn net.Conn
	fr   *wire.FrameReader
	down chan struct{} // closed when this transport is retired
}

// Session is one attached remote client. Safe for concurrent use; calls
// from multiple goroutines coalesce into shared batch frames.
type Session struct {
	r        *Remote
	cred     fsapi.Cred
	clientID uint64

	seq     atomic.Uint32
	reqBufs atomic.Int32 // request buffers out of the pool: zero when idle, or one leaked
	mu      sync.Mutex
	subNo   uint64 // submission counter, orders failover replays
	pend    map[uint32]*pendingCall
	t       *transport

	// files is the process's open-file table: which descriptors the session
	// holds, how each was opened, and where it stands in its file. The server
	// and the replication log know only that a descriptor exists, so a
	// position survives failover and migration by never having left here.
	fmu   sync.Mutex
	files map[fsapi.FD]openFile

	// frameReads counts the read calls in flight that brought no destination
	// buffer (a Submit's; Read and Pread bring theirs). While it is non-zero
	// the reader takes large reply frames out of the pool and hands them to
	// the responses as their Data's backing store. start adds and retire
	// subtracts, so a call stays counted across a failover replay.
	frameReads atomic.Int32

	// Distributed-trace sampling state (from Options.Obs/TraceSample). The
	// untraced steady state costs one atomic load per submission; only the
	// 1-in-TraceSample sampled submissions take clock reads and span
	// recording.
	tr        *obs.Registry
	traceBase uint64 // node-namespace bits (high 16) of generated trace IDs
	traceMask uint64 // sampling period - 1 (power of two)
	traceCtr  atomic.Uint64

	sendq chan sendItem

	closing  atomic.Bool
	failOnce sync.Once
	dead     chan struct{}
	deadErr  error
}

// openFile is one entry of a session's open-file table.
type openFile struct {
	flags fsapi.OpenFlag
	pos   uint64
}

// file returns fd's entry of the open-file table.
func (s *Session) file(fd fsapi.FD) (openFile, error) {
	s.fmu.Lock()
	of, ok := s.files[fd]
	s.fmu.Unlock()
	if !ok {
		return openFile{}, fsapi.ErrBadFD
	}
	return of, nil
}

// setPos moves fd's position, unless fd was closed meanwhile.
func (s *Session) setPos(fd fsapi.FD, pos uint64) {
	s.fmu.Lock()
	if of, ok := s.files[fd]; ok {
		of.pos = pos
		s.files[fd] = of
	}
	s.fmu.Unlock()
}

// track keeps the open-file table in step with one answered request, whether
// an fsapi method or a Submit made it: a create or open adds the descriptor
// at position zero, a close removes it — also one the server no longer knew.
func (s *Session) track(req *wire.Request, resp *wire.Response) {
	var flags fsapi.OpenFlag
	switch req.Op {
	case wire.OpCreate:
		flags = fsapi.OCreate | fsapi.OWronly | fsapi.OTrunc
	case wire.OpOpen:
		flags = fsapi.OpenFlag(req.Flags)
	case wire.OpClose:
		if resp.Code == wire.CodeOK || resp.Code == wire.CodeBadFD {
			s.fmu.Lock()
			delete(s.files, req.FD)
			s.fmu.Unlock()
		}
		return
	default:
		return
	}
	if resp.Code == wire.CodeOK {
		s.fmu.Lock()
		s.files[resp.FD] = openFile{flags: flags}
		s.fmu.Unlock()
	}
}

// resetTransport installs conn/fr as the session's live transport and
// starts its loops.
func (s *Session) resetTransport(conn net.Conn, fr *wire.FrameReader) {
	t := &transport{conn: conn, fr: fr, down: make(chan struct{})}
	s.mu.Lock()
	s.t = t
	s.mu.Unlock()
	go s.readLoop(t)
	go s.writeLoop(t)
}

// fail terminates the session once: records err, wakes every waiter, and
// closes the transport.
func (s *Session) fail(err error) {
	s.failOnce.Do(func() {
		s.deadErr = err
		close(s.dead)
		s.mu.Lock()
		t := s.t
		s.t = nil
		s.mu.Unlock()
		if t != nil {
			close(t.down)
			t.conn.Close()
		}
	})
}

// err returns the session's terminal error.
func (s *Session) err() error {
	select {
	case <-s.dead:
		if s.deadErr != nil {
			return s.deadErr
		}
		return ErrClosed
	default:
		return nil
	}
}

// transportFailed retires t after an I/O error. The first loop to report
// wins; with failover enabled the session re-resolves the primary and
// replays, otherwise it dies with err (the pre-replication behavior).
func (s *Session) transportFailed(t *transport, err error) {
	s.mu.Lock()
	stale := s.t != t
	if !stale {
		s.t = nil
		close(t.down)
	}
	s.mu.Unlock()
	t.conn.Close()
	if stale {
		return
	}
	if s.closing.Load() || s.r.opts.FailoverTimeout <= 0 {
		s.fail(err)
		return
	}
	go s.recover(err)
}

// recover re-attaches the session after a transport loss: it re-resolves
// the primary (following redirects), resumes the server-side session by
// client ID, and replays every unanswered request in submission order.
// Unanswered requests are the complete loss set — registration in pend
// precedes any write, so nothing can be dropped without being replayed.
func (s *Session) recover(cause error) {
	deadline := time.Now().Add(s.r.opts.FailoverTimeout)
	b := backoff{d: 10 * time.Millisecond, max: 250 * time.Millisecond}
	for {
		if s.err() != nil {
			return
		}
		conn, fr, err := s.r.attachConn(s.cred, s.clientID)
		if err == nil {
			s.resume(conn, fr)
			s.r.st.failovers.Add(1)
			return
		}
		if s.closing.Load() || !time.Now().Before(deadline) {
			s.fail(fmt.Errorf("%w (after %v)", ErrNoPrimary, cause))
			return
		}
		select {
		case <-time.After(b.next()):
		case <-s.dead:
			return
		}
	}
}

// rehome tears the session's transport down and re-attaches against the
// Remote's current dial list, resuming the server-side session by client
// ID and replaying unanswered requests. The router calls it after pointing
// a shard's Remote at the shard's new owner group (setAddrs); ordinary
// failover never needs it — transport loss recovers on its own.
func (s *Session) rehome() error {
	if err := s.err(); err != nil {
		return err
	}
	s.mu.Lock()
	t := s.t
	if t != nil {
		s.t = nil
		close(t.down)
	}
	s.mu.Unlock()
	if t != nil {
		t.conn.Close()
	}
	conn, fr, err := s.r.attachConn(s.cred, s.clientID)
	if err != nil {
		// The transport is already down; a session with no transport and no
		// recovery in flight would strand its pending calls. Hand them to the
		// ordinary failover loop (which keeps retrying the Remote's — possibly
		// re-pointed — dial list) and report the miss to the router.
		if !s.closing.Load() && s.r.opts.FailoverTimeout > 0 {
			go s.recover(err)
		} else {
			s.fail(err)
		}
		return err
	}
	s.resume(conn, fr)
	s.r.st.failovers.Add(1)
	return nil
}

// resume replays the unanswered calls over a fresh connection and brings
// the new transport live. The reader starts before the replay is written
// (replies may start flowing immediately); the writer starts after, so
// replay frames never interleave with coalesced batches.
func (s *Session) resume(conn net.Conn, fr *wire.FrameReader) {
	t := &transport{conn: conn, fr: fr, down: make(chan struct{})}
	s.mu.Lock()
	replay := make([]*pendingCall, 0, len(s.pend))
	for _, pc := range s.pend {
		replay = append(replay, pc)
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].seqNo < replay[j].seqNo })
	// The segments are copied out under the lock. A call in pend is
	// unanswered, so its group still holds the buffer seg points into; once
	// the lock drops, a reply the old transport's reader had already
	// buffered may retire the group and recycle that buffer.
	type replayFrame struct {
		b []byte
		n int
	}
	var frames []replayFrame
	var cur replayFrame
	for _, pc := range replay {
		if cur.n == wire.MaxBatch || (cur.n > 0 && len(cur.b)-5+len(pc.seg) > maxCoalesce) {
			frames = append(frames, cur)
			cur = replayFrame{}
		}
		if cur.n == 0 {
			cur.b = append(cur.b, 0, 0, 0, 0, byte(wire.KindBatch))
		}
		cur.b = append(cur.b, pc.seg...)
		cur.n++
	}
	if cur.n > 0 {
		frames = append(frames, cur)
	}
	s.t = t
	s.mu.Unlock()
	go s.readLoop(t)
	for _, f := range frames {
		binary.LittleEndian.PutUint32(f.b[:4], uint32(len(f.b)-4))
		if _, err := conn.Write(f.b); err != nil {
			s.transportFailed(t, err)
			return
		}
		s.r.st.replays.Add(uint64(f.n))
	}
	go s.writeLoop(t)
}

// writeLoop drains the send queue, merging everything immediately available
// into one KindBatch frame written with a single vectored write — the
// header and each group's payload go to the kernel as one writev, with no
// coalescing copy. It exits when its transport is retired; an item lost to
// a dying write is re-sent by the failover replay (its pend entry is still
// unanswered).
func (s *Session) writeLoop(t *transport) {
	// hdr has room for the frame header plus a trace context; untraced
	// frames use only its first 5 bytes.
	var hdr [5 + wire.TraceCtxSize]byte
	acc := make([][]byte, 0, 16)
	// vec is the view WriteTo consumes each round. It lives outside the loop
	// because WriteTo hands its receiver's address to the connection: a
	// per-round variable would be a heap allocation per frame.
	var vec net.Buffers
	items := make([]sendItem, 0, 16)
	var held *sendItem
	// replayed drops a group that resume already sent over this transport.
	replayed := func(it *sendItem) bool {
		if it.t == t {
			return false
		}
		it.rb.release(s)
		return true
	}
	for {
		var first sendItem
		if held != nil {
			first, held = *held, nil
		} else {
			select {
			case first = <-s.sendq:
			case <-t.down:
				return
			case <-s.dead:
				return
			}
			if replayed(&first) {
				continue
			}
		}
		acc = append(acc[:0], hdr[:5], first.payload)
		items = append(items[:0], first)
		total := len(first.payload)
		count := first.n
		trace, traceStart := first.trace, first.start
	coalesce:
		for count < wire.MaxBatch {
			select {
			case it := <-s.sendq:
				if replayed(&it) {
					continue
				}
				if total+len(it.payload) > maxCoalesce || count+it.n > wire.MaxBatch {
					held = &it
					break coalesce
				}
				acc = append(acc, it.payload)
				items = append(items, it)
				total += len(it.payload)
				count += it.n
				if trace == 0 && it.trace != 0 {
					// A traced item merged into an untraced group: the whole
					// frame is sampled under its ID (traces are batch-
					// granular by design).
					trace, traceStart = it.trace, it.start
				}
			default:
				break coalesce
			}
		}
		var writeStart time.Time
		if trace != 0 {
			binary.LittleEndian.PutUint32(hdr[:4], uint32(total+1+wire.TraceCtxSize))
			hdr[4] = byte(wire.KindBatchTraced)
			binary.LittleEndian.PutUint64(hdr[5:], trace)
			acc[0] = hdr[:]
			writeStart = time.Now()
			s.tr.SpanCtx(obs.SpanClientEnqueue, 0, trace, traceStart, uint64(writeStart.Sub(traceStart)), false)
		} else {
			binary.LittleEndian.PutUint32(hdr[:4], uint32(total+1))
			hdr[4] = byte(wire.KindBatch)
		}
		vec = acc
		_, err := vec.WriteTo(t.conn)
		if trace != 0 {
			s.tr.SpanCtx(obs.SpanClientSend, 0, trace, writeStart, uint64(time.Since(writeStart)), err != nil)
		}
		for i := range items {
			items[i].rb.release(s)
		}
		if err != nil {
			if held != nil {
				held.rb.release(s)
			}
			s.transportFailed(t, err)
			return
		}
	}
}

// ownedFrameMin is the smallest reply payload worth taking out of the pool
// to back its responses' read data: below it, a frame holds less than one
// block and the pooled buffer plus a copy is the cheaper way.
const ownedFrameMin = 4 << 10

// readLoop decodes reply frames and routes each response to its waiter.
// Each response's call is claimed out of pend before decoding, so the
// claimer may safely land read data in the call's dst buffer; a response
// for an already-answered ID (a failover replay racing its original) is
// dropped. On a decode error the claimed call is returned to pend so the
// failover replay still covers it.
//
// Read data reaches the caller with one copy or none. A call that brought a
// buffer gets its bytes copied into it out of the frame. A call that did not
// gets a view of the frame itself: while any such call is in flight, a large
// frame is read into a buffer of its own (wire.FrameReader.NextOwned) that
// is never pooled or reused — the responses pointing into it are what keeps
// it alive, and the garbage collector frees it after the last of them.
func (s *Session) readLoop(t *transport) {
	// Asked when a frame's header is in: a reply cannot overtake its request,
	// so the count already covers every call the frame may answer.
	own := func(n int) bool { return n >= ownedFrameMin && s.frameReads.Load() > 0 }
	for {
		kind, payload, owned, err := t.fr.NextOwned(own)
		if err != nil {
			s.transportFailed(t, err)
			return
		}
		switch kind {
		case wire.KindReply:
			for len(payload) > 0 {
				var pc *pendingCall
				var id uint32
				if len(payload) >= 4 {
					id = binary.LittleEndian.Uint32(payload)
					s.mu.Lock()
					pc = s.pend[id]
					if pc != nil {
						delete(s.pend, id)
					}
					s.mu.Unlock()
				}
				var dst []byte
				if pc != nil {
					dst = pc.dst
				}
				var resp wire.Response
				var rest []byte
				var err error
				if owned && dst == nil {
					resp, rest, err = wire.DecodeResponseAlias(payload)
				} else {
					resp, rest, err = wire.DecodeResponseInto(payload, dst)
				}
				if err != nil {
					if pc != nil {
						s.mu.Lock()
						s.pend[id] = pc
						s.mu.Unlock()
					}
					s.transportFailed(t, err)
					return
				}
				payload = rest
				if pc != nil {
					sub := pc.sub
					if sub.trace != 0 {
						s.tr.SpanCtx(obs.SpanClientAwait, obs.Op(resp.Op-1), sub.trace,
							sub.begin, uint64(time.Since(sub.begin)), resp.Code != wire.CodeOK)
					}
					*pc.out = resp
					if sub.left.Add(-1) == 0 {
						sub.done <- struct{}{} // buffered; never blocks
					}
				}
			}
		case wire.KindErr:
			s.transportFailed(t, wire.ParseErrFrame(payload))
			return
		default:
			s.transportFailed(t, fmt.Errorf("%w: unexpected kind %d", wire.ErrBadMessage, kind))
			return
		}
	}
}

// Submit sends reqs as one explicit batch (IDs are assigned in place) and
// returns the responses in request order. It is the deterministic-batch
// interface for benchmarks; the fsapi methods use it one request at a time
// and rely on writer coalescing instead. Submit does not retry overloads —
// callers driving explicit batches see CodeOverload responses directly.
//
// Descriptors a batch creates, opens or closes enter and leave the session's
// open-file table as the fsapi methods' do. Positions are that table's: a
// batch addresses file data with OpPread and OpPwrite (OpWrite on a
// descriptor opened O_APPEND), and a server answers the retired OpRead,
// OpSeek and OpFsync with ErrInval.
//
// The responses are the caller's for good. The Data of one call's pread
// responses may be views of one shared backing array — the reply frame
// they arrived in — so keeping a single Data alive keeps up to a whole frame
// (at most wire.MaxFrame) reachable; copy it out to hold on to less.
func (s *Session) Submit(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]wire.Response, len(reqs))
	sub := getSub()
	err := s.start(sub, reqs, out, nil, nil)
	if err == nil {
		err = sub.wait()
	}
	putSub(sub)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		s.track(&reqs[i], &out[i])
	}
	return out, nil
}

// start is the first half of every submission, explicit batch or single
// fsapi call: it encodes reqs into a pooled refcounted buffer, registers
// sub's pending calls, and queues the group for the writer. Request j's
// response will land in out[idx[j]] (out[j] when idx is nil). dst, when
// non-nil, is handed to the first request's pending call so the reader can
// land read data directly in the caller's buffer; only single-request
// submissions pass it. After a nil return the caller owes sub a wait; after
// an error sub is idle again.
func (s *Session) start(sub *submission, reqs []wire.Request, out []wire.Response, idx []int32, dst []byte) error {
	if len(reqs) > wire.MaxBatch {
		return fmt.Errorf("%w: %d requests > %d", wire.ErrBadMessage, len(reqs), wire.MaxBatch)
	}
	// Oversized paths are refused here, before any bytes hit the wire: the
	// server's decoder would reject them as a protocol error and tear down
	// the whole connection (and paths beyond uint16 would not even encode).
	est := 0
	reads := int32(0)
	for i := range reqs {
		if len(reqs[i].Path) > wire.MaxPath || len(reqs[i].Path2) > wire.MaxPath {
			return fsapi.ErrNameTooLong
		}
		est += 48 + len(reqs[i].Path) + len(reqs[i].Path2) + len(reqs[i].Data)
		if dst == nil && reqs[i].Op == wire.OpPread {
			reads++
		}
	}
	if err := s.err(); err != nil {
		return err
	}
	sub.s = s
	if sub.done == nil {
		sub.done = make(chan struct{}, 1)
	}
	if cap(sub.calls) < len(reqs) {
		sub.calls = make([]pendingCall, len(reqs))
	}
	sub.calls = sub.calls[:len(reqs)]
	// Trace sampling: one atomic load when the recorder is off, one more
	// counter increment when it is on; only the sampled 1-in-N submission
	// reads the clock and carries a trace context to the server.
	sub.trace = 0
	if s.tr.TraceEnabled() {
		if n := s.traceCtr.Add(1); n&s.traceMask == 0 {
			sub.trace = s.traceBase | (n & (1<<48 - 1))
			sub.begin = time.Now()
		}
	}
	rb := s.getRefBuf(est)
	sub.rb = rb
	rb.refs.Store(2) // the submission's and the writer's
	if sub.reads = reads; reads > 0 {
		// Before anything is registered or sent: by the time a reply to this
		// group can arrive, the reader sees the count.
		s.frameReads.Add(reads)
	}
	sub.left.Store(int32(len(reqs)))
	payload := rb.buf.B
	s.mu.Lock()
	for i := range reqs {
		// IDs are uint32 on the wire, so a long-lived session's counter can
		// wrap; skip past any ID still pending so a reply is never routed
		// to the wrong waiter.
		id := s.seq.Add(1)
		for {
			if _, busy := s.pend[id]; !busy {
				break
			}
			id = s.seq.Add(1)
		}
		reqs[i].ID = id
		begin := len(payload)
		payload = wire.AppendRequest(payload, &reqs[i])
		s.subNo++
		k := i
		if idx != nil {
			k = int(idx[i])
		}
		pc := &sub.calls[i]
		*pc = pendingCall{sub: sub, id: id, out: &out[k],
			seg: payload[begin:len(payload):len(payload)], seqNo: s.subNo}
		s.pend[id] = pc
	}
	sub.calls[0].dst = dst
	rb.buf.B = payload
	t := s.t
	s.mu.Unlock()
	if len(payload) > maxCoalesce {
		s.withdraw(sub)
		rb.release(s) // the writer's reference; the send never happens
		return wire.ErrFrameTooLarge
	}
	select {
	case s.sendq <- sendItem{rb: rb, payload: payload, n: len(reqs), trace: sub.trace, start: sub.begin, t: t}:
	case <-s.dead:
		s.withdraw(sub)
		rb.release(s)
		return s.err()
	}
	return nil
}

// wait is the second half of a submission: it blocks until every response
// has landed, preferring a completed group over the session's death (the
// last reply may have raced the failure). On death it withdraws what is
// still unanswered and reports the session's error.
func (sub *submission) wait() error {
	s := sub.s
	select {
	case <-sub.done:
		sub.retire()
		return nil
	case <-s.dead:
	}
	if s.withdraw(sub) {
		return s.err()
	}
	return nil
}

// withdraw takes a started submission out of flight early and retires it,
// reporting whether any call went unanswered. It claims the submission's
// calls back out of pend — whoever removes a call from pend owns it, so a
// claimed-back call will never be touched by a reader (nor will its out and
// dst) again. A call some reader claimed first is about to be delivered, or
// re-registered if its decode failed; withdraw yields until one happens.
// The session is dead or the group was never sent, so latency is irrelevant.
func (s *Session) withdraw(sub *submission) (unanswered bool) {
	for {
		select {
		case <-sub.done: // a reader landed the last response
			sub.retire()
			return unanswered
		default:
		}
		var n int32
		s.mu.Lock()
		for i := range sub.calls {
			if pc := &sub.calls[i]; s.pend[pc.id] == pc {
				delete(s.pend, pc.id)
				n++
			}
		}
		s.mu.Unlock()
		if n > 0 {
			unanswered = true
			if sub.left.Add(-n) == 0 {
				sub.retire()
				return true
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// retire makes a submission whose count has reached zero idle: it drops the
// group's buffer reference, its share of the session's frame-read count, and
// everything the calls point at.
func (sub *submission) retire() {
	if sub.reads > 0 {
		sub.s.frameReads.Add(-sub.reads)
		sub.reads = 0
	}
	sub.rb.release(sub.s)
	sub.rb = nil
	clear(sub.calls)
}

// call performs one request/response round trip. Overloaded answers (the
// server shed the request under pressure) are retried transparently with
// jittered, doubling backoff, bounded in both attempts and total delay.
func (s *Session) call(req wire.Request) (wire.Response, error) {
	return s.callDst(req, nil)
}

// callDst is call with a destination buffer for read data (see start). A
// single call is a submission of one, through the same two halves as a
// batch; its request and response slots live in the pooled submission — no
// per-call heap allocation.
func (s *Session) callDst(req wire.Request, dst []byte) (wire.Response, error) {
	sub := getSub()
	defer putSub(sub)
	b := backoff{d: overloadBackoff, max: 128 * time.Millisecond}
	var total time.Duration
	for attempt := 0; ; attempt++ {
		sub.one.req[0] = req
		err := s.start(sub, sub.one.req[:], sub.one.resp[:], nil, dst)
		if err == nil {
			err = sub.wait()
		}
		if err != nil {
			return wire.Response{}, err
		}
		resp := sub.one.resp[0]
		if resp.Code != wire.CodeOverload || attempt >= overloadRetries || total >= overloadBudget {
			s.track(&req, &resp)
			return resp, nil
		}
		d := b.next()
		select {
		case <-time.After(d):
		case <-s.dead:
			return wire.Response{}, s.err()
		}
		total += d
		s.r.st.overloadRetries.Add(1)
	}
}

// --- fsapi.Client ---------------------------------------------------------

// Create creates a regular file and opens it for writing.
func (s *Session) Create(path string, perm uint32) (fsapi.FD, error) {
	resp, err := s.call(wire.Request{Op: wire.OpCreate, Path: path, Perm: perm})
	if err != nil {
		return -1, err
	}
	if err := resp.Err(); err != nil {
		return -1, err
	}
	return resp.FD, nil
}

// Open opens an existing file (or creates with OCreate).
func (s *Session) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	resp, err := s.call(wire.Request{Op: wire.OpOpen, Path: path, Flags: uint32(flags), Perm: perm})
	if err != nil {
		return -1, err
	}
	if err := resp.Err(); err != nil {
		return -1, err
	}
	return resp.FD, nil
}

// Close releases the descriptor. The reply does not wait for the quorum (see
// server.execBatch): nothing the session can observe depends on the close
// having been replicated.
func (s *Session) Close(fd fsapi.FD) error {
	if _, err := s.file(fd); err != nil {
		return err
	}
	resp, err := s.call(wire.Request{Op: wire.OpClose, FD: fd})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Read reads at the descriptor's position and advances it: a pread at the
// open-file table's offset, which the server answers without the replication
// log.
func (s *Session) Read(fd fsapi.FD, p []byte) (int, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	n, err := s.Pread(fd, p, of.pos)
	s.setPos(fd, of.pos+uint64(n))
	return n, err
}

// Pread reads at an explicit offset without moving the position, chunking
// requests larger than wire.MaxIO into sequential wire reads. Each chunk's
// destination slice rides the request down to the reply decoder, so the
// data is copied exactly once: frame buffer → p.
func (s *Session) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	total := 0
	for {
		ask := len(p) - total
		if ask > wire.MaxIO {
			ask = wire.MaxIO
		}
		dst := p[total : total+ask : total+ask]
		resp, err := s.callDst(wire.Request{Op: wire.OpPread, FD: fd, Size: uint32(ask), Off: off + uint64(total)}, dst)
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		n := readInto(dst, resp.Data, p[total:])
		total += n
		if n < ask || total == len(p) {
			return total, nil
		}
	}
}

// readInto finalizes a read chunk: when the decoder already landed data in
// dst the bytes are in place, otherwise (oversized or foreign backing) they
// are copied into rest.
func readInto(dst, data, rest []byte) int {
	if len(data) == 0 {
		return 0
	}
	if &data[0] == &dst[0] && len(data) <= len(dst) {
		return len(data)
	}
	return copy(rest, data)
}

// Write writes at the descriptor's position and advances it: a pwrite at the
// open-file table's offset. On a descriptor opened O_APPEND the position is
// the end of the file, which only the server can name under the file's lock:
// those writes go as OpWrite, chunked like Pwrite's, and each reply says
// where it left the descriptor.
func (s *Session) Write(fd fsapi.FD, p []byte) (int, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OAppend == 0 {
		n, err := s.Pwrite(fd, p, of.pos)
		s.setPos(fd, of.pos+uint64(n))
		return n, err
	}
	total := 0
	for {
		chunk := p[total:]
		if len(chunk) > wire.MaxIO {
			chunk = chunk[:wire.MaxIO]
		}
		resp, err := s.call(wire.Request{Op: wire.OpWrite, FD: fd, Data: chunk})
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		s.setPos(fd, uint64(resp.Off))
		total += int(resp.N)
		if int(resp.N) < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Pwrite writes at an explicit offset without moving the position.
func (s *Session) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	total := 0
	for {
		chunk := p[total:]
		if len(chunk) > wire.MaxIO {
			chunk = chunk[:wire.MaxIO]
		}
		resp, err := s.call(wire.Request{Op: wire.OpPwrite, FD: fd, Data: chunk, Off: off + uint64(total)})
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		total += int(resp.N)
		if int(resp.N) < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Seek repositions the descriptor: arithmetic on the open-file table, with
// the file's size fetched from the server for SeekEnd and no frame otherwise.
func (s *Session) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case fsapi.SeekSet:
	case fsapi.SeekCur:
		base = int64(of.pos)
	case fsapi.SeekEnd:
		st, err := s.Fstat(fd)
		if err != nil {
			return 0, err
		}
		base = int64(st.Size)
	default:
		return 0, fsapi.ErrInval
	}
	if base+off < 0 {
		return 0, fsapi.ErrInval
	}
	s.setPos(fd, uint64(base+off))
	return base + off, nil
}

// Fsync has nothing to wait for: a write is persistent (NT stores and a
// fence) and covered by the quorum before it is acknowledged. It only checks
// the descriptor.
func (s *Session) Fsync(fd fsapi.FD) error {
	_, err := s.file(fd)
	return err
}

// Ftruncate sets the file size.
func (s *Session) Ftruncate(fd fsapi.FD, size uint64) error {
	resp, err := s.call(wire.Request{Op: wire.OpFtruncate, FD: fd, Off: size})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Fallocate preallocates space for [0, size).
func (s *Session) Fallocate(fd fsapi.FD, size uint64) error {
	resp, err := s.call(wire.Request{Op: wire.OpFallocate, FD: fd, Off: size})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Fstat stats an open descriptor.
func (s *Session) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	resp, err := s.call(wire.Request{Op: wire.OpFstat, FD: fd})
	if err != nil {
		return fsapi.Stat{}, err
	}
	if err := resp.Err(); err != nil {
		return fsapi.Stat{}, err
	}
	return resp.Stat, nil
}

// Stat resolves a path (following symlinks) and returns its attributes.
func (s *Session) Stat(path string) (fsapi.Stat, error) {
	resp, err := s.call(wire.Request{Op: wire.OpStat, Path: path})
	if err != nil {
		return fsapi.Stat{}, err
	}
	if err := resp.Err(); err != nil {
		return fsapi.Stat{}, err
	}
	return resp.Stat, nil
}

// Lstat is Stat without following a final symlink.
func (s *Session) Lstat(path string) (fsapi.Stat, error) {
	resp, err := s.call(wire.Request{Op: wire.OpLstat, Path: path})
	if err != nil {
		return fsapi.Stat{}, err
	}
	if err := resp.Err(); err != nil {
		return fsapi.Stat{}, err
	}
	return resp.Stat, nil
}

// Mkdir creates a directory.
func (s *Session) Mkdir(path string, perm uint32) error {
	resp, err := s.call(wire.Request{Op: wire.OpMkdir, Path: path, Perm: perm})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Rmdir removes an empty directory.
func (s *Session) Rmdir(path string) error {
	resp, err := s.call(wire.Request{Op: wire.OpRmdir, Path: path})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Unlink removes a file or symlink.
func (s *Session) Unlink(path string) error {
	resp, err := s.call(wire.Request{Op: wire.OpUnlink, Path: path})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Rename moves old to new.
func (s *Session) Rename(oldPath, newPath string) error {
	resp, err := s.call(wire.Request{Op: wire.OpRename, Path: oldPath, Path2: newPath})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Symlink creates a symbolic link at linkPath pointing to target.
func (s *Session) Symlink(target, linkPath string) error {
	resp, err := s.call(wire.Request{Op: wire.OpSymlink, Path: target, Path2: linkPath})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Link creates a hard link at newPath for oldPath's inode.
func (s *Session) Link(oldPath, newPath string) error {
	resp, err := s.call(wire.Request{Op: wire.OpLink, Path: oldPath, Path2: newPath})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Readlink returns a symlink's target.
func (s *Session) Readlink(path string) (string, error) {
	resp, err := s.call(wire.Request{Op: wire.OpReadlink, Path: path})
	if err != nil {
		return "", err
	}
	if err := resp.Err(); err != nil {
		return "", err
	}
	return resp.Str, nil
}

// ReadDir lists a directory.
func (s *Session) ReadDir(path string) ([]fsapi.DirEntry, error) {
	resp, err := s.call(wire.Request{Op: wire.OpReadDir, Path: path})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp.Dir, nil
}

// Chmod updates permission bits.
func (s *Session) Chmod(path string, perm uint32) error {
	resp, err := s.call(wire.Request{Op: wire.OpChmod, Path: path, Perm: perm})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Utimes sets access/modification times (unix nanoseconds).
func (s *Session) Utimes(path string, atime, mtime int64) error {
	resp, err := s.call(wire.Request{Op: wire.OpUtimes, Path: path, Off: uint64(atime), Off2: uint64(mtime)})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Detach releases the remote client (the server closes its open
// descriptors) and shuts the connection down. A connection loss during
// detach does not trigger failover: the caller wanted the session gone.
func (s *Session) Detach() error {
	s.closing.Store(true)
	resp, callErr := s.call(wire.Request{Op: wire.OpDetach})
	s.fail(ErrClosed)
	s.fmu.Lock()
	clear(s.files)
	s.fmu.Unlock()
	if callErr != nil {
		return callErr
	}
	return resp.Err()
}
