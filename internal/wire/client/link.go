package client

import (
	"encoding/binary"
	"errors"
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
func (l *link) getRefBuf(est int) *refBuf {
	rb := refBufPool.Get().(*refBuf)
	if rb.buf == nil || cap(rb.buf.B) < est {
		wire.PutBuf(rb.buf)
		rb.buf = wire.GetBuf(est)
	}
	rb.buf.B = rb.buf.B[:0]
	l.reqBufs.Add(1)
	return rb
}

// release drops one of the references to a buffer l handed out; the last one
// returns the buffer and the wrapper to their pools.
func (rb *refBuf) release(l *link) {
	if rb.refs.Add(-1) == 0 {
		wire.PutBuf(rb.buf)
		rb.buf = nil
		refBufPool.Put(rb)
		l.reqBufs.Add(-1)
	}
}

// pendingCall is one submitted, unanswered request of a submission. seg
// retains the request's encoded bytes so a failover can replay it verbatim
// (same ID — the server deduplicates replicated operations by request ID,
// making the replay exactly-once), and seqNo orders replays by original
// submission. out is where the reader lands the response; dst, when set,
// is where it lands read data — a Pread's buffer or a Submit's landing
// slot — copied once out of the pooled reply frame.
//
// Ownership protocol: a pendingCall in l.pend may be touched only by
// whoever removes it from the map under l.mu — the reader claims it to
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

// submission is one group of requests in flight on a link: start
// registers and enqueues it, wait collects it. Splitting the two is what
// lets a session start a batch's part on every shard before it waits on any
// of them, from one goroutine. The waiter is woken once, when the reader
// has landed the group's last response — not once per request.
//
// A submission is reusable: between a wait (or a failed start) and the next
// start it is idle and wholly its owner's.
type submission struct {
	l     *link
	calls []pendingCall // registered in l.pend by pointer; never moved while in flight
	rb    *refBuf       // the group's encoded requests, held until the group retires
	left  atomic.Int32  // calls neither answered nor withdrawn
	done  chan struct{} // buffered 1: sent by whichever reader takes left to zero
	trace uint64        // distributed trace ID; 0 = untraced
	begin time.Time     // submission time; the round-trip spans' begin

	// one is the request and response of a single call (callDst): they live
	// here, not on the caller's stack, because the call's out pointer is
	// reachable from l.pend.
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

// transport is one connection generation. A link survives its
// transports: when one dies and failover is enabled, the link connects
// again and replays its unanswered calls over the successor.
type transport struct {
	conn net.Conn
	fr   *wire.FrameReader
	down chan struct{} // closed when this transport is retired
}

// link is one server-side session on one replica group: its connection, its
// pending calls and the loops that feed and drain them. A Session keeps one
// per shard it has touched. Safe for concurrent use; calls from multiple
// goroutines coalesce into shared batch frames.
type link struct {
	r        *Remote
	cred     fsapi.Cred
	clientID uint64

	seq     atomic.Uint32
	reqBufs atomic.Int32 // request buffers out of the pool: zero when idle, or one leaked
	mu      sync.Mutex
	subNo   uint64 // submission counter, orders failover replays
	pend    map[uint32]*pendingCall
	t       *transport
	cmu     sync.Mutex // held by connect: one connect at a time

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

// fail terminates the link once: records err, wakes every waiter, and
// closes the transport.
func (l *link) fail(err error) {
	l.failOnce.Do(func() {
		l.deadErr = err
		close(l.dead)
		l.retire(nil)
	})
}

// err returns the link's terminal error.
func (l *link) err() error {
	select {
	case <-l.dead:
		if l.deadErr != nil {
			return l.deadErr
		}
		return ErrClosed
	default:
		return nil
	}
}

// retire takes t out of service if it is still the live transport (nil:
// whichever one is live), reporting whether it did. Its loops exit and its
// connection closes; its unanswered calls stay in pend for the next resume.
func (l *link) retire(t *transport) bool {
	l.mu.Lock()
	cur := l.t
	if cur == nil || (t != nil && cur != t) {
		l.mu.Unlock()
		return false
	}
	l.t = nil
	close(cur.down)
	l.mu.Unlock()
	cur.conn.Close()
	return true
}

// transportFailed retires t after an I/O error. The first loop to report
// wins; with failover enabled the link connects again, otherwise it dies
// with err.
func (l *link) transportFailed(t *transport, err error) {
	if !l.retire(t) {
		t.conn.Close()
		return
	}
	if l.closing.Load() || l.r.opts.FailoverTimeout <= 0 {
		l.fail(err)
		return
	}
	go func() {
		l.cmu.Lock()
		defer l.cmu.Unlock()
		l.mu.Lock()
		live := l.t != nil // a rehome got there first
		l.mu.Unlock()
		if !live {
			l.connect(false)
		}
	}()
}

// rehome drops the link's transport and connects again, against the
// Remote's current dial list: the router calls it after a Moved, once the
// refreshed map has re-pointed the Remote at the shard's owner group. A
// connect that gives up fails the link.
func (l *link) rehome() {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	l.retire(nil)
	l.connect(false)
}

// connect is the one way a link connects: for its first attach, after a
// transport loss and after a Moved. Each pass attaches to the Remote's
// current primary (attachConn) and resumes the server-side session by client
// ID, replaying the unanswered calls (a first attach has none). Passes back
// off until the failover budget runs out. Before the next pass, the router
// refetches its shard map, which re-points the Remote, when the pass reached
// no node, or was refused with a Moved naming an epoch newer than the map's.
//
// A Moved the map already covers goes back to a first attach's caller, whose
// doShard follows it within its hop bound; a link that already holds a
// session keeps retrying through it, because mid-migration the target answers
// with the old epoch, or redirects to the fenced old primary, until it is
// promoted. When the budget runs out, a link that held a session fails with
// ErrNoPrimary. A pass that starts after the Remote was closed gives up with
// ErrClosed instead. The caller holds cmu: a second connect racing this one
// would replay the same request IDs on two transports.
func (l *link) connect(first bool) error {
	rt := l.r.router()
	budget := l.r.opts.FailoverTimeout
	deadline := time.Now().Add(budget)
	b := backoff{d: 10 * time.Millisecond, max: 250 * time.Millisecond}
	for {
		if err := l.err(); err != nil {
			return err
		}
		if l.r.closed.Load() {
			if !first {
				l.fail(ErrClosed)
			}
			return ErrClosed
		}
		conn, fr, err := l.r.attachConn(l.cred, l.clientID)
		if err == nil {
			if !first {
				l.r.st.failovers.Add(1)
			}
			l.resume(conn, fr)
			return nil
		}
		refetch, from := false, ""
		var mv *movedErr
		var nn *noNodeErr
		if errors.As(err, &mv) {
			newer := mv.mv.Epoch > rt.Map().Epoch
			if !newer && first {
				return err
			}
			refetch, from = newer, mv.mv.Addr
		} else {
			refetch = errors.As(err, &nn)
		}
		if l.closing.Load() || !time.Now().Before(deadline) {
			if budget > 0 {
				err = fmt.Errorf("%w (after %w)", ErrNoPrimary, err)
			}
			if !first {
				l.fail(err)
			}
			return err
		}
		if refetch && rt.refresh(from, deadline) {
			continue
		}
		select {
		case <-time.After(b.next()):
		case <-l.dead:
		}
	}
}

// resume replays the unanswered calls over a fresh connection, in
// submission order, and brings the new transport live. Unanswered calls are
// the complete loss set: registration in pend precedes any write, so nothing
// can be dropped without being replayed. The reader starts before the replay
// is written (replies may start flowing immediately); the writer starts
// after, so replay frames never interleave with coalesced batches. A link
// that died meanwhile closes the connection instead.
func (l *link) resume(conn net.Conn, fr *wire.FrameReader) {
	t := &transport{conn: conn, fr: fr, down: make(chan struct{})}
	l.mu.Lock()
	if l.err() != nil {
		l.mu.Unlock()
		conn.Close()
		return
	}
	replay := make([]*pendingCall, 0, len(l.pend))
	for _, pc := range l.pend {
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
	l.t = t
	l.mu.Unlock()
	go l.readLoop(t)
	for _, f := range frames {
		binary.LittleEndian.PutUint32(f.b[:4], uint32(len(f.b)-4))
		if _, err := conn.Write(f.b); err != nil {
			l.transportFailed(t, err)
			return
		}
		l.r.st.replays.Add(uint64(f.n))
	}
	go l.writeLoop(t)
}

// writeLoop drains the send queue, merging everything immediately available
// into one KindBatch frame written with a single vectored write — the
// header and each group's payload go to the kernel as one writev, with no
// coalescing copy. It exits when its transport is retired; an item lost to
// a dying write is re-sent by the failover replay (its pend entry is still
// unanswered).
func (l *link) writeLoop(t *transport) {
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
		it.rb.release(l)
		return true
	}
	for {
		var first sendItem
		if held != nil {
			first, held = *held, nil
		} else {
			select {
			case first = <-l.sendq:
			case <-t.down:
				return
			case <-l.dead:
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
			case it := <-l.sendq:
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
			l.tr.SpanCtx(obs.SpanClientEnqueue, 0, trace, traceStart, uint64(writeStart.Sub(traceStart)), false)
		} else {
			binary.LittleEndian.PutUint32(hdr[:4], uint32(total+1))
			hdr[4] = byte(wire.KindBatch)
		}
		vec = acc
		_, err := vec.WriteTo(t.conn)
		if trace != 0 {
			l.tr.SpanCtx(obs.SpanClientSend, 0, trace, writeStart, uint64(time.Since(writeStart)), err != nil)
		}
		for i := range items {
			items[i].rb.release(l)
		}
		if err != nil {
			if held != nil {
				held.rb.release(l)
			}
			l.transportFailed(t, err)
			return
		}
	}
}

// readLoop decodes reply frames and routes each response to its waiter.
// Each response's call is claimed out of pend before decoding, so the
// claimer may safely land read data in the call's dst buffer; a response
// for an already-answered ID (a failover replay racing its original) is
// dropped. On a decode error the claimed call is returned to pend so the
// failover replay still covers it. Frames are read into the transport's
// pooled buffer, and read data reaches the caller with one copy: out of the
// frame into the call's dst.
func (l *link) readLoop(t *transport) {
	for {
		kind, payload, err := t.fr.Next()
		if err != nil {
			l.transportFailed(t, err)
			return
		}
		switch kind {
		case wire.KindReply:
			for len(payload) > 0 {
				var pc *pendingCall
				var id uint32
				if len(payload) >= 4 {
					id = binary.LittleEndian.Uint32(payload)
					l.mu.Lock()
					pc = l.pend[id]
					if pc != nil {
						delete(l.pend, id)
					}
					l.mu.Unlock()
				}
				var dst []byte
				if pc != nil {
					dst = pc.dst
				}
				resp, rest, err := wire.DecodeResponseInto(payload, dst)
				if err != nil {
					if pc != nil {
						l.mu.Lock()
						l.pend[id] = pc
						l.mu.Unlock()
					}
					l.transportFailed(t, err)
					return
				}
				payload = rest
				if pc != nil {
					sub := pc.sub
					if sub.trace != 0 {
						l.tr.SpanCtx(obs.SpanClientAwait, obs.Op(resp.Op-1), sub.trace,
							sub.begin, uint64(time.Since(sub.begin)), resp.Code != wire.CodeOK)
					}
					*pc.out = resp
					if sub.left.Add(-1) == 0 {
						sub.done <- struct{}{} // buffered; never blocks
					}
				}
			}
		case wire.KindErr:
			l.transportFailed(t, wire.ParseErrFrame(payload))
			return
		default:
			l.transportFailed(t, fmt.Errorf("%w: unexpected kind %d", wire.ErrBadMessage, kind))
			return
		}
	}
}

// start is the first half of every submission, explicit batch or single
// fsapi call: it encodes reqs into a pooled refcounted buffer, registers
// sub's pending calls, and queues the group for the writer. Request j's
// response will land in out[idx[j]] (out[j] when idx is nil). Each pread
// takes the next Size bytes of land as its pending call's dst, where the
// reader lands its data: a single Pread passes the caller's buffer, a Submit
// its working set's landing space. After a nil return the caller owes sub a
// wait; after an error sub is idle again.
func (l *link) start(sub *submission, reqs []wire.Request, out []wire.Response, idx []int32, land []byte) error {
	if len(reqs) > wire.MaxBatch {
		return fmt.Errorf("%w: %d requests > %d", wire.ErrBadMessage, len(reqs), wire.MaxBatch)
	}
	// Oversized paths are refused here, before any bytes hit the wire: the
	// server's decoder would reject them as a protocol error and tear down
	// the whole connection (and paths beyond uint16 would not even encode).
	est := 0
	for i := range reqs {
		if len(reqs[i].Path) > wire.MaxPath || len(reqs[i].Path2) > wire.MaxPath {
			return fsapi.ErrNameTooLong
		}
		est += 48 + len(reqs[i].Path) + len(reqs[i].Path2) + len(reqs[i].Data)
	}
	if err := l.err(); err != nil {
		return err
	}
	sub.l = l
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
	if l.tr.TraceEnabled() {
		if n := l.traceCtr.Add(1); n&l.traceMask == 0 {
			sub.trace = l.traceBase | (n & (1<<48 - 1))
			sub.begin = time.Now()
		}
	}
	rb := l.getRefBuf(est)
	sub.rb = rb
	rb.refs.Store(2) // the submission's and the writer's
	sub.left.Store(int32(len(reqs)))
	payload := rb.buf.B
	l.mu.Lock()
	for i := range reqs {
		// IDs are uint32 on the wire, so a long-lived link's counter can
		// wrap; skip past any ID still pending so a reply is never routed
		// to the wrong waiter.
		id := l.seq.Add(1)
		for {
			if _, busy := l.pend[id]; !busy {
				break
			}
			id = l.seq.Add(1)
		}
		reqs[i].ID = id
		begin := len(payload)
		payload = wire.AppendRequest(payload, &reqs[i])
		l.subNo++
		k := i
		if idx != nil {
			k = int(idx[i])
		}
		var dst []byte
		if reqs[i].Op == wire.OpPread {
			n := min(int(reqs[i].Size), len(land))
			dst, land = land[:n:n], land[n:]
		}
		pc := &sub.calls[i]
		*pc = pendingCall{sub: sub, id: id, out: &out[k],
			seg: payload[begin:len(payload):len(payload)], seqNo: l.subNo, dst: dst}
		l.pend[id] = pc
	}
	rb.buf.B = payload
	t := l.t
	l.mu.Unlock()
	if len(payload) > maxCoalesce {
		l.withdraw(sub)
		rb.release(l) // the writer's reference; the send never happens
		return wire.ErrFrameTooLarge
	}
	select {
	case l.sendq <- sendItem{rb: rb, payload: payload, n: len(reqs), trace: sub.trace, start: sub.begin, t: t}:
	case <-l.dead:
		l.withdraw(sub)
		rb.release(l)
		return l.err()
	}
	return nil
}

// wait is the second half of a submission: it blocks until every response
// has landed, preferring a completed group over the link's death (the
// last reply may have raced the failure). On death it withdraws what is
// still unanswered and reports the link's error.
func (sub *submission) wait() error {
	l := sub.l
	select {
	case <-sub.done:
		sub.retire()
		return nil
	case <-l.dead:
	}
	if l.withdraw(sub) {
		return l.err()
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
func (l *link) withdraw(sub *submission) (unanswered bool) {
	for {
		select {
		case <-sub.done: // a reader landed the last response
			sub.retire()
			return unanswered
		default:
		}
		var n int32
		l.mu.Lock()
		for i := range sub.calls {
			if pc := &sub.calls[i]; l.pend[pc.id] == pc {
				delete(l.pend, pc.id)
				n++
			}
		}
		l.mu.Unlock()
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
// group's buffer reference and everything the calls point at.
func (sub *submission) retire() {
	sub.rb.release(sub.l)
	sub.rb = nil
	clear(sub.calls)
}

// callDst performs one request/response round trip, landing a pread's data
// in dst (see start). A single call is a submission of one,
// through the same two halves as a batch; its request and response slots
// live in the pooled submission — no per-call heap allocation.
func (l *link) callDst(req wire.Request, dst []byte) (wire.Response, error) {
	sub := getSub()
	defer putSub(sub)
	sub.one.req[0] = req
	err := l.start(sub, sub.one.req[:], sub.one.resp[:], nil, dst)
	if err == nil {
		err = sub.wait()
	}
	if err != nil {
		return wire.Response{}, err
	}
	return sub.one.resp[0], nil
}

// Detach releases the remote client (the server closes its open
// descriptors) and shuts the connection down. A connection loss during
// detach does not trigger failover: the caller wanted the link gone.
func (l *link) Detach() error {
	l.closing.Store(true)
	resp, callErr := l.callDst(wire.Request{Op: wire.OpDetach}, nil)
	l.fail(ErrClosed)
	if callErr != nil {
		return callErr
	}
	return resp.Err()
}
