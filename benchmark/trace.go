package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/wire"
)

// Span kinds, outermost first. Each is recorded from the benchmark's own
// decorators around the calls into one layer.
const (
	spanCall      = iota // one client call (root)
	spanResidence        // server: first request byte in → last reply byte out
	spanApply            // replica.Node.Apply on the primary
	spanCore             // one fsapi call made by a server worker
	spanQuorum           // replica.Node.WaitQuorum
	spanFence            // one device fence
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"client.call", "server.residence", "replica.apply", "core.exec", "replica.quorum_wait", "pmem.fence"}

// spanParents names the span kind each kind nests in.
var spanParents = [numSpanKinds]string{"", "client.call", "server.residence", "replica.apply|server.residence", "server.residence", "core.exec"}

// span is one recorded interval. sess is the client session it belongs to
// (-1 when the layer cannot know, as for a fence); call is the session's call
// number, filled in for root spans when recorded and for the rest by
// containment afterwards — one call in flight per session makes that exact.
type span struct {
	start, end int64 // ns since the tracer's epoch
	sess       int32
	call       int32
}

// spanBuf is a preallocated span store. Appends claim a slot with one atomic
// add, so the server's goroutines can share a buffer; spans beyond capacity
// are dropped from the trace file but still counted in the kind's totals.
type spanBuf struct {
	n     atomic.Int64
	spans []span
}

func (b *spanBuf) add(s span) {
	if i := b.n.Add(1) - 1; i < int64(len(b.spans)) {
		b.spans[i] = s
	}
}

func (b *spanBuf) recorded() []span {
	n := b.n.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

const (
	rootSpanCap  = 1 << 18 // per client
	layerSpanCap = 1 << 19 // per kind, shared by all sessions
	seqRing      = 1 << 16
)

// tracer owns the decorators of one traced point and what they record.
type tracer struct {
	epoch     time.Time
	rung      string
	recording atomic.Bool
	attaching atomic.Int32 // client index being attached, -1 outside set-up

	roots  []*spanBuf // one per client: written by that client's goroutine only
	kinds  [numSpanKinds]*spanBuf
	ns     [numSpanKinds]atomic.Int64 // total duration per kind while recording
	count  [numSpanKinds]atomic.Int64
	execNs atomic.Int64 // time inside the exec closure of Apply

	mu      sync.Mutex
	conns   []*tracedConn
	sessOf  map[uint64]int32 // replication session → client index
	seqSess [seqRing]atomic.Int32
}

func newTracer(rung string, clients int) *tracer {
	tr := &tracer{epoch: time.Now(), rung: rung, sessOf: make(map[uint64]int32)}
	tr.attaching.Store(-1)
	for i := 0; i < clients; i++ {
		tr.roots = append(tr.roots, &spanBuf{spans: make([]span, rootSpanCap)})
	}
	for k := spanResidence; k < numSpanKinds; k++ {
		tr.kinds[k] = &spanBuf{spans: make([]span, layerSpanCap)}
	}
	return tr
}

// begin returns the start stamp of a span, or 0 while not recording.
func (tr *tracer) begin() int64 {
	if !tr.recording.Load() {
		return 0
	}
	return int64(time.Since(tr.epoch))
}

// end closes a span begun at t0 (0 = not recording) and returns its length.
func (tr *tracer) end(kind int, sess int32, t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	t1 := int64(time.Since(tr.epoch))
	tr.note(kind, sess, t0, t1)
	return t1 - t0
}

func (tr *tracer) note(kind int, sess int32, t0, t1 int64) {
	tr.ns[kind].Add(t1 - t0)
	tr.count[kind].Add(1)
	tr.kinds[kind].add(span{start: t0, end: t1, sess: sess, call: -1})
}

// root records client i's call number n. Only client i's goroutine calls it.
func (tr *tracer) root(i int, n int32, t0, t1 time.Time) {
	if !tr.recording.Load() {
		return
	}
	s, e := int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch))
	tr.ns[spanCall].Add(e - s)
	tr.count[spanCall].Add(1)
	tr.roots[i].add(span{start: s, end: e, sess: int32(i), call: n})
}

// --- fsapi decorators ----------------------------------------------------------

type tracedFS struct {
	fsapi.FileSystem
	tr *tracer
}

func (tr *tracer) wrapFS(fs fsapi.FileSystem) fsapi.FileSystem { return &tracedFS{fs, tr} }

func (f *tracedFS) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	c, err := f.FileSystem.Attach(cred)
	if err != nil {
		return nil, err
	}
	return &tracedClient{Client: c, tr: f.tr, sess: f.tr.attaching.Load()}, nil
}

// tracedClient times the calls the four workloads make; everything else
// passes straight through.
type tracedClient struct {
	fsapi.Client
	tr   *tracer
	sess int32
}

func (c *tracedClient) Stat(p string) (fsapi.Stat, error) {
	t0 := c.tr.begin()
	st, err := c.Client.Stat(p)
	c.tr.end(spanCore, c.sess, t0)
	return st, err
}

func (c *tracedClient) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Client.Pread(fd, p, off)
	c.tr.end(spanCore, c.sess, t0)
	return n, err
}

func (c *tracedClient) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Client.Pwrite(fd, p, off)
	c.tr.end(spanCore, c.sess, t0)
	return n, err
}

func (c *tracedClient) Read(fd fsapi.FD, p []byte) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Client.Read(fd, p)
	c.tr.end(spanCore, c.sess, t0)
	return n, err
}

func (c *tracedClient) Write(fd fsapi.FD, p []byte) (int, error) {
	t0 := c.tr.begin()
	n, err := c.Client.Write(fd, p)
	c.tr.end(spanCore, c.sess, t0)
	return n, err
}

func (c *tracedClient) Create(p string, perm uint32) (fsapi.FD, error) {
	t0 := c.tr.begin()
	fd, err := c.Client.Create(p, perm)
	c.tr.end(spanCore, c.sess, t0)
	return fd, err
}

func (c *tracedClient) Open(p string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	t0 := c.tr.begin()
	fd, err := c.Client.Open(p, flags, perm)
	c.tr.end(spanCore, c.sess, t0)
	return fd, err
}

func (c *tracedClient) Close(fd fsapi.FD) error {
	t0 := c.tr.begin()
	err := c.Client.Close(fd)
	c.tr.end(spanCore, c.sess, t0)
	return err
}

func (c *tracedClient) Fsync(fd fsapi.FD) error {
	t0 := c.tr.begin()
	err := c.Client.Fsync(fd)
	c.tr.end(spanCore, c.sess, t0)
	return err
}

func (c *tracedClient) Unlink(p string) error {
	t0 := c.tr.begin()
	err := c.Client.Unlink(p)
	c.tr.end(spanCore, c.sess, t0)
	return err
}

// --- server.Replica decorator --------------------------------------------------

type tracedReplica struct {
	*replica.Node
	tr *tracer
}

func (tr *tracer) wrapReplica(n *replica.Node) server.Replica { return &tracedReplica{n, tr} }

func (r *tracedReplica) AttachClient(cred fsapi.Cred, clientID uint64) (fsapi.Client, uint64, string, error) {
	c, sessID, redirect, err := r.Node.AttachClient(cred, clientID)
	if err != nil {
		return c, sessID, redirect, err
	}
	sess := r.tr.attaching.Load()
	r.tr.mu.Lock()
	r.tr.sessOf[sessID] = sess
	r.tr.mu.Unlock()
	return &tracedClient{Client: c, tr: r.tr, sess: sess}, sessID, redirect, nil
}

func (r *tracedReplica) Apply(sessID uint64, req *wire.Request, trace uint64, exec func() wire.Response) (wire.Response, uint64) {
	t0 := r.tr.begin()
	if t0 == 0 {
		return r.Node.Apply(sessID, req, trace, exec)
	}
	r.tr.mu.Lock()
	sess, ok := r.tr.sessOf[sessID]
	r.tr.mu.Unlock()
	if !ok {
		sess = -1
	}
	resp, seq := r.Node.Apply(sessID, req, trace, func() wire.Response {
		e0 := time.Now()
		resp := exec()
		r.tr.execNs.Add(int64(time.Since(e0)))
		return resp
	})
	r.tr.end(spanApply, sess, t0)
	r.tr.seqSess[seq%seqRing].Store(sess)
	return resp, seq
}

func (r *tracedReplica) WaitQuorum(seq uint64) {
	t0 := r.tr.begin()
	r.Node.WaitQuorum(seq)
	r.tr.end(spanQuorum, r.tr.seqSess[seq%seqRing].Load(), t0)
}

// --- listener decorator ----------------------------------------------------------

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (tr *tracer) wrapListener(ln net.Listener) net.Listener { return &tracedListener{ln, tr} }

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, tr: l.tr, sess: l.tr.attaching.Load()}
	if tc.sess >= 0 {
		l.tr.mu.Lock()
		l.tr.conns = append(l.tr.conns, tc)
		l.tr.mu.Unlock()
	}
	return tc, nil
}

// tracedConn stamps when a request's first byte arrives and when the last
// byte of its reply has been written. The session has one call in flight, so
// the first read that returns data after a write belongs to the next request.
// A wrapped conn is not a *net.TCPConn, so the server's vectored reply turns
// into one write per buffer — the reason nothing is wrapped in the
// end-to-end run.
type tracedConn struct {
	net.Conn
	tr      *tracer
	sess    int32
	arrived atomic.Int64
	written atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.sess >= 0 {
		if w := c.written.Load(); w != 0 || c.arrived.Load() == 0 {
			c.flush()
			c.arrived.Store(c.tr.begin())
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.sess >= 0 && c.arrived.Load() != 0 {
		c.written.Store(int64(time.Since(c.tr.epoch)))
	}
	return n, err
}

// flush records the residence span of the request answered last, if any.
func (c *tracedConn) flush() {
	a, w := c.arrived.Load(), c.written.Swap(0)
	if a != 0 && w > a {
		c.tr.note(spanResidence, c.sess, a, w)
	}
	c.arrived.Store(0)
}

// --- fence observer ------------------------------------------------------------

type fenceObserver struct{ tr *tracer }

func (tr *tracer) fenceObserver() pmem.FenceObserver { return fenceObserver{tr} }

func (f fenceObserver) TraceEnabled() bool { return f.tr.recording.Load() }

func (f fenceObserver) ObserveFence(start time.Time, dur time.Duration) {
	s := int64(start.Sub(f.tr.epoch))
	f.tr.note(spanFence, -1, s, s+int64(dur))
}

// --- after the point -------------------------------------------------------------

// traceSums is what a traced point contributes to the per-layer metrics: the
// time each layer's spans cover, so a layer's self time is its own total
// minus its children's.
type traceSums struct {
	callNs, residenceNs, applySelfNs, coreNs, quorumNs, fenceNs float64
	// callSelfNs is client call time not covered by a server residence span
	// of the same call (the union, when a call fans out to two shards).
	callSelfNs float64
	calls      int64
}

// finish stops recording, closes the open residence spans, assigns call
// numbers to the server-side spans and returns the totals.
func (tr *tracer) finish() traceSums {
	tr.recording.Store(false)
	tr.mu.Lock()
	for _, c := range tr.conns {
		c.flush()
	}
	tr.mu.Unlock()

	bySess := make([][]span, len(tr.roots))
	for i, b := range tr.roots {
		bySess[i] = b.recorded() // already in start order
	}
	// callOf finds the root span of sess containing [start, end].
	callOf := func(s *span) *span {
		if s.sess < 0 || int(s.sess) >= len(bySess) {
			return nil
		}
		roots := bySess[s.sess]
		i := sort.Search(len(roots), func(i int) bool { return roots[i].end >= s.end })
		if i < len(roots) && roots[i].start <= s.start {
			return &roots[i]
		}
		return nil
	}
	for k := spanResidence; k < numSpanKinds; k++ {
		spans := tr.kinds[k].recorded()
		for i := range spans {
			if r := callOf(&spans[i]); r != nil {
				spans[i].call = r.call
			}
		}
	}

	sums := traceSums{
		callNs:      float64(tr.ns[spanCall].Load()),
		residenceNs: float64(tr.ns[spanResidence].Load()),
		applySelfNs: float64(tr.ns[spanApply].Load() - tr.execNs.Load()),
		coreNs:      float64(tr.ns[spanCore].Load()),
		quorumNs:    float64(tr.ns[spanQuorum].Load()),
		fenceNs:     float64(tr.ns[spanFence].Load()),
		calls:       tr.count[spanCall].Load(),
	}
	// Client self time: per call, its length minus the union of the residence
	// spans it contains. Computed over the calls whose spans were all kept,
	// then scaled to every call.
	type key struct{ sess, call int32 }
	covered := make(map[key][]span)
	for _, s := range tr.kinds[spanResidence].recorded() {
		if s.call >= 0 {
			covered[key{s.sess, s.call}] = append(covered[key{s.sess, s.call}], s)
		}
	}
	var selfNs, matchedNs float64
	for _, roots := range bySess {
		for _, r := range roots {
			kids := covered[key{r.sess, r.call}]
			if len(kids) == 0 {
				continue
			}
			sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
			var union, hi int64
			for _, k := range kids {
				lo := max(k.start, hi)
				if k.end > lo {
					union += k.end - lo
					hi = k.end
				}
			}
			selfNs += float64(r.end - r.start - union)
			matchedNs += float64(r.end - r.start)
		}
	}
	if matchedNs > 0 {
		sums.callSelfNs = sums.callNs * selfNs / matchedNs
	}
	return sums
}

// maxTraceEvents bounds the Chrome trace file; the earliest spans are kept.
const maxTraceEvents = 100000

// writeChrome writes the recorded spans as Chrome trace JSON ("X" complete
// events, microsecond timestamps): one process per client session, one
// thread per layer, fences under their own process.
func (tr *tracer) writeChrome(path string) error {
	type ev struct {
		kind int
		span
	}
	var evs []ev
	for _, b := range tr.roots {
		for _, s := range b.recorded() {
			evs = append(evs, ev{spanCall, s})
		}
	}
	for k := spanResidence; k < numSpanKinds; k++ {
		for _, s := range tr.kinds[k].recorded() {
			evs = append(evs, ev{k, s})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].start < evs[j].start })
	truncated := len(evs) > maxTraceEvents
	if truncated {
		evs = evs[:maxTraceEvents]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"rung\":%q,\"truncated\":%v},\"traceEvents\":[\n", tr.rung, truncated)
	for i := range tr.roots {
		fmt.Fprintf(w, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"session %d\"}},\n", i+1, i)
	}
	fmt.Fprintf(w, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"unattributed\"}}")
	for _, e := range evs {
		fmt.Fprintf(w, ",\n{\"ph\":\"X\",\"name\":%q,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rung\":%q,\"session\":%d,\"call\":%d,\"parent\":%q}}",
			spanNames[e.kind], e.sess+1, e.kind, float64(e.start)/1e3, float64(e.end-e.start)/1e3,
			tr.rung, e.sess, e.call, spanParents[e.kind])
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
