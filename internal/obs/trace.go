package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind tags a trace event with the phase of work it covers. Whole
// operations are SpanOp; the other kinds are sub-operation phases recorded
// by the subsystems (lock spinning, slow directory probes, recovery work,
// device fences) so a trace shows where inside an operation the time went.
type SpanKind uint8

const (
	// SpanOp is one whole deep-sampled operation.
	SpanOp SpanKind = iota
	// SpanLockWait is a contended wait for a busy-flag line or file lock.
	SpanLockWait
	// SpanDirProbe is a slow-path directory probe or index build.
	SpanDirProbe
	// SpanRecovery is waiter- or mount-performed recovery work.
	SpanRecovery
	// SpanPmemFlush is a fence/flush barrier executed by the device.
	SpanPmemFlush
	// SpanClientEnqueue is a traced batch waiting in the client send queue
	// (submit → writer pickup).
	SpanClientEnqueue
	// SpanClientSend is the client writer's vectored flush of a traced batch.
	SpanClientSend
	// SpanClientAwait is the client-side round trip of a traced request
	// (submit → reply delivery).
	SpanClientAwait
	// SpanSrvQueue is a traced batch waiting in the server job queue.
	SpanSrvQueue
	// SpanSrvExec is a traced batch executing on a server worker.
	SpanSrvExec
	// SpanSrvExecFast is a traced all-read batch executing inline on the
	// server read fast path.
	SpanSrvExecFast
	// SpanSrvQuorum is the server blocking until replication reaches quorum
	// for a traced batch's writes.
	SpanSrvQuorum
	// SpanRepCommit is a traced entry waiting in the primary's group-commit
	// buffer (ship enqueue → writer drain).
	SpanRepCommit
	// SpanRepShip is the primary shipper's vectored flush of a traced drain.
	SpanRepShip
	// SpanRepApply is the backup applying a traced Replicate frame.
	SpanRepApply
	// SpanRepAck is the backup acknowledging a traced frame's sequence back
	// to the primary (apply done → ack written).
	SpanRepAck
	// NumSpanKinds bounds the SpanKind enum.
	NumSpanKinds
)

var spanKindNames = [NumSpanKinds]string{
	SpanOp: "op", SpanLockWait: "lock-wait", SpanDirProbe: "dir-probe",
	SpanRecovery: "recovery", SpanPmemFlush: "pmem-flush",
	SpanClientEnqueue: "cli-enqueue", SpanClientSend: "cli-send",
	SpanClientAwait: "cli-await", SpanSrvQueue: "srv-queue",
	SpanSrvExec: "srv-exec", SpanSrvExecFast: "srv-exec-fast",
	SpanSrvQuorum: "srv-quorum", SpanRepCommit: "rep-commit",
	SpanRepShip: "rep-ship", SpanRepApply: "rep-apply", SpanRepAck: "rep-ack",
}

// String returns the span kind name.
func (k SpanKind) String() string {
	if k < NumSpanKinds {
		return spanKindNames[k]
	}
	return "unknown"
}

// TraceEvent is one phase-tagged span captured by the flight recorder.
// Trace, when nonzero, is the distributed trace ID the span belongs to:
// spans with equal trace IDs across node dumps describe one causal chain
// (one sampled batch crossing client, primary, and backups).
type TraceEvent struct {
	Kind  SpanKind
	Op    Op // the operation class; meaningful for SpanOp spans
	Start time.Time
	LatNs uint64
	Trace uint64
	Err   bool
}

// Name returns the display name of the span: the op name for whole-op
// spans, the phase name otherwise.
func (e TraceEvent) Name() string {
	if e.Kind == SpanOp {
		return e.Op.String()
	}
	return e.Kind.String()
}

// spanRing is a bounded ring of recent spans. One type serves both the
// flight recorder, which keeps every span while enabled and wraps fast
// under load, and the slow log, which keeps only spans at or above its
// threshold so an outlier from minutes ago is still there when an operator
// looks. Disabled (zero capacity) by default; appends take a short mutex —
// tracing is a debugging aid, op spans are already rate-limited by the
// sample period, and outliers are rare by definition. gate is the only
// word a record reads while the ring is off, so a disarmed ring costs one
// atomic load.
type spanRing struct {
	gate atomic.Uint64 // 0 = off; otherwise 1 + the minimum latency kept
	mu   sync.Mutex
	buf  []TraceEvent
	next uint64 // total events recorded; next%len(buf) is the write slot
}

func (t *spanRing) record(kind SpanKind, op Op, trace uint64, start time.Time, latNs uint64, failed bool) {
	if g := t.gate.Load(); g == 0 || latNs < g-1 {
		return
	}
	t.mu.Lock()
	if len(t.buf) > 0 {
		t.buf[t.next%uint64(len(t.buf))] = TraceEvent{Kind: kind, Op: op, Start: start, LatNs: latNs, Trace: trace, Err: failed}
		t.next++
	}
	t.mu.Unlock()
}

// arm replaces the ring with an empty one of the given capacity keeping
// spans of at least minNs; capacity <= 0 turns it off and drops its spans.
func (t *spanRing) arm(minNs uint64, capacity int) {
	t.mu.Lock()
	t.buf, t.next = nil, 0
	t.gate.Store(0)
	if capacity > 0 {
		t.buf = make([]TraceEvent, capacity)
		t.gate.Store(minNs + 1)
	}
	t.mu.Unlock()
}

// events returns the retained spans, oldest first.
func (t *spanRing) events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) == 0 || t.next == 0 {
		return nil
	}
	capU := uint64(len(t.buf))
	count := min(t.next, capU)
	out := make([]TraceEvent, 0, count)
	for i := t.next - count; i < t.next; i++ {
		out = append(out, t.buf[i%capU])
	}
	return out
}

// EnableTrace turns the flight recorder on with the given capacity (0
// disables and drops any captured events).
func (r *Registry) EnableTrace(capacity int) {
	if r == nil {
		return
	}
	r.trace.arm(0, capacity)
}

// TraceEnabled reports whether the flight recorder is currently capturing.
// Instrumentation sites that need extra clock reads to produce a span check
// this first so a disabled recorder costs one atomic load.
func (r *Registry) TraceEnabled() bool {
	if r == nil {
		return false
	}
	return r.trace.gate.Load() != 0
}

// Span records a phase-tagged span into the flight recorder. op is ignored
// for non-SpanOp kinds except as trace metadata. Nil-safe and cheap when
// tracing is off.
func (r *Registry) Span(kind SpanKind, op Op, start time.Time, latNs uint64, failed bool) {
	if r == nil {
		return
	}
	r.trace.record(kind, op, 0, start, latNs, failed)
}

// SpanCtx is Span carrying a distributed trace ID: spans recorded with the
// same nonzero trace across processes merge into one causal chain in a
// combined Chrome dump. It also feeds the slow log. Nil-safe and two
// atomic loads when both rings are off.
func (r *Registry) SpanCtx(kind SpanKind, op Op, trace uint64, start time.Time, latNs uint64, failed bool) {
	if r == nil {
		return
	}
	r.trace.record(kind, op, trace, start, latNs, failed)
	r.slow.record(kind, op, trace, start, latNs, failed)
}

// SetNode names this registry's process for multi-node trace merging. The
// name becomes the Chrome-trace process label, and the derived pid keeps
// each node's spans in a distinct process group when dumps are merged.
func (r *Registry) SetNode(name string) {
	if r == nil {
		return
	}
	r.node.Store(name)
}

// Node returns the node name set by SetNode ("" if unset).
func (r *Registry) Node() string {
	if r == nil {
		return ""
	}
	if v, ok := r.node.Load().(string); ok {
		return v
	}
	return ""
}

// nodePid derives a stable small positive Chrome-trace pid from the node
// name (FNV-1a folded), so independently-produced dumps land in distinct
// process groups with high probability. An unnamed node is pid 1.
func nodePid(name string) int {
	if name == "" {
		return 1
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	p := int(h%99990) + 10 // avoid colliding with the unnamed pid 1
	return p
}

// Trace returns the captured events, oldest first. At most the ring's
// capacity of most recent events is retained.
func (r *Registry) Trace() []TraceEvent {
	if r == nil {
		return nil
	}
	return r.trace.events()
}

// WriteChromeTrace writes the captured spans as a Chrome trace-event JSON
// array of complete ("X") events with microsecond timestamps, loadable by
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each span kind renders as
// its own thread lane inside this node's process group. Timestamps are
// absolute wall-clock microseconds, so dumps taken from different processes
// share one time axis and can be concatenated by MergeChromeTraces into a
// single cross-node timeline; spans of one distributed trace carry the same
// "trace" arg (hex ID) to link the chain.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	events := r.Trace()
	node := r.Node()
	pid := nodePid(node)
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	label := node
	if label == "" {
		label = "simurgh"
	}
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid, label)
	for _, e := range events {
		bw.WriteString(",\n ")
		ts := float64(e.Start.UnixNano()) / 1e3
		dur := float64(e.LatNs) / 1e3
		// Untraced spans omit the "trace" arg so a hex-ID search in the
		// viewer matches only the distributed chain.
		if e.Trace != 0 {
			fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"err":%t,"trace":"%016x"}}`,
				e.Name(), e.Kind.String(), ts, dur, pid, int(e.Kind)+1, e.Err, e.Trace)
		} else {
			fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"err":%t}}`,
				e.Name(), e.Kind.String(), ts, dur, pid, int(e.Kind)+1, e.Err)
		}
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// MergeChromeTraces merges Chrome-trace dumps produced by WriteChromeTrace
// on different nodes into one JSON array. Because dumps carry absolute
// timestamps and node-distinct pids, merging is event concatenation: the
// result renders each node as its own process group on a shared time axis,
// with cross-node spans of one trace ID lining up as a single causal chain.
func MergeChromeTraces(w io.Writer, dumps ...[]byte) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	first := true
	for _, d := range dumps {
		var events []json.RawMessage
		if err := json.Unmarshal(d, &events); err != nil {
			return fmt.Errorf("obs: merge: bad trace dump: %w", err)
		}
		for _, e := range events {
			if !first {
				bw.WriteString(",\n ")
			}
			first = false
			bw.Write(e)
		}
	}
	bw.WriteString("]\n")
	return bw.Flush()
}
