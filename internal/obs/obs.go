// Package obs is the per-operation observability core shared by every layer
// of the file system: lock-free sharded counters and latency histograms per
// operation class, NVMM-traffic attribution (flushes, fences, non-temporal
// bytes charged to the operation that issued them), an optional bounded
// trace ring, and a Snapshot/diff API that the stats surfaces (FS.Stats,
// simurghsh stats, simurghbench breakdown, simurghfsck) are built on.
//
// The paper's central claims are per-operation claims — metadata ops cost N
// cycles, flush/fence counts dominate the YCSB breakdowns (Table 1, Fig 10)
// — so the reproduction must be able to attribute device traffic and
// latency to an operation class from live counters instead of ad-hoc
// timing. A Registry is that sink: the core dispatch path calls EnterAt once
// per public operation (one sharded atomic increment), and for sampled
// operations additionally records latency and the device-stats delta of the
// operation window.
//
// Recording is lock-free: counters are split across power-of-two shards so
// concurrent clients do not serialize on a shared cache line. Each caller
// pins itself to a shard with ShardHint (round-robin at attach time) so
// its hot counters stay cache-resident.
// Attribution windows are exact when operations do not overlap on the
// device (unit tests, the shell, the breakdown tool); overlapping windows
// each observe the union of concurrent traffic, so heavily parallel sweeps
// should read the per-op columns as upper bounds.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Op is a file-system operation class. Every public operation of the FS
// dispatch path maps to exactly one Op.
type Op uint8

// Operation classes, one per public fsapi.Client operation.
const (
	OpCreate Op = iota
	OpOpen
	OpClose
	OpRead
	OpPread
	OpWrite
	OpPwrite
	OpSeek
	OpFsync
	OpFtruncate
	OpFallocate
	OpFstat
	OpStat
	OpLstat
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpSymlink
	OpLink
	OpReadlink
	OpReadDir
	OpChmod
	OpUtimes
	OpDetach
	// NumOps bounds the Op enum; it is the length of per-op arrays.
	NumOps
)

var opNames = [NumOps]string{
	OpCreate: "create", OpOpen: "open", OpClose: "close",
	OpRead: "read", OpPread: "pread", OpWrite: "write", OpPwrite: "pwrite",
	OpSeek: "seek", OpFsync: "fsync", OpFtruncate: "ftruncate",
	OpFallocate: "fallocate", OpFstat: "fstat", OpStat: "stat",
	OpLstat: "lstat", OpMkdir: "mkdir", OpRmdir: "rmdir",
	OpUnlink: "unlink", OpRename: "rename", OpSymlink: "symlink",
	OpLink: "link", OpReadlink: "readlink", OpReadDir: "readdir",
	OpChmod: "chmod", OpUtimes: "utimes", OpDetach: "detach",
}

// String returns the operation class name.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "unknown"
}

// Delta is NVMM device traffic attributed to an operation window (or, in a
// Snapshot's Device field, the device-global totals). It mirrors the pmem
// device counters without importing them, so obs stays dependency-free.
type Delta struct {
	LoadBytes  uint64 `json:"load_bytes"`
	StoreBytes uint64 `json:"store_bytes"`
	NTBytes    uint64 `json:"nt_bytes"`
	Flushes    uint64 `json:"flushes"`
	Fences     uint64 `json:"fences"`
}

// Add returns the field-wise sum a+b.
func (a Delta) Add(b Delta) Delta {
	return Delta{
		LoadBytes:  a.LoadBytes + b.LoadBytes,
		StoreBytes: a.StoreBytes + b.StoreBytes,
		NTBytes:    a.NTBytes + b.NTBytes,
		Flushes:    a.Flushes + b.Flushes,
		Fences:     a.Fences + b.Fences,
	}
}

// Sub returns the field-wise difference a-b.
func (a Delta) Sub(b Delta) Delta {
	return Delta{
		LoadBytes:  a.LoadBytes - b.LoadBytes,
		StoreBytes: a.StoreBytes - b.StoreBytes,
		NTBytes:    a.NTBytes - b.NTBytes,
		Flushes:    a.Flushes - b.Flushes,
		Fences:     a.Fences - b.Fences,
	}
}

// DefaultSamplePeriod is the deep-sampling period a fresh Registry starts
// with: 1 of every 32 calls per op class opens a full latency/attribution
// window. Call and error counts are always exact; only the window (two
// clock reads plus a device-stats snapshot, ~100 ns) is sampled so the
// instrumented dispatch path stays within benchmark noise on sub-µs
// operations. Surfaces that need exact attribution (tests, the shell, the
// breakdown tool) call SetSamplePeriod(1).
const DefaultSamplePeriod = 32

// opCounters is the per-shard accumulator of one operation class. All
// fields are updated with atomic adds only.
type opCounters struct {
	calls   atomic.Uint64
	errors  atomic.Uint64
	sampled atomic.Uint64
	latNs   atomic.Uint64
	hist    [NumBuckets]atomic.Uint64
	load    atomic.Uint64
	store   atomic.Uint64
	nt      atomic.Uint64
	flushes atomic.Uint64
	fences  atomic.Uint64
}

type regShard struct {
	ops [NumOps]opCounters
}

// lockWaitCounters accumulates timed contended waits for one lock class.
// Waits are already a slow path (the caller just blocked), so plain shared
// atomics are fine here.
type lockWaitCounters struct {
	waits atomic.Uint64
	ns    atomic.Uint64
	hist  [NumBuckets]atomic.Uint64
}

// Registry is the live observability sink of one mounted file system.
// All methods are safe for concurrent use and nil-safe (a nil Registry
// records nothing), so optional instrumentation costs one branch.
type Registry struct {
	shards     []regShard
	shardMask  uint32
	hintCtr    atomic.Uint32
	sampleMask atomic.Uint64
	trace      spanRing     // the flight recorder
	slow       spanRing     // the slow-op log
	node       atomic.Value // string; set by SetNode
	events     [NumEvents]atomic.Uint64
	lockWait   [NumLockClasses]lockWaitCounters
}

// NewRegistry creates a Registry sized for the host's parallelism, deep-
// sampling every DefaultSamplePeriod-th call.
func NewRegistry() *Registry {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n > 32 {
		n = 32
	}
	r := &Registry{shards: make([]regShard, n), shardMask: uint32(n - 1)}
	r.SetSamplePeriod(DefaultSamplePeriod)
	return r
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetSamplePeriod sets the deep-sampling period (rounded up to a power of
// two; minimum 1 = every call). Period 1 makes latency and NVMM attribution
// exact at ~100 ns extra per operation.
func (r *Registry) SetSamplePeriod(period int) {
	if r == nil {
		return
	}
	if period < 1 {
		period = 1
	}
	r.sampleMask.Store(uint64(nextPow2(period)) - 1)
}

// SamplePeriod returns the current deep-sampling period.
func (r *Registry) SamplePeriod() uint64 {
	if r == nil {
		return 0
	}
	return r.sampleMask.Load() + 1
}

// ShardHint returns a stable shard index for a long-lived caller (one per
// attached client). Pinning a caller's counters to one shard keeps its hot
// calls counter in cache — a per-call random shard touches a fresh line
// almost every operation — while round-robin hints still spread concurrent
// callers so they do not serialize on one line.
func (r *Registry) ShardHint() uint32 {
	if r == nil {
		return 0
	}
	return r.hintCtr.Add(1) & r.shardMask
}

// EnterAt counts one call of op in the shard selected by hint (from
// ShardHint) and reports whether the caller should open a full
// latency/attribution window for it (deep sampling). This is the only
// per-call cost of a non-sampled operation: one sharded atomic increment.
func (r *Registry) EnterAt(hint uint32, op Op) bool {
	if r == nil {
		return false
	}
	n := r.shards[hint&r.shardMask].ops[op].calls.Add(1)
	return n&r.sampleMask.Load() == 0
}

// ErrorAt counts one failed call of op in the shard selected by hint.
func (r *Registry) ErrorAt(hint uint32, op Op) {
	if r == nil {
		return
	}
	r.shards[hint&r.shardMask].ops[op].errors.Add(1)
}

// SampleAt closes a deep-sampled operation window in the shard selected
// by hint: it records the measured latency into the op's histogram and
// charges the NVMM traffic delta of the window to the op class. start is
// the window's begin time (used only by the span rings).
func (r *Registry) SampleAt(hint uint32, op Op, start time.Time, latNs uint64, d Delta, failed bool) {
	if r == nil {
		return
	}
	c := &r.shards[hint&r.shardMask].ops[op]
	c.sampled.Add(1)
	c.latNs.Add(latNs)
	c.hist[bucketOf(latNs)].Add(1)
	if d.LoadBytes != 0 {
		c.load.Add(d.LoadBytes)
	}
	if d.StoreBytes != 0 {
		c.store.Add(d.StoreBytes)
	}
	if d.NTBytes != 0 {
		c.nt.Add(d.NTBytes)
	}
	if d.Flushes != 0 {
		c.flushes.Add(d.Flushes)
	}
	if d.Fences != 0 {
		c.fences.Add(d.Fences)
	}
	r.trace.record(SpanOp, op, 0, start, latNs, failed)
	r.slow.record(SpanOp, op, 0, start, latNs, failed)
}

// ObserveFence implements the pmem-device fence observer: it records one
// device fence as a pmem-flush span in the flight recorder. The device
// only times fences while TraceEnabled reports true, so an idle recorder
// adds one atomic load per fence.
func (r *Registry) ObserveFence(start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.trace.record(SpanPmemFlush, 0, 0, start, uint64(dur.Nanoseconds()), false)
}
