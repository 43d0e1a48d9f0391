// Package pmem emulates a byte-addressable non-volatile main-memory (NVMM)
// device.
//
// The paper's implementation runs on Intel Optane DIMMs and relies on the
// x86 persistence primitives clwb (cache-line write back), non-temporal
// stores, and sfence. Go exposes none of these, so this package models them
// explicitly: a Device is a flat arena addressed by relative offsets
// (pmem.Ptr), and durability is a property tracked per 64-byte cache line.
//
// Two modes are supported:
//
//   - Fast mode (the default): stores go straight to the arena and
//     Flush/Fence only update statistics. This is the mode benchmarks run
//     in; it has no bookkeeping overhead beyond a branch.
//
//   - Tracked mode: the Device additionally keeps a shadow "persistent"
//     image and per-line dirty state. A store makes its lines pending; Flush
//     stages them; Fence copies staged lines to the shadow image. Crash
//     rolls the arena back to the shadow image (optionally letting a random
//     subset of unfenced lines survive, as real hardware may persist lines
//     through cache eviction). Crash-consistency tests run in this mode and
//     falsify incorrect ordering exactly as real NVMM would.
//
// All multi-word data structures stored in the arena use relative offsets
// instead of machine pointers, because the paper maps NVMM at a different
// virtual address in every process (ASLR); Ptr is that relative pointer.
package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Ptr is a persistent relative pointer: a byte offset from the start of the
// device. The zero value is the null pointer (offset 0 is occupied by the
// superblock precisely so that 0 can never address a valid object).
type Ptr uint64

// IsNull reports whether p is the null persistent pointer.
func (p Ptr) IsNull() bool { return p == 0 }

// CachelineSize is the persistence granularity, matching x86.
const CachelineSize = 64

// Mode selects the persistence bookkeeping level of a Device.
type Mode int32

const (
	// ModeFast performs no durability tracking.
	ModeFast Mode = iota
	// ModeTracked maintains a shadow persistent image for crash simulation.
	ModeTracked
)

// Stats counts device traffic. All fields are updated atomically.
type Stats struct {
	LoadBytes  atomic.Uint64
	StoreBytes atomic.Uint64
	NTBytes    atomic.Uint64
	Flushes    atomic.Uint64
	Fences     atomic.Uint64
}

// StatsSnapshot is a plain-value copy of Stats at one instant. Snapshots
// taken at the boundaries of an operation window and diffed with Sub
// attribute the device traffic of that window (the per-op accounting the
// observability layer is built on).
type StatsSnapshot struct {
	LoadBytes  uint64
	StoreBytes uint64
	NTBytes    uint64
	Flushes    uint64
	Fences     uint64
}

// Snapshot reads all counters atomically (individually, not as one cut —
// fine for monotonic counters).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		LoadBytes:  s.LoadBytes.Load(),
		StoreBytes: s.StoreBytes.Load(),
		NTBytes:    s.NTBytes.Load(),
		Flushes:    s.Flushes.Load(),
		Fences:     s.Fences.Load(),
	}
}

// Sub returns the field-wise difference s-base.
func (s StatsSnapshot) Sub(base StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		LoadBytes:  s.LoadBytes - base.LoadBytes,
		StoreBytes: s.StoreBytes - base.StoreBytes,
		NTBytes:    s.NTBytes - base.NTBytes,
		Flushes:    s.Flushes - base.Flushes,
		Fences:     s.Fences - base.Fences,
	}
}

// Latency models the timing of the NVMM persistence primitives. Plain
// cached loads/stores are not charged (they hit the CPU cache, and the
// arena already runs at DRAM speed); flushes, fences and non-temporal
// stores spin for their Optane-calibrated durations. The zero value charges
// nothing (unit tests).
type Latency struct {
	// FlushNs is the cost of issuing one clwb.
	FlushNs uint64
	// FenceNs is the cost of an sfence draining the write-pending queue.
	FenceNs uint64
	// NTStoreNsPerLine is the per-cacheline cost of a non-temporal store
	// stream (sets the sustainable write bandwidth).
	NTStoreNsPerLine uint64
}

// OptaneLatency approximates Intel Optane DC PMM: clwb ≈ 40 ns to issue,
// sfence ≈ 100 ns to drain, and a sustained non-temporal write stream of
// roughly 1.6 GB/s per thread (≈ 40 ns per 64-byte line — NT streaming is
// at least as fast as cached stores plus write-back).
func OptaneLatency() Latency {
	return Latency{FlushNs: 40, FenceNs: 100, NTStoreNsPerLine: 40}
}

// Device is an emulated NVMM DIMM region.
type Device struct {
	buf  []byte
	size uint64
	mode atomic.Int32
	lat  Latency
	spin func(ns uint64)

	// Tracked-mode state, guarded by mu.
	mu      sync.Mutex
	shadow  []byte
	pending map[uint64]struct{} // line offsets written but not flushed
	staged  map[uint64]struct{} // line offsets flushed, awaiting fence

	fenceObs FenceObserver
	stopAt   atomic.Uint64 // see StopAt

	Stats Stats
}

// FenceObserver receives the wall-clock duration of device fences for the
// flight recorder. The device only reads the clock around a fence while
// TraceEnabled reports true, so an installed-but-idle observer costs one
// interface call and one atomic load per fence.
type FenceObserver interface {
	TraceEnabled() bool
	ObserveFence(start time.Time, dur time.Duration)
}

// SetFenceObserver installs o as the device's fence observer (nil removes
// it). Install before the device sees concurrent traffic; the field is not
// synchronized.
func (d *Device) SetFenceObserver(o FenceObserver) { d.fenceObs = o }

// New creates a device of the given size (rounded up to a cache line).
// The arena is zero-filled, which doubles as the "freshly formatted" state.
func New(size uint64) *Device {
	size = (size + CachelineSize - 1) &^ uint64(CachelineSize-1)
	return &Device{
		buf:     make([]byte, size),
		size:    size,
		pending: make(map[uint64]struct{}),
		staged:  make(map[uint64]struct{}),
	}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// StatsSnapshot copies the device's traffic counters at this instant.
func (d *Device) StatsSnapshot() StatsSnapshot { return d.Stats.Snapshot() }

// Prefault touches every page of the arena so the host kernel materializes
// it up front. Benchmarks call this once per device: otherwise first-touch
// page faults land inside measured windows and add run-to-run variance.
func (d *Device) Prefault() {
	for off := 0; off < len(d.buf); off += 4096 {
		d.buf[off] = 0
	}
}

// SetLatency installs a persistence-latency model; spin must busy-wait for
// approximately the given nanoseconds (see cost.SpinNs).
func (d *Device) SetLatency(lat Latency, spin func(ns uint64)) {
	d.lat = lat
	d.spin = spin
}

func (d *Device) charge(ns uint64) {
	if ns != 0 && d.spin != nil {
		d.spin(ns)
	}
}

// Mode returns the current persistence-tracking mode.
func (d *Device) Mode() Mode { return Mode(d.mode.Load()) }

// SetMode switches persistence tracking. Switching to ModeTracked snapshots
// the current arena as the persistent image (i.e. everything written so far
// is considered durable).
func (d *Device) SetMode(m Mode) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m == ModeTracked {
		if d.shadow == nil {
			d.shadow = make([]byte, d.size)
		}
		copy(d.shadow, d.buf)
		clear(d.pending)
		clear(d.staged)
	}
	d.mode.Store(int32(m))
}

func (d *Device) tracked() bool { return Mode(d.mode.Load()) == ModeTracked }

func (d *Device) check(off, n uint64) {
	if off+n > d.size || off+n < off {
		panic(fmt.Sprintf("pmem: access [%#x,%#x) out of device bounds %#x", off, off+n, d.size))
	}
}

// markDirty records the cache lines of [off, off+n) as pending (written but
// not yet flushed). Only called in tracked mode.
func (d *Device) markDirty(off, n uint64) {
	first := off &^ uint64(CachelineSize-1)
	last := (off + n - 1) &^ uint64(CachelineSize-1)
	d.mu.Lock()
	for l := first; l <= last; l += CachelineSize {
		d.pending[l] = struct{}{}
	}
	d.mu.Unlock()
}

// markStaged records the cache lines of [off, off+n) as staged for the next
// fence (the state after clwb or a non-temporal store).
func (d *Device) markStaged(off, n uint64) {
	first := off &^ uint64(CachelineSize-1)
	last := (off + n - 1) &^ uint64(CachelineSize-1)
	d.mu.Lock()
	for l := first; l <= last; l += CachelineSize {
		delete(d.pending, l)
		d.staged[l] = struct{}{}
	}
	d.mu.Unlock()
}

// word returns a pointer to the naturally aligned 8-byte word at off.
func (d *Device) word(off uint64) *uint64 {
	if off%8 != 0 {
		panic(fmt.Sprintf("pmem: misaligned 8-byte access at %#x", off))
	}
	d.check(off, 8)
	return (*uint64)(unsafe.Pointer(&d.buf[off]))
}

// word32 returns a pointer to the naturally aligned 4-byte word at off.
func (d *Device) word32(off uint64) *uint32 {
	if off%4 != 0 {
		panic(fmt.Sprintf("pmem: misaligned 4-byte access at %#x", off))
	}
	d.check(off, 4)
	return (*uint32)(unsafe.Pointer(&d.buf[off]))
}

// Load64 reads the 8-byte word at off with a plain (non-atomic) load.
func (d *Device) Load64(off uint64) uint64 { return *d.word(off) }

// Store64 writes the 8-byte word at off with a plain store.
func (d *Device) Store64(off uint64, v uint64) {
	*d.word(off) = v
	if d.tracked() {
		d.markDirty(off, 8)
	}
}

// Load32 reads the 4-byte word at off.
func (d *Device) Load32(off uint64) uint32 { return *d.word32(off) }

// Store32 writes the 4-byte word at off.
func (d *Device) Store32(off uint64, v uint32) {
	*d.word32(off) = v
	if d.tracked() {
		d.markDirty(off, 4)
	}
}

// AtomicLoad64 reads the word at off with acquire semantics.
func (d *Device) AtomicLoad64(off uint64) uint64 {
	return atomic.LoadUint64(d.word(off))
}

// AtomicLoad32 reads the 4-byte word at off with acquire semantics.
func (d *Device) AtomicLoad32(off uint64) uint32 {
	return atomic.LoadUint32(d.word32(off))
}

// AtomicStore32 writes the 4-byte word at off with release semantics.
func (d *Device) AtomicStore32(off uint64, v uint32) {
	atomic.StoreUint32(d.word32(off), v)
	if d.tracked() {
		d.markDirty(off, 4)
	}
}

// AtomicStore64 writes the word at off with release semantics. Like real
// hardware, the store is not durable until the line is flushed and fenced.
func (d *Device) AtomicStore64(off uint64, v uint64) {
	atomic.StoreUint64(d.word(off), v)
	if d.tracked() {
		d.markDirty(off, 8)
	}
}

// CompareAndSwap64 atomically swaps the word at off if it equals old.
func (d *Device) CompareAndSwap64(off uint64, old, new uint64) bool {
	ok := atomic.CompareAndSwapUint64(d.word(off), old, new)
	if ok && d.tracked() {
		d.markDirty(off, 8)
	}
	return ok
}

// AtomicAdd64 atomically adds delta to the word at off and returns the new value.
func (d *Device) AtomicAdd64(off uint64, delta uint64) uint64 {
	v := atomic.AddUint64(d.word(off), delta)
	if d.tracked() {
		d.markDirty(off, 8)
	}
	return v
}

// AtomicOr64 atomically ORs mask into the word at off, returning the old value.
func (d *Device) AtomicOr64(off uint64, mask uint64) uint64 {
	for {
		old := atomic.LoadUint64(d.word(off))
		if atomic.CompareAndSwapUint64(d.word(off), old, old|mask) {
			if d.tracked() {
				d.markDirty(off, 8)
			}
			return old
		}
	}
}

// AtomicAnd64 atomically ANDs mask into the word at off, returning the old value.
func (d *Device) AtomicAnd64(off uint64, mask uint64) uint64 {
	for {
		old := atomic.LoadUint64(d.word(off))
		if atomic.CompareAndSwapUint64(d.word(off), old, old&mask) {
			if d.tracked() {
				d.markDirty(off, 8)
			}
			return old
		}
	}
}

// ReadAt copies len(p) bytes starting at off into p.
func (d *Device) ReadAt(off uint64, p []byte) {
	d.check(off, uint64(len(p)))
	copy(p, d.buf[off:off+uint64(len(p))])
	d.Stats.LoadBytes.Add(uint64(len(p)))
}

// WriteAt copies p into the device at off using regular (cached) stores.
func (d *Device) WriteAt(off uint64, p []byte) {
	d.check(off, uint64(len(p)))
	copy(d.buf[off:off+uint64(len(p))], p)
	d.Stats.StoreBytes.Add(uint64(len(p)))
	if d.tracked() {
		d.markDirty(off, uint64(len(p)))
	}
}

// NTStore copies p into the device at off with non-temporal stores: the data
// bypasses the cache and becomes durable at the next Fence. This is the data
// path the paper uses for file writes.
func (d *Device) NTStore(off uint64, p []byte) {
	d.check(off, uint64(len(p)))
	copy(d.buf[off:off+uint64(len(p))], p)
	d.Stats.NTBytes.Add(uint64(len(p)))
	d.charge(d.lat.NTStoreNsPerLine * ((uint64(len(p)) + CachelineSize - 1) / CachelineSize))
	if d.tracked() {
		d.markStaged(off, uint64(len(p)))
	}
}

// Bytes returns the live arena slice [off, off+n). The caller must treat it
// as volatile memory: reads are fine, writes bypass persistence tracking.
// It exists for zero-copy read paths.
func (d *Device) Bytes(off, n uint64) []byte {
	d.check(off, n)
	return d.buf[off : off+n : off+n]
}

// Zero clears [off, off+n) with regular stores.
func (d *Device) Zero(off, n uint64) {
	d.check(off, n)
	clear(d.buf[off : off+n])
	d.Stats.StoreBytes.Add(n)
	if d.tracked() {
		d.markDirty(off, n)
	}
}

// The Atomic* bulk operations move the body of a metadata object one aligned
// 8-byte word at a time with atomic loads and stores. File-system metadata is
// read optimistically: a path walk may still be looking at an entry or inode
// that another process is freeing or has already recycled, and only
// afterwards finds out and discards what it read. Both sides of that overlap
// therefore have to be word-atomic. off must be 8-byte aligned.

// words returns the n aligned 8-byte words starting at off, bounds-checked
// once.
func (d *Device) words(off uint64, n int) []uint64 {
	if n == 0 {
		return nil
	}
	d.check(off, uint64(n)*8)
	return unsafe.Slice(d.word(off), n)
}

// AtomicZero clears [off, off+n), n a multiple of 8, leaving words that are
// already zero untouched.
func (d *Device) AtomicZero(off, n uint64) {
	ws := d.words(off, int(n/8))
	for i := range ws {
		if atomic.LoadUint64(&ws[i]) != 0 {
			atomic.StoreUint64(&ws[i], 0)
		}
	}
	d.Stats.StoreBytes.Add(n)
	if d.tracked() {
		d.markDirty(off, n)
	}
}

// AtomicWriteAt copies p to off; the bytes of the last word past len(p) are
// written as zero.
func (d *Device) AtomicWriteAt(off uint64, p []byte) {
	ws := d.words(off, (len(p)+7)/8)
	for i := range ws {
		var w [8]byte
		copy(w[:], p[i*8:])
		atomic.StoreUint64(&ws[i], binary.NativeEndian.Uint64(w[:]))
	}
	d.Stats.StoreBytes.Add(uint64(len(p)))
	if len(ws) != 0 && d.tracked() {
		d.markDirty(off, uint64(len(ws))*8)
	}
}

// AtomicReadAt copies len(p) bytes starting at off into p.
func (d *Device) AtomicReadAt(off uint64, p []byte) {
	ws := d.words(off, (len(p)+7)/8)
	for i := range ws {
		var w [8]byte
		binary.NativeEndian.PutUint64(w[:], atomic.LoadUint64(&ws[i]))
		copy(p[i*8:], w[:])
	}
	d.Stats.LoadBytes.Add(uint64(len(p)))
}

// AtomicEqual reports whether the len(s) bytes at off equal s. It is the
// name comparison of the path walk, so it neither allocates nor counts
// towards Stats (a shared counter would make every lookup a store).
func (d *Device) AtomicEqual(off uint64, s string) bool {
	ws := d.words(off, (len(s)+7)/8)
	for i := range ws {
		var w [8]byte
		binary.NativeEndian.PutUint64(w[:], atomic.LoadUint64(&ws[i]))
		if rest := s[i*8:]; string(w[:min(8, len(rest))]) != rest[:min(8, len(rest))] {
			return false
		}
	}
	return true
}

// Flush issues a cache-line write back (clwb) for every line overlapping
// [off, off+n). The lines become durable at the next Fence.
func (d *Device) Flush(off, n uint64) {
	if n == 0 {
		return
	}
	d.check(off, n)
	lines := (n + CachelineSize - 1) / CachelineSize
	d.Stats.Flushes.Add(lines)
	d.charge(d.lat.FlushNs * lines)
	if d.tracked() {
		d.markStaged(off, n)
	}
}

// Fence issues an sfence: all previously flushed or non-temporally written
// lines become durable (are copied to the shadow persistent image).
func (d *Device) Fence() {
	if o := d.fenceObs; o != nil && o.TraceEnabled() {
		start := time.Now()
		d.fence()
		o.ObserveFence(start, time.Since(start))
		return
	}
	d.fence()
}

func (d *Device) fence() {
	n := d.Stats.Fences.Add(1)
	d.charge(d.lat.FenceNs)
	if !d.tracked() {
		return
	}
	if s := d.stopAt.Load(); s != 0 && n >= s {
		panic(stopped{})
	}
	d.mu.Lock()
	for l := range d.staged {
		// Word by word: another process may be storing to a neighbouring
		// word of the line (atomically, if it is metadata) right now.
		for o := l; o < l+CachelineSize; o += 8 {
			*(*uint64)(unsafe.Pointer(&d.shadow[o])) = atomic.LoadUint64(d.word(o))
		}
	}
	clear(d.staged)
	d.mu.Unlock()
}

// StopAt makes the device's n-th fence (counted by Stats.Fences) and every
// later one panic before it takes effect, in tracked mode only; 0 disarms
// it. It is the crash-testing seam: every fence is a crash point. A stop
// followed by Crash or CrashPartial is a power failure that leaves exactly
// the state after fence n-1 (plus, torn, some of the lines written since).
// A stop alone is a process death: the caller unwinds through its deferred
// calls and leaves everything else — NVMM and the busy bits in it — as it
// was. Run catches the stop.
func (d *Device) StopAt(n uint64) { d.stopAt.Store(n) }

// stopped is the panic value of a fence StopAt armed.
type stopped struct{}

// Run calls f and reports whether a fence StopAt armed stopped it. Any
// other panic goes on unwinding.
func Run(f func()) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				panic(r)
			}
			stop = true
		}
	}()
	f()
	return false
}

// Persist is the common flush+fence sequence used to make a small update durable.
func (d *Device) Persist(off, n uint64) {
	d.Flush(off, n)
	d.Fence()
}

// Crash simulates a power failure in tracked mode: the arena reverts to the
// shadow persistent image. Every line that was not both flushed and fenced
// is lost. Panics in fast mode, where no persistent image exists.
func (d *Device) Crash() {
	d.crash(nil)
}

// CrashPartial simulates a power failure where an arbitrary subset of
// unfenced lines happens to have reached the media anyway (cache eviction,
// in-flight writebacks). Each pending or staged line independently survives
// with probability 1/2 under rng, drawn in address order, so one seed names
// one outcome. Both outcomes are legal persistent states on real hardware,
// so recovery code must handle either.
func (d *Device) CrashPartial(rng *rand.Rand) {
	d.crash(rng)
}

func (d *Device) crash(rng *rand.Rand) {
	if !d.tracked() {
		panic("pmem: Crash called on a device in fast mode")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if rng != nil {
		lines := slices.Sorted(maps.Keys(d.pending))
		lines = append(lines, slices.Sorted(maps.Keys(d.staged))...)
		for _, l := range lines {
			if rng.Intn(2) == 0 {
				copy(d.shadow[l:l+CachelineSize], d.buf[l:l+CachelineSize])
			}
		}
	}
	copy(d.buf, d.shadow)
	clear(d.pending)
	clear(d.staged)
}

// A device image is a 16-byte header — magic, arena size — followed by runs
// of the arena's written pages. Each run is its offset and length (u64
// each, little-endian) and that many arena bytes; runs ascend and do not
// overlap, and a zero-length run ends the image. A page holding only zero
// bytes belongs to no run: New's arena is zero already, so a page that was
// never written is neither shipped nor, on the reading side, touched.
const (
	imageMagic      = 0x53494d5552474852 // "SIMURGHR": run image
	denseImageMagic = 0x53494d5552474844 // "SIMURGHD": header + raw arena, written by earlier builds
	imagePage       = 4096
	imageHdrSize    = 16
)

var zeroPage [imagePage]byte

// imageRun is one run of written pages, [off, off+n).
type imageRun struct{ off, n uint64 }

// writtenRuns returns the arena's maximal runs of pages that hold a
// non-zero byte. The last page may be partial (New rounds only to a cache
// line).
func (d *Device) writtenRuns() []imageRun {
	var runs []imageRun
	for off := uint64(0); off < d.size; off += imagePage {
		end := min(off+imagePage, d.size)
		if bytes.Equal(d.buf[off:end], zeroPage[:end-off]) {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].off+runs[k].n == off {
			runs[k].n += end - off
		} else {
			runs = append(runs, imageRun{off, end - off})
		}
	}
	return runs
}

// WriteTo serializes the device's current contents as a run image (see
// imageMagic), so a volume can be saved to a host file or shipped to a
// joining backup and reopened later with ReadImage. A writer with a Grow
// method (a bytes.Buffer) is grown once to the image's exact size.
func (d *Device) WriteTo(w io.Writer) (int64, error) {
	runs := d.writtenRuns()
	total := imageHdrSize * (len(runs) + 2)
	for _, r := range runs {
		total += int(r.n)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(total)
	}
	var written int64
	put := func(a, b uint64, body []byte) error {
		var hdr [imageHdrSize]byte
		binary.LittleEndian.PutUint64(hdr[0:], a)
		binary.LittleEndian.PutUint64(hdr[8:], b)
		n, err := w.Write(hdr[:])
		written += int64(n)
		if err != nil || len(body) == 0 {
			return err
		}
		n, err = w.Write(body)
		written += int64(n)
		return err
	}
	if err := put(imageMagic, d.size, nil); err != nil {
		return written, err
	}
	for _, r := range runs {
		if err := put(r.off, r.n, d.buf[r.off:r.off+r.n]); err != nil {
			return written, err
		}
	}
	return written, put(0, 0, nil)
}

// ReadImage deserializes a device previously written with WriteTo. Only
// the image's runs are copied into the fresh arena. Images in the dense
// format of earlier builds (header + raw arena) still load. Runs that
// overlap, descend, or reach past the arena are refused.
func ReadImage(r io.Reader) (*Device, error) {
	var hdr [imageHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	magic := binary.LittleEndian.Uint64(hdr[0:])
	if magic != imageMagic && magic != denseImageMagic {
		return nil, fmt.Errorf("pmem: not a device image")
	}
	size := binary.LittleEndian.Uint64(hdr[8:])
	if size > 1<<40 {
		return nil, fmt.Errorf("pmem: implausible image size %d", size)
	}
	d := New(size)
	if magic == denseImageMagic {
		if _, err := io.ReadFull(r, d.buf); err != nil {
			return nil, err
		}
		return d, nil
	}
	var end uint64 // end of the previous run
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, noEOF(err)
		}
		off := binary.LittleEndian.Uint64(hdr[0:])
		n := binary.LittleEndian.Uint64(hdr[8:])
		switch {
		case n == 0:
			return d, nil
		case off < end:
			return nil, fmt.Errorf("pmem: image run at %#x overlaps or precedes the run ending at %#x", off, end)
		case off > d.size || n > d.size-off:
			return nil, fmt.Errorf("pmem: image run [%#x,+%#x) past device size %#x", off, n, d.size)
		}
		if _, err := io.ReadFull(r, d.buf[off:off+n]); err != nil {
			return nil, noEOF(err)
		}
		end = off + n
	}
}

// noEOF reports a clean end of input inside a run image as the truncation
// it is: only the zero-length run ends an image.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ImageSize returns the arena size recorded in a device image's header, or
// 0 if img does not start with one.
func ImageSize(img []byte) uint64 {
	if len(img) < imageHdrSize {
		return 0
	}
	if m := binary.LittleEndian.Uint64(img); m != imageMagic && m != denseImageMagic {
		return 0
	}
	return binary.LittleEndian.Uint64(img[8:])
}

// DirtyLines returns the number of cache lines that are not yet durable
// (pending + staged). Useful in tests asserting that an operation persisted
// everything it wrote.
func (d *Device) DirtyLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending) + len(d.staged)
}

// Gauge is one named point-in-time device measurement for the
// observability exporters.
type Gauge struct {
	Name  string
	Value uint64
}

// Gauges reports the device's current levels: arena size, persistence
// mode, and (in tracked mode) the number of not-yet-durable lines.
func (d *Device) Gauges() []Gauge {
	g := []Gauge{
		{Name: "arena_bytes", Value: d.size},
		{Name: "mode_tracked", Value: 0},
	}
	if d.tracked() {
		g[1].Value = 1
		g = append(g, Gauge{Name: "dirty_lines", Value: uint64(d.DirtyLines())})
	}
	return g
}
