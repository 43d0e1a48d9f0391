package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/alloc"
	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Options configures Format and Mount.
type Options struct {
	// RelaxedWrites disables the per-file exclusive write lock for
	// overwrites of stored bytes, as in the "relaxed" Simurgh variant of
	// Fig. 7k (the application coordinates writers itself). A write that
	// grows the file or fills a hole still takes it.
	RelaxedWrites bool
	// LineLockTimeout is how long a process busy-waits on a lock in NVMM, a
	// directory line's busy bit or a file's lock word, before it presumes
	// the holder dead: it recovers the line, or takes the file lock over. A
	// live holder that outlasts it loses the lock.
	LineLockTimeout time.Duration
	// Cost is the per-call CPU cost model; nil charges nothing.
	Cost *cost.Model
	// Obs is the per-operation observability sink; nil creates a fresh
	// registry at the default sample period (see obs.DefaultSamplePeriod).
	Obs *obs.Registry
}

const defaultLineLockTimeout = 500 * time.Millisecond

// sharded is the volatile sharded map behind the FS's open-file references,
// its one piece of mutex-guarded "shared DRAM" state (per-directory state,
// which lookups read, lives in the load-only dirTable; locks live in NVMM,
// as line busy bits and inode lock words). Shards are selected by key, and
// every shard counts how many lock acquisitions found the shard already
// held so Stats() can expose contention per map.
type sharded[V any] struct {
	name   string
	shards []shardOf[V]
	mask   uint64 // len(shards)-1
}

// mapShards is the shard count of every volatile sharded map (a power of
// two).
const mapShards = 64

// shardOf is one mutex-protected slice of a sharded map. The contention
// counters are plain words mutated only while holding mu, so counting
// costs no extra atomics on the hot path; stats() takes each shard's lock
// to read them. The trailing pad makes a shard one cache line, so adjacent
// shards never share one (they would otherwise false-share under exactly
// the load the counters are meant to measure: inodes are 128 bytes apart,
// so files created back to back land in adjacent shards).
type shardOf[V any] struct {
	mu        sync.Mutex
	m         map[pmem.Ptr]V
	gets      uint64
	contended uint64
	_         [32]byte
}

func newSharded[V any](name string) sharded[V] {
	s := sharded[V]{name: name, shards: make([]shardOf[V], mapShards), mask: mapShards - 1}
	for i := range s.shards {
		s.shards[i].m = make(map[pmem.Ptr]V)
	}
	return s
}

func (s *sharded[V]) shard(key pmem.Ptr) *shardOf[V] {
	return &s.shards[uint64(key)>>7&s.mask]
}

// lock acquires the shard mutex, counting acquisitions that had to wait.
func (sh *shardOf[V]) lock() {
	if sh.mu.TryLock() {
		sh.gets++
		return
	}
	sh.mu.Lock()
	sh.gets++
	sh.contended++
}

// update runs f on key's entry under the shard lock. f receives the current
// value (zero V when absent) and returns the new value plus whether to keep
// the entry; returning false removes it.
func (s *sharded[V]) update(key pmem.Ptr, f func(v V, ok bool) (V, bool)) {
	sh := s.shard(key)
	sh.lock()
	v, ok := sh.m[key]
	nv, keep := f(v, ok)
	if keep {
		sh.m[key] = nv
	} else if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// stats sums the shard counters into one named contention report.
func (s *sharded[V]) stats() obs.ShardStat {
	st := obs.ShardStat{Name: s.name}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Gets += sh.gets
		st.Contended += sh.contended
		sh.mu.Unlock()
	}
	return st
}

// refEntry tracks open-file references of one inode ("shared DRAM" state):
// POSIX keeps an unlinked inode alive while descriptors reference it, so
// the final close — not the unlink — frees orphaned inodes.
type refEntry struct {
	refs   int
	orphan bool
}

// FS is a mounted Simurgh volume. All attached clients (processes) share it.
type FS struct {
	dev   *pmem.Device
	ba    *alloc.BlockAlloc
	oa    *alloc.ObjAlloc
	costM *cost.Model

	relaxedWrites bool
	lineTimeout   time.Duration
	// epoch is the mount's epoch (sbEpochOff): the tag of the lock words
	// this mount takes.
	epoch uint64

	// obsR is the per-op observability sink every public operation reports
	// into (never nil on a mounted FS).
	obsR *obs.Registry

	dirs dirTable // see dirindex.go
	open sharded[refEntry]

	// recoveryMu serializes concurrent waiter-initiated line recoveries.
	recoveryMu sync.Mutex
	// recStats, when set, collects fixes performed by index builds during
	// the mount-time recovery scan.
	recStats atomic.Pointer[RecoveryStats]

	rootInode pmem.Ptr
}

func classConfigs() []alloc.ClassConfig {
	mk := func(class int, size, segBlocks uint64) alloc.ClassConfig {
		return alloc.ClassConfig{
			ObjSize:   size,
			SegBlocks: segBlocks,
			HeadOff:   sbClassHeadOff + uint64(class)*8,
		}
	}
	return []alloc.ClassConfig{
		mk(ClassInode, InodeSize, 8),
		mk(ClassDirBlock, DirBlockSize, 16),
		mk(ClassFileEntry, FileEntrySize, 8),
		mk(ClassExtent, ExtentSize, 8),
		mk(ClassBlob, BlobSize, 8),
	}
}

func newFS(dev *pmem.Device, opts Options) (*FS, error) {
	if opts.LineLockTimeout == 0 {
		opts.LineLockTimeout = defaultLineLockTimeout
	}
	nBlocks := dev.Size()/BlockSize - 1
	if nBlocks < 16 {
		return nil, fmt.Errorf("core: device too small (%d bytes)", dev.Size())
	}
	// Segment and shard counts follow the paper's "twice the number of
	// cores".
	ba := alloc.NewBlockAlloc(dev, BlockSize, 1, nBlocks, 2*runtime.NumCPU())
	oa, err := alloc.NewObjAlloc(dev, ba, classConfigs(), 2*runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	obsR := opts.Obs
	if obsR == nil {
		obsR = obs.NewRegistry()
	}
	dev.SetFenceObserver(obsR)
	ba.SetStealHook(func() { obsR.Event(obs.EvSegLockSteal) })
	fs := &FS{
		dev:           dev,
		ba:            ba,
		oa:            oa,
		costM:         opts.Cost,
		relaxedWrites: opts.RelaxedWrites,
		lineTimeout:   opts.LineLockTimeout,
		obsR:          obsR,
		dirs:          newDirTable(dev.Size()),
		open:          newSharded[refEntry]("refs"),
	}
	return fs, nil
}

// incRef registers an open descriptor on the inode. It fails if the inode
// was freed between the lock-free lookup and the open.
func (fs *FS) incRef(ino pmem.Ptr) error {
	var err error
	fs.open.update(ino, func(e refEntry, ok bool) (refEntry, bool) {
		if fs.oa.Flags(ino)&alloc.FlagValid == 0 {
			err = fsapi.ErrNotExist
			return e, ok
		}
		e.refs++
		return e, true
	})
	return err
}

// decRef drops one open reference; the last close of an orphaned (fully
// unlinked) inode frees it.
func (fs *FS) decRef(ino pmem.Ptr) {
	var free bool
	fs.open.update(ino, func(e refEntry, ok bool) (refEntry, bool) {
		e.refs--
		if e.refs <= 0 {
			free = e.orphan
			return e, false
		}
		return e, true
	})
	if free {
		fs.freeInode(ino)
	}
}

// releaseOrOrphan is called when the link count reaches zero: the inode is
// freed immediately unless descriptors still reference it.
func (fs *FS) releaseOrOrphan(ino pmem.Ptr) {
	free := true
	fs.open.update(ino, func(e refEntry, ok bool) (refEntry, bool) {
		if ok && e.refs > 0 {
			e.orphan = true
			free = false
			return e, true
		}
		return e, ok
	})
	if free {
		fs.freeInode(ino)
	}
}

// Format initializes dev with an empty Simurgh file system owned by cred.
func Format(dev *pmem.Device, cred fsapi.Cred, opts Options) (*FS, error) {
	dev.Zero(0, BlockSize) // superblock area
	fs, err := newFS(dev, opts)
	if err != nil {
		return nil, err
	}
	d := dev
	d.Store64(sbSizeOff, dev.Size())
	d.Store64(sbBlockSizeOff, BlockSize)
	d.Store64(sbVersionOff, sbVersion)
	d.Store64(sbEpochOff, 1)
	d.Persist(0, BlockSize)
	fs.epoch = 1

	// Root inode + first directory block.
	root, err := fs.newInode(cred, fsapi.ModeDir|0o755, 0)
	if err != nil {
		return nil, err
	}
	first, err := fs.oa.Alloc(ClassDirBlock, 0)
	if err != nil {
		return nil, err
	}
	fs.oa.ClearDirty(first)
	d.AtomicStore64(uint64(root)+inoDataOff, uint64(first))
	d.AtomicStore32(uint64(root)+inoNlinkOff, 2)
	d.Persist(uint64(root), InodeSize)
	fs.oa.ClearDirty(root)

	d.Store64(sbRootInodeOff, uint64(root))
	d.Store64(sbCleanOff, 1)
	d.Store64(sbMagicOff, sbMagic)
	d.Persist(0, BlockSize)
	fs.rootInode = root
	// Mark the volume as in use.
	d.Store64(sbCleanOff, 0)
	d.Persist(sbCleanOff, 8)
	return fs, nil
}

// Mount opens an existing volume. If the previous shutdown was unclean, the
// full mark-and-sweep recovery runs first; in all cases the volatile
// allocator state is rebuilt by scanning the persistent structures, exactly
// as §4.3 describes for initialization.
func Mount(dev *pmem.Device, opts Options) (*FS, *RecoveryStats, error) {
	if dev.Load64(sbMagicOff) != sbMagic {
		return nil, nil, fmt.Errorf("core: not a Simurgh volume")
	}
	if dev.Load64(sbVersionOff) != sbVersion {
		return nil, nil, fmt.Errorf("core: unsupported version %d", dev.Load64(sbVersionOff))
	}
	fs, err := newFS(dev, opts)
	if err != nil {
		return nil, nil, err
	}
	fs.rootInode = pmem.Ptr(dev.Load64(sbRootInodeOff))
	clean := dev.Load64(sbCleanOff) == 1
	stats, err := fs.recoverAll(!clean)
	if err != nil {
		return nil, nil, err
	}
	// A new epoch frees every lock word an earlier mount left held. It
	// shares the clean mark's line, so the one flush makes both durable.
	fs.epoch = dev.AtomicAdd64(sbEpochOff, 1)
	dev.Store64(sbCleanOff, 0)
	dev.Persist(sbCleanOff, 8)
	return fs, stats, nil
}

// Unmount marks the volume cleanly shut down.
func (fs *FS) Unmount() {
	fs.dev.Store64(sbCleanOff, 1)
	fs.dev.Persist(sbCleanOff, 8)
}

// Device returns the underlying NVMM device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// FreeBlocks reports the allocator's free data blocks.
func (fs *FS) FreeBlocks() uint64 { return fs.ba.FreeBlocks() }

// Obs returns the FS's observability registry (for sample-period and trace
// control; never nil).
func (fs *FS) Obs() *obs.Registry { return fs.obsR }

// Stats snapshots the per-operation observability counters together with
// volatile-shard contention, the device-global NVMM traffic totals, and
// point-in-time subsystem gauges (block-segment occupancy, slab flag
// counts, device levels). Snapshots are plain values; diff two with Sub to
// scope them to a window. The gauges walk the slab chains, so Stats
// belongs on polling paths, not inside operations.
func (fs *FS) Stats() obs.Snapshot {
	s := fs.obsR.Snapshot()
	s.Shards = []obs.ShardStat{fs.open.stats()}
	s.Device = toDelta(fs.dev.StatsSnapshot())
	s.Gauges = fs.gauges()
	return s
}

var className = [numClasses]string{
	ClassInode: "inode", ClassDirBlock: "dirblock", ClassFileEntry: "fentry",
	ClassExtent: "extent", ClassBlob: "blob",
}

// gauges assembles the subsystem levels: block-allocator occupancy
// (aggregate plus the worst-occupied segment), per-class slab flag counts,
// segment-lock steals, and device levels.
func (fs *FS) gauges() []obs.Gauge {
	g := make([]obs.Gauge, 0, 8+6*numClasses)
	_, nBlocks := fs.ba.Range()
	segs := fs.ba.SegStats()
	var free, minFree uint64
	minFree = ^uint64(0)
	for _, seg := range segs {
		free += seg.Free
		if seg.Free < minFree {
			minFree = seg.Free
		}
	}
	g = append(g,
		obs.Gauge{Name: "alloc.blocks_total", Value: nBlocks},
		obs.Gauge{Name: "alloc.blocks_free", Value: free},
		obs.Gauge{Name: "alloc.segments", Value: uint64(len(segs))},
		obs.Gauge{Name: "alloc.seg_min_free_blocks", Value: minFree},
		obs.Gauge{Name: "alloc.seg_lock_steals", Value: fs.ba.Steals()},
	)
	for class := 0; class < numClasses; class++ {
		st := fs.oa.ClassStats(class)
		p := "slab." + className[class] + "."
		g = append(g,
			obs.Gauge{Name: p + "segments", Value: st.Segments},
			obs.Gauge{Name: p + "objects", Value: st.Objects},
			obs.Gauge{Name: p + "valid", Value: st.Valid},
			obs.Gauge{Name: p + "dirty", Value: st.Dirty},
			obs.Gauge{Name: p + "free", Value: st.Free},
			obs.Gauge{Name: p + "free_listed", Value: st.FreeListed},
		)
	}
	for _, dg := range fs.dev.Gauges() {
		g = append(g, obs.Gauge{Name: "pmem." + dg.Name, Value: dg.Value})
	}
	return g
}

// toDelta converts a device stats snapshot into the obs traffic type.
func toDelta(s pmem.StatsSnapshot) obs.Delta {
	return obs.Delta{
		LoadBytes:  s.LoadBytes,
		StoreBytes: s.StoreBytes,
		NTBytes:    s.NTBytes,
		Flushes:    s.Flushes,
		Fences:     s.Fences,
	}
}

// lockSlow is the one timed busy-wait behind every lock in NVMM: a
// directory line's busy bit and a file's lock word. take returns what the
// word becomes when the caller takes it from old, and whether old lets it.
// Each time the holder outlasts the timeout, expired acts on the presumed
// dead holder: it recovers a line, or reports true (force) to take a file
// lock over.
func (fs *FS) lockSlow(off uint64, class obs.LockClass, take func(old uint64, force bool) (uint64, bool), expired func() bool) {
	start := time.Now()
	deadline := start.Add(fs.lineTimeout)
	for spins := 0; ; spins++ {
		old := fs.dev.AtomicLoad64(off)
		nw, ok := take(old, false)
		if !ok && spins&0x3f == 0x3f {
			runtime.Gosched()
			if time.Now().After(deadline) {
				nw, ok = take(old, expired())
				deadline = time.Now().Add(fs.lineTimeout)
			}
		}
		if ok && fs.dev.CompareAndSwap64(off, old, nw) {
			ns := uint64(time.Since(start).Nanoseconds())
			fs.obsR.LockWait(class, ns)
			fs.obsR.Span(obs.SpanLockWait, 0, start, ns, false)
			return
		}
	}
}

// A file's lock word (inoLockOff) holds a writer bit and a reader count in
// its low half and, in its high half, the epoch of the mount that took it:
// a word from an earlier mount, left held by a crash or copied held into a
// snapshot, is free. A waiter that takes a dead holder's word over repairs
// nothing: a write fences its data before its size, and the zero mark
// before a growth, so every state a holder dies in is one a reader may see.
const fileWriter = 1 << 31

// holders returns the writer bit and reader count w holds in this mount.
func (fs *FS) holders(w uint64) uint64 {
	if w>>32 != fs.epoch {
		return 0
	}
	return w & (fileWriter<<1 - 1)
}

func (fs *FS) takeWriter(old uint64, force bool) (uint64, bool) {
	return fs.epoch<<32 | fileWriter, force || fs.holders(old) == 0
}

func (fs *FS) takeReader(old uint64, force bool) (uint64, bool) {
	h := fs.holders(old)
	if force {
		h = 0
	}
	return fs.epoch<<32 | (h + 1), h&fileWriter == 0
}

func (fs *FS) fileLockExpired() bool {
	fs.obsR.Event(obs.EvFileLockTimeout)
	return true
}

// lockFile takes ino's lock exclusively: uncontended, one load and one CAS.
func (fs *FS) lockFile(ino pmem.Ptr) {
	off := uint64(ino) + inoLockOff
	old := fs.dev.AtomicLoad64(off)
	if nw, ok := fs.takeWriter(old, false); !ok || !fs.dev.CompareAndSwap64(off, old, nw) {
		fs.lockSlow(off, obs.LockFile, fs.takeWriter, fs.fileLockExpired)
	}
}

// rlockFile takes ino's lock shared. A CAS lost to another reader is no
// wait: it is retried.
func (fs *FS) rlockFile(ino pmem.Ptr) {
	off := uint64(ino) + inoLockOff
	for {
		old := fs.dev.AtomicLoad64(off)
		if nw, ok := fs.takeReader(old, false); !ok {
			fs.lockSlow(off, obs.LockFile, fs.takeReader, fs.fileLockExpired)
			return
		} else if fs.dev.CompareAndSwap64(off, old, nw) {
			return
		}
	}
}

// unlockFile and runlockFile release a hold, unless a waiter took it over.
// Holders call them directly, not deferred: an operation stopped at a fence
// is a process death, and must leave its word held as a dead process does.
func (fs *FS) unlockFile(ino pmem.Ptr) {
	fs.dev.AtomicAnd64(uint64(ino)+inoLockOff, ^uint64(fileWriter))
}

func (fs *FS) runlockFile(ino pmem.Ptr) {
	off := uint64(ino) + inoLockOff
	for {
		old := fs.dev.AtomicLoad64(off)
		if fs.holders(old)&^fileWriter == 0 || fs.dev.CompareAndSwap64(off, old, old-1) {
			return
		}
	}
}

// newInode allocates and fills an inode (valid|dirty until the caller
// commits). nlink starts at 1 for files, set by the caller for dirs.
func (fs *FS) newInode(cred fsapi.Cred, mode uint32, hint uint64) (pmem.Ptr, error) {
	ino, err := fs.oa.Alloc(ClassInode, hint)
	if err != nil {
		return 0, err
	}
	d := fs.dev
	now := time.Now().UnixNano()
	// Size, data and block count start at zero, as every free object's body
	// does. The stores are atomic because a walk that resolved the inode's
	// previous incarnation may still be reading it.
	d.AtomicStore32(uint64(ino)+inoModeOff, mode)
	d.AtomicStore32(uint64(ino)+inoUIDOff, cred.UID)
	d.AtomicStore32(uint64(ino)+inoGIDOff, cred.GID)
	d.AtomicStore32(uint64(ino)+inoNlinkOff, 1)
	d.AtomicStore64(uint64(ino)+inoAtimeOff, uint64(now))
	d.AtomicStore64(uint64(ino)+inoMtimeOff, uint64(now))
	d.AtomicStore64(uint64(ino)+inoCtimeOff, uint64(now))
	d.Persist(uint64(ino), InodeSize)
	return ino, nil
}

// inode field helpers.

func (fs *FS) inoMode(ino pmem.Ptr) uint32  { return fs.dev.AtomicLoad32(uint64(ino) + inoModeOff) }
func (fs *FS) inoUID(ino pmem.Ptr) uint32   { return fs.dev.AtomicLoad32(uint64(ino) + inoUIDOff) }
func (fs *FS) inoGID(ino pmem.Ptr) uint32   { return fs.dev.AtomicLoad32(uint64(ino) + inoGIDOff) }
func (fs *FS) inoNlink(ino pmem.Ptr) uint32 { return fs.dev.AtomicLoad32(uint64(ino) + inoNlinkOff) }
func (fs *FS) inoSize(ino pmem.Ptr) uint64  { return fs.dev.AtomicLoad64(uint64(ino) + inoSizeOff) }
func (fs *FS) inoData(ino pmem.Ptr) pmem.Ptr {
	return pmem.Ptr(fs.dev.AtomicLoad64(uint64(ino) + inoDataOff))
}

func (fs *FS) setNlink(ino pmem.Ptr, n uint32) {
	fs.dev.AtomicStore32(uint64(ino)+inoNlinkOff, n)
	fs.dev.Persist(uint64(ino)+inoNlinkOff, 4)
}

func (fs *FS) touchMtime(ino pmem.Ptr) {
	now := uint64(time.Now().UnixNano())
	fs.dev.AtomicStore64(uint64(ino)+inoMtimeOff, now)
	fs.dev.AtomicStore64(uint64(ino)+inoCtimeOff, now)
	fs.dev.Persist(uint64(ino)+inoMtimeOff, 16)
}

// touchMtimeLazy flushes the time update without a fence; the caller's next
// fence commits it (timestamps need no ordering guarantee).
func (fs *FS) touchMtimeLazy(ino pmem.Ptr) {
	now := uint64(time.Now().UnixNano())
	fs.dev.AtomicStore64(uint64(ino)+inoMtimeOff, now)
	fs.dev.AtomicStore64(uint64(ino)+inoCtimeOff, now)
	fs.dev.Flush(uint64(ino)+inoMtimeOff, 16)
}

// statOf builds a Stat from an inode.
func (fs *FS) statOf(ino pmem.Ptr) fsapi.Stat {
	d := fs.dev
	return fsapi.Stat{
		Ino:   uint64(ino),
		Mode:  fs.inoMode(ino),
		UID:   fs.inoUID(ino),
		GID:   fs.inoGID(ino),
		Nlink: fs.inoNlink(ino),
		Size:  fs.inoSize(ino),
		Atime: int64(d.AtomicLoad64(uint64(ino) + inoAtimeOff)),
		Mtime: int64(d.AtomicLoad64(uint64(ino) + inoMtimeOff)),
		Ctime: int64(d.AtomicLoad64(uint64(ino) + inoCtimeOff)),
	}
}
