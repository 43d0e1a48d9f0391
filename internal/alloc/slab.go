package alloc

import (
	"fmt"
	"sync"

	"simurgh/internal/pmem"
)

// Object flag bits (the first 8 bytes of every metadata object). The
// two-bit valid/dirty protocol of §4.2 makes every allocation state crash-
// recoverable:
//
//	valid=0 dirty=0  free, ready to be allocated
//	valid=1 dirty=1  allocated but the file-system operation using it has
//	                 not completed (reclaimable after a crash)
//	valid=1 dirty=0  live object
//	valid=0 dirty=1  deallocation in progress (zeroing not yet complete)
const (
	FlagValid uint64 = 1 << 0
	FlagDirty uint64 = 1 << 1
)

// BodyOff is the offset of an object's payload past its flags word.
const BodyOff = 8

const (
	segMagic     uint64 = 0x53494d5247534c42 // "SIMRGSLB"
	segHeaderLen uint64 = 64
)

// ClassConfig describes one fixed-size object class.
type ClassConfig struct {
	// ObjSize is the full object size including the flags word; must be a
	// multiple of 8.
	ObjSize uint64
	// SegBlocks is how many blocks each new slab segment spans.
	SegBlocks uint64
	// HeadOff is the device offset (inside the superblock) of the persistent
	// chain-head pointer for this class.
	HeadOff uint64
}

type objShard struct {
	mu   sync.Mutex
	free []pmem.Ptr
}

type classState struct {
	cfg        ClassConfig
	objsPerSeg uint64
	shards     []objShard
	growMu     sync.Mutex
}

// ObjAlloc is the slab-style metadata-object allocator. Free lists are
// volatile and sharded; the persistent truth is each object's flags word and
// the per-class segment chains anchored in the superblock.
type ObjAlloc struct {
	dev     *pmem.Device
	blocks  *BlockAlloc
	classes []*classState
}

// NewObjAlloc creates the allocator. nShards controls free-list sharding
// (the paper uses twice the core count).
func NewObjAlloc(dev *pmem.Device, blocks *BlockAlloc, classes []ClassConfig, nShards int) (*ObjAlloc, error) {
	if nShards < 1 {
		nShards = 1
	}
	a := &ObjAlloc{dev: dev, blocks: blocks}
	for _, cfg := range classes {
		if cfg.ObjSize%8 != 0 || cfg.ObjSize < 16 {
			return nil, fmt.Errorf("alloc: bad object size %d", cfg.ObjSize)
		}
		segBytes := cfg.SegBlocks * blocks.BlockSize()
		cs := &classState{
			cfg:        cfg,
			objsPerSeg: (segBytes - segHeaderLen) / cfg.ObjSize,
			shards:     make([]objShard, nShards),
		}
		if cs.objsPerSeg == 0 {
			return nil, fmt.Errorf("alloc: segment too small for object size %d", cfg.ObjSize)
		}
		a.classes = append(a.classes, cs)
	}
	return a, nil
}

// Load repopulates the volatile free lists from the persistent chains,
// treating every object whose flags are exactly zero as free. Objects in
// intermediate states are left for Sweep.
func (a *ObjAlloc) Load() {
	for id := range a.classes {
		a.scanClass(id, func(ptr pmem.Ptr, flags uint64) {
			if flags == 0 {
				a.pushFree(a.classes[id], ptr)
			}
		})
	}
}

// Alloc claims a zeroed object of the class: the valid and dirty bits are
// set and persisted before it is returned, so a crash can never lose it in
// an untracked state. hint spreads contention across shards.
func (a *ObjAlloc) Alloc(class int, hint uint64) (pmem.Ptr, error) {
	cs := a.classes[class]
	for {
		ptr := a.popFree(cs, hint)
		if ptr.IsNull() {
			if err := a.grow(class, hint); err != nil {
				return 0, err
			}
			continue
		}
		// Claim via CAS on the persistent flags word. The free lists are
		// volatile, so after a crash a stale entry could alias a live
		// object; the CAS is the ground truth. The flush is left unfenced:
		// the caller persists the object body (which includes this line's
		// neighbourhood) before publishing any reference to it.
		if a.dev.CompareAndSwap64(uint64(ptr), 0, FlagValid|FlagDirty) {
			a.dev.Flush(uint64(ptr), 8)
			return ptr, nil
		}
	}
}

// ClearDirty marks the object's pending operation complete.
func (a *ObjAlloc) ClearDirty(ptr pmem.Ptr) {
	a.dev.AtomicAnd64(uint64(ptr), ^FlagDirty)
	a.dev.Persist(uint64(ptr), 8)
}

// ClearDirtyLazy is ClearDirty without the fence: the caller batches one
// fence over several flag clears (a crash before the fence merely leaves
// recoverable dirty bits, never an inconsistency).
func (a *ObjAlloc) ClearDirtyLazy(ptr pmem.Ptr) {
	a.dev.AtomicAnd64(uint64(ptr), ^FlagDirty)
	a.dev.Flush(uint64(ptr), 8)
}

// Flags returns the object's current flag word.
func (a *ObjAlloc) Flags(ptr pmem.Ptr) uint64 { return a.dev.AtomicLoad64(uint64(ptr)) }

// Free releases an object using the crash-safe protocol: set dirty + clear
// valid, zero the body, clear dirty, then recycle.
func (a *ObjAlloc) Free(class int, ptr pmem.Ptr) {
	cs := a.classes[class]
	a.dev.AtomicStore64(uint64(ptr), FlagDirty) // valid off, dirty on
	a.dev.Persist(uint64(ptr), 8)
	// Word-atomic: an optimistic reader may still be looking at the object.
	a.dev.AtomicZero(uint64(ptr)+BodyOff, cs.cfg.ObjSize-BodyOff)
	// The zeroed body must be durable before the dirty bit clears: a free
	// object's body is relied upon to be zero by the next allocation.
	a.dev.Persist(uint64(ptr)+BodyOff, cs.cfg.ObjSize-BodyOff)
	a.dev.AtomicStore64(uint64(ptr), 0)
	a.dev.Persist(uint64(ptr), 8)
	a.pushFree(cs, ptr)
}

// Recycle returns an object whose persistent flags word is already zero
// (e.g. an entry whose deallocation protocol the caller drove directly) to
// the volatile free lists without touching persistent state.
func (a *ObjAlloc) Recycle(class int, ptr pmem.Ptr) { a.pushFree(a.classes[class], ptr) }

// ObjSize returns the configured object size of a class.
func (a *ObjAlloc) ObjSize(class int) uint64 { return a.classes[class].cfg.ObjSize }

func (a *ObjAlloc) pushFree(cs *classState, ptr pmem.Ptr) {
	sh := &cs.shards[uint64(ptr)%uint64(len(cs.shards))]
	sh.mu.Lock()
	sh.free = append(sh.free, ptr)
	sh.mu.Unlock()
}

func (a *ObjAlloc) popFree(cs *classState, hint uint64) pmem.Ptr {
	n := len(cs.shards)
	start := int(hint % uint64(n))
	for i := 0; i < n; i++ {
		sh := &cs.shards[(start+i)%n]
		sh.mu.Lock()
		if len(sh.free) > 0 {
			ptr := sh.free[len(sh.free)-1]
			sh.free = sh.free[:len(sh.free)-1]
			sh.mu.Unlock()
			return ptr
		}
		sh.mu.Unlock()
	}
	return 0
}

// grow links a freshly formatted segment into the class chain. Ordering:
// the segment header (including its next pointer) is persisted before the
// chain head is swung, so a crash leaves either the old chain or the new
// one — never a dangling head. The segment is zeroed with non-temporal
// stores, so formatting it flushes only the header's line, and the one
// fence before the head swings makes both durable.
func (a *ObjAlloc) grow(class int, hint uint64) error {
	cs := a.classes[class]
	cs.growMu.Lock()
	defer cs.growMu.Unlock()
	// Another goroutine may have grown while we waited.
	if ptr := a.popFree(cs, hint); !ptr.IsNull() {
		a.pushFree(cs, ptr)
		return nil
	}
	block, err := a.blocks.Alloc(cs.cfg.SegBlocks, hint)
	if err != nil {
		return err
	}
	segOff := a.blocks.Off(block)
	segBytes := cs.cfg.SegBlocks * a.blocks.BlockSize()
	a.dev.NTZero(segOff, segBytes)
	for {
		head := a.dev.AtomicLoad64(cs.cfg.HeadOff)
		a.dev.Store64(segOff, segMagic)
		a.dev.Store64(segOff+8, head)
		a.dev.Store64(segOff+16, cs.cfg.ObjSize)
		a.dev.Store64(segOff+24, cs.objsPerSeg)
		a.dev.Flush(segOff, segHeaderLen)
		a.dev.Fence()
		if a.dev.CompareAndSwap64(cs.cfg.HeadOff, head, segOff) {
			a.dev.Persist(cs.cfg.HeadOff, 8)
			break
		}
	}
	for i := uint64(0); i < cs.objsPerSeg; i++ {
		a.pushFree(cs, pmem.Ptr(segOff+segHeaderLen+i*cs.cfg.ObjSize))
	}
	return nil
}

// scanClass walks the persistent segment chain of a class.
func (a *ObjAlloc) scanClass(class int, fn func(ptr pmem.Ptr, flags uint64)) {
	cs := a.classes[class]
	seg := a.dev.AtomicLoad64(cs.cfg.HeadOff)
	for seg != 0 {
		if a.dev.Load64(seg) != segMagic {
			panic(fmt.Sprintf("alloc: corrupt slab segment at %#x", seg))
		}
		for i := uint64(0); i < cs.objsPerSeg; i++ {
			ptr := pmem.Ptr(seg + segHeaderLen + i*cs.cfg.ObjSize)
			fn(ptr, a.dev.AtomicLoad64(uint64(ptr)))
		}
		seg = a.dev.Load64(seg + 8)
	}
}

// Scan exposes the persistent chain walk for recovery.
func (a *ObjAlloc) Scan(class int, fn func(ptr pmem.Ptr, flags uint64)) {
	a.scanClass(class, fn)
}

// SweepStats summarizes a recovery sweep of one class.
type SweepStats struct {
	Live      uint64 // valid, clean, referenced
	Reclaimed uint64 // allocated-but-dirty or unreferenced: freed
	Completed uint64 // half-deallocated objects whose free was finished
	Free      uint64
}

// Sweep performs the §4.2 crash-recovery pass over one class: objects whose
// operation never completed (valid+dirty) or that are unreferenced are
// reclaimed; interrupted deallocations (dirty only) are completed; free
// objects repopulate the volatile lists. inUse reports whether the
// mark phase found the object reachable.
func (a *ObjAlloc) Sweep(class int, inUse func(pmem.Ptr) bool) SweepStats {
	var st SweepStats
	cs := a.classes[class]
	a.scanClass(class, func(ptr pmem.Ptr, flags uint64) {
		valid := flags&FlagValid != 0
		dirty := flags&FlagDirty != 0
		switch {
		case valid && !dirty && inUse(ptr):
			st.Live++
		case flags == 0:
			st.Free++
			a.pushFree(cs, ptr)
		case !valid && dirty:
			// Deallocation was interrupted: finish zeroing and free.
			a.dev.AtomicZero(uint64(ptr)+BodyOff, cs.cfg.ObjSize-BodyOff)
			a.dev.Persist(uint64(ptr)+BodyOff, cs.cfg.ObjSize-BodyOff)
			a.dev.AtomicStore64(uint64(ptr), 0)
			a.dev.Persist(uint64(ptr), 8)
			st.Completed++
			a.pushFree(cs, ptr)
		default:
			// Allocated but never committed, or committed but unreachable.
			a.Free(class, ptr)
			st.Reclaimed++
		}
	})
	return st
}

// UsedSegments reports, for every class, the block ranges its persistent
// segment chain occupies; recovery uses this to rebuild the block allocator.
func (a *ObjAlloc) UsedSegments(mark func(block, n uint64)) {
	for _, cs := range a.classes {
		seg := a.dev.Load64(cs.cfg.HeadOff)
		for seg != 0 {
			mark(a.blocks.Block(seg), cs.cfg.SegBlocks)
			seg = a.dev.Load64(seg + 8)
		}
	}
}
