package core

import (
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/alloc"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Volatile per-directory index ("shared DRAM" state, like the allocators):
// for each hash line it maps full 64-bit name hashes to slot offsets and
// keeps the line's free slots, so directory operations are O(1) in the
// directory size instead of rescanning the persistent chain. The paper's
// linear hash maps have the same complexity natively; here the persistent
// layout (Figure 4) and all crash protocols (Figure 5) are unchanged — the
// index is derived data, rebuilt from NVMM on first access after a mount or
// a recovery, and every mutation happens under the same per-line busy lock
// that guards the persistent slot.
//
// Readers only load. A lookup finds the directory's state in dirTable,
// probes the line's table for candidate slots and verifies each against
// NVMM; the line's sequence counter tells it whether a writer held the line
// at any point in between (see lookupEntry). Everything a writer touches —
// the counter aside — sits behind the line's mutex.

// dirTable maps a directory, named by its first hash block, to its volatile
// state. It is a two-level array indexed by first/DirBlockSize: directory
// blocks are DirBlockSize-byte slab objects, so no two of them start within
// the same DirBlockSize-aligned window. get is two loads; cells are
// installed and cleared with single atomic stores, so a reader racing drop
// keeps the (garbage-collected) state it already holds and finds nothing in
// it that NVMM does not confirm.
type dirTable struct {
	top []atomic.Pointer[dirLeaf]
}

const dirLeafBits = 9

type dirLeaf [1 << dirLeafBits]atomic.Pointer[dirState]

func newDirTable(devSize uint64) dirTable {
	return dirTable{top: make([]atomic.Pointer[dirLeaf], devSize/DirBlockSize>>dirLeafBits+1)}
}

func (t *dirTable) get(first pmem.Ptr) *dirState {
	i := uint64(first) / DirBlockSize
	leaf := t.top[i>>dirLeafBits].Load()
	if leaf == nil {
		return nil
	}
	return leaf[i&(1<<dirLeafBits-1)].Load()
}

func (t *dirTable) getOrCreate(first pmem.Ptr) *dirState {
	i := uint64(first) / DirBlockSize
	top := &t.top[i>>dirLeafBits]
	leaf := top.Load()
	for leaf == nil {
		top.CompareAndSwap(nil, new(dirLeaf))
		leaf = top.Load()
	}
	cell := &leaf[i&(1<<dirLeafBits-1)]
	for {
		if ds := cell.Load(); ds != nil {
			return ds
		}
		cell.CompareAndSwap(nil, new(dirState))
	}
}

// drop forgets a directory's state: when the directory is removed (its
// blocks go back to the allocator, and the next directory to get one must
// not inherit this index), and when recovery repairs the persistent chain
// behind the index's back.
func (t *dirTable) drop(first pmem.Ptr) {
	i := uint64(first) / DirBlockSize
	if leaf := t.top[i>>dirLeafBits].Load(); leaf != nil {
		leaf[i&(1<<dirLeafBits-1)].Store(nil)
	}
}

// dirState is the volatile per-directory coordination state: the per-line
// index plus what serializes building it and extending the chain. The
// persistent chain itself remains the single source of truth.
type dirState struct {
	lines    [NLines]dirLine
	built    atomic.Bool
	buildMu  sync.Mutex
	extendMu sync.Mutex
	blocks   []pmem.Ptr
}

// dirLine is the volatile state of one hash line. Readers load seq and tab
// and nothing else. Its fields end within 72 bytes of a 128-byte struct, so
// wherever the allocator puts the array (it promises 8-byte alignment only),
// no two lines' fields share a cache line: a writer on line k never
// invalidates what readers of line k±1 have cached. TestDirLineLayout checks.
type dirLine struct {
	// seq counts acquisitions and releases of the line's busy bit: lockLine
	// bumps it after setting the bit, unlockLine before clearing it. A lookup
	// that reads the same value before and after overlapped at most one
	// critical section, and none at all if it also found the bit clear.
	seq atomic.Uint64
	tab atomic.Pointer[lineTable]

	// Writer side. The busy bit already serializes the table's writers; mu
	// is for the free list, which chain extension feeds on every line at once.
	mu   sync.Mutex
	live uint32 // cells holding an entry
	used uint32 // live + tombstones
	free []uint64
	_    [72]byte
}

// lineTable is an open-addressed (linear probing) table of fixed capacity, a
// power of two. A line replaces its table when it fills up; the old one is
// never written again, so a reader holding it still sees a consistent (if
// dated) snapshot.
type lineTable struct {
	shift uint8 // 64 - log2(len(cells))
	cells []lineCell
}

// lineCell pairs a name hash with the slot of an entry carrying it. key is
// cellEmpty in a never-used cell (probes stop there) and cellTomb in a
// vacated one (probes go on). An insert stores slot before key, so a reader
// that matched key loads a slot of this line — the right one unless the cell
// was reused meanwhile, which NVMM verification sorts out like any other
// stale candidate.
type lineCell struct {
	key  atomic.Uint64
	slot atomic.Uint64
}

const (
	cellEmpty   = 0
	cellTomb    = 1
	minLineCap  = 8
	fibonacci64 = 0x9E3779B97F4A7C15
)

func newLineTable(capacity int) *lineTable {
	t := &lineTable{shift: 64, cells: make([]lineCell, capacity)}
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
	return t
}

// pos is the probe start of key: the high bits of a multiplicative hash, as
// FNV's low bits are what already selected the line.
func (t *lineTable) pos(key uint64) uint64 { return key * fibonacci64 >> t.shift }

// put stores (key, slot) in the first reusable cell of key's probe sequence
// and reports whether that cell had never been used.
func (t *lineTable) put(key, slot uint64) (fresh bool) {
	mask := uint64(len(t.cells) - 1)
	for i := t.pos(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if k := c.key.Load(); k == cellEmpty || k == cellTomb {
			c.slot.Store(slot)
			c.key.Store(key)
			return k == cellEmpty
		}
	}
}

// find returns the cell holding (key, slot), or nil.
func (t *lineTable) find(key, slot uint64) *lineCell {
	mask := uint64(len(t.cells) - 1)
	for i := t.pos(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		switch c.key.Load() {
		case cellEmpty:
			return nil
		case key:
			if c.slot.Load() == slot {
				return c
			}
		}
	}
}

// cellKey maps a name hash into the key space (two values are reserved).
func cellKey(h uint64) uint64 {
	if h <= cellTomb {
		return h + 2
	}
	return h
}

// add indexes slot under name hash h. Amortized O(1): the table is rebuilt,
// at twice the live population, only when three quarters of it are used up.
func (l *dirLine) add(h uint64, slot uint64) {
	l.mu.Lock()
	t := l.tab.Load()
	if t == nil || (l.used+1)*4 > uint32(len(t.cells))*3 {
		capacity := minLineCap
		for uint32(capacity) < (l.live+1)*2 {
			capacity <<= 1
		}
		nt := newLineTable(capacity)
		if t != nil {
			for i := range t.cells {
				if k := t.cells[i].key.Load(); k > cellTomb {
					nt.put(k, t.cells[i].slot.Load())
				}
			}
		}
		l.used = l.live
		l.tab.Store(nt)
		t = nt
	}
	if t.put(cellKey(h), slot) {
		l.used++
	}
	l.live++
	l.mu.Unlock()
}

func (l *dirLine) remove(h uint64, slot uint64) {
	l.mu.Lock()
	if t := l.tab.Load(); t != nil {
		if c := t.find(cellKey(h), slot); c != nil {
			c.key.Store(cellTomb)
			l.live--
		}
	}
	l.mu.Unlock()
}

// removeSlotAnyHash drops a slot from the index when the entry's name is no
// longer recoverable (the crashed delete already zeroed it).
func (l *dirLine) removeSlotAnyHash(slot uint64) {
	l.mu.Lock()
	if t := l.tab.Load(); t != nil {
		for i := range t.cells {
			c := &t.cells[i]
			if c.key.Load() > cellTomb && c.slot.Load() == slot {
				c.key.Store(cellTomb)
				l.live--
				break
			}
		}
	}
	l.mu.Unlock()
}

// containsSlot reports whether the index already references the slot.
func (l *dirLine) containsSlot(h uint64, slot uint64) bool {
	t := l.tab.Load()
	return t != nil && t.find(cellKey(h), slot) != nil
}

// candidates appends the slots indexed under h to buf (callers pass a small
// stack buffer so the common single-candidate case does not allocate). It is
// the reader side: atomic loads only.
func (l *dirLine) candidates(h uint64, buf []uint64) []uint64 {
	t := l.tab.Load()
	if t == nil {
		return buf
	}
	key, mask := cellKey(h), uint64(len(t.cells)-1)
	for i := t.pos(key); ; i = (i + 1) & mask {
		c := &t.cells[i]
		switch c.key.Load() {
		case cellEmpty:
			return buf
		case key:
			buf = append(buf, c.slot.Load())
		}
	}
}

func (l *dirLine) pushFree(slot uint64) {
	l.mu.Lock()
	l.free = append(l.free, slot)
	l.mu.Unlock()
}

func (l *dirLine) popFree() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == 0 {
		return 0, false
	}
	s := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return s, true
}

// hashName computes both hashes of a name in one pass: FNV-1a 32, which the
// persistent entries store and which selects the line, and FNV-1a 64, the
// index key.
func hashName(name string) (uint32, uint64) {
	h32, h64 := uint32(2166136261), uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h32 = (h32 ^ uint32(name[i])) * 16777619
		h64 = (h64 ^ uint64(name[i])) * 1099511628211
	}
	return h32, h64
}

// fnv64 is the index key hash.
func fnv64(name string) uint64 {
	_, h := hashName(name)
	return h
}

// ensureIndex returns the directory's state with the index built. Once it
// is, that takes three loads.
func (fs *FS) ensureIndex(first pmem.Ptr) *dirState {
	if ds := fs.dirs.get(first); ds != nil && ds.built.Load() {
		return ds
	}
	ds := fs.dirs.getOrCreate(first)
	ds.buildMu.Lock()
	defer ds.buildMu.Unlock()
	if !ds.built.Load() {
		fs.buildIndex(first, ds)
		ds.built.Store(true)
	}
	return ds
}

// buildIndex scans the persistent chain, performing the same idempotent
// repair-on-access fixes a lookup would (completing crashed deletes).
func (fs *FS) buildIndex(first pmem.Ptr, ds *dirState) {
	if fs.obsR.TraceEnabled() {
		defer fs.dirProbeSpan(time.Now())
	}
	d := fs.dev
	ds.blocks = ds.blocks[:0]
	for b := first; !b.IsNull(); b = fs.nextBlock(b) {
		ds.blocks = append(ds.blocks, b)
		for line := 0; line < NLines; line++ {
			for s := 0; s < SlotsPerLine; s++ {
				so := slotOff(b, line, s)
				e := pmem.Ptr(d.AtomicLoad64(so))
				if e.IsNull() {
					ds.lines[line].pushFree(so)
					continue
				}
				flags := fs.oa.Flags(e)
				if flags&alloc.FlagValid == 0 {
					// Crashed delete: finish it and reclaim the slot.
					if d.CompareAndSwap64(so, uint64(e), 0) {
						d.Persist(so, 8)
						if fs.oa.Flags(e) == alloc.FlagDirty {
							fs.freeEntryBody(e)
						}
						if st := fs.recStats.Load(); st != nil {
							st.FixedSlots++
						}
					}
					ds.lines[line].pushFree(so)
					continue
				}
				name := fs.entryName(e)
				ds.lines[line].add(fnv64(name), so)
			}
		}
	}
}

// extendChain appends a fresh hash block to the directory and feeds its
// slots into the free lists. Returns a free slot for the requested line.
func (fs *FS) extendChain(first pmem.Ptr, ds *dirState, line int) (uint64, error) {
	ds.extendMu.Lock()
	defer ds.extendMu.Unlock()
	// Another extender may have refilled the line meanwhile.
	if so, ok := ds.lines[line].popFree(); ok {
		return so, nil
	}
	nb, err := fs.oa.Alloc(ClassDirBlock, uint64(first))
	if err != nil {
		return 0, err
	}
	fs.obsR.Event(obs.EvDirChainExtend)
	fs.oa.ClearDirty(nb)
	last := first
	if n := len(ds.blocks); n > 0 {
		last = ds.blocks[n-1]
	} else {
		for b := fs.nextBlock(last); !b.IsNull(); b = fs.nextBlock(b) {
			last = b
		}
	}
	fs.dev.AtomicStore64(uint64(last)+dirNextOff, uint64(nb))
	fs.dev.Persist(uint64(last)+dirNextOff, 8)
	ds.blocks = append(ds.blocks, nb)
	var out uint64
	for l := 0; l < NLines; l++ {
		for s := 0; s < SlotsPerLine; s++ {
			so := slotOff(nb, l, s)
			if l == line && out == 0 {
				out = so
				continue
			}
			ds.lines[l].pushFree(so)
		}
	}
	return out, nil
}
