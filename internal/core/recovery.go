package core

import (
	"math/bits"
	"time"

	"simurgh/internal/alloc"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Crash recovery (§4.3, §5.5). Two mechanisms exist, both decentralized:
//
//   - Process-crash recovery: a process that busy-waits on a directory line
//     lock longer than the threshold assumes the holder died and repairs the
//     line itself, using only the persistent flag states — every
//     (flags, operation) combination maps to a unique recovery decision.
//
//   - Full-system recovery: an unclean mount runs a mark-and-sweep over all
//     metadata objects and data blocks, completing or rolling back
//     half-finished operations, reclaiming leaked objects, and rebuilding
//     the volatile allocator state.

// RecoveryStats reports what a mount-time recovery found and did.
type RecoveryStats struct {
	Dirs          uint64
	Files         uint64
	Symlinks      uint64
	DirBlocks     uint64
	UsedDataBlock uint64
	FixedSlots    uint64 // stale slot pointers completed (crashed deletes)
	FixedCreates  uint64 // dirty create pairs committed
	FixedRenames  uint64 // same-dir renames completed via hash mismatch
	FixedLogs     uint64 // cross-directory rename logs rolled forward/back
	FixedLinks    uint64 // link counts set to the number of entries naming the inode
	Reclaimed     uint64 // leaked objects returned to the allocator
	Elapsed       time.Duration
	WasClean      bool
}

// recoverStuckLine is the waiter-side recovery: called after a line lock
// timed out. It repairs every recoverable state in the line and then clears
// the busy bit on behalf of the dead holder.
func (fs *FS) recoverStuckLine(first pmem.Ptr, line int) {
	fs.recoveryMu.Lock()
	defer fs.recoveryMu.Unlock()
	fs.recoverLineLocked(first, line)
}

// recoverLineLocked is recoverStuckLine for a caller that holds recoveryMu
// already: a recovery that finds the dead holder also held a second line.
func (fs *FS) recoverLineLocked(first pmem.Ptr, line int) {
	bit := uint64(1) << uint(line)
	if fs.dev.AtomicLoad64(uint64(first)+dirBusyOff)&bit == 0 {
		fs.obsR.Event(obs.EvWaiterRecoveryNoop)
		return // holder released while we waited for the recovery mutex
	}
	fs.obsR.Event(obs.EvWaiterRecovery)
	start := time.Now()
	fs.repairLine(first, line, nil)
	if fs.dev.AtomicLoad64(uint64(first)+dirMetaOff)&dirLogDirtyBit != 0 {
		fs.recoverRenameLog(first, nil)
	}
	fs.unlockLine(first, line)
	fs.obsR.Span(obs.SpanRecovery, 0, start, uint64(time.Since(start).Nanoseconds()), false)
}

// repairLine walks one line and fixes every half-done operation it finds,
// keeping the volatile index in sync.
func (fs *FS) repairLine(first pmem.Ptr, line int, st *RecoveryStats) {
	d := fs.dev
	ds := fs.ensureIndex(first)
	for b := first; !b.IsNull(); b = fs.nextBlock(b) {
		for s := 0; s < SlotsPerLine; s++ {
			so := slotOff(b, line, s)
			e := pmem.Ptr(d.AtomicLoad64(so))
			if e.IsNull() {
				continue
			}
			flags := fs.oa.Flags(e)
			switch {
			case flags == 0, flags == alloc.FlagDirty:
				// Crashed delete: finish it.
				if d.CompareAndSwap64(so, uint64(e), 0) {
					d.Persist(so, 8)
					if fs.oa.Flags(e) == alloc.FlagDirty {
						fs.freeEntryBody(e)
					}
					ds.lines[line].removeSlotAnyHash(so)
					ds.lines[line].pushFree(so)
					if st != nil {
						st.FixedSlots++
					}
				}
			case flags&alloc.FlagValid != 0:
				hash := d.AtomicLoad32(uint64(e) + feHashOff)
				if lineOf(hash) != line {
					// Hash mismatch: a same-directory rename got as far as
					// swinging the old slot to the shadow entry (Fig 5c
					// step 5) but crashed before placing it in its proper
					// line. Complete the move.
					fs.completeRenameMove(first, ds, line, so, e, st)
					continue
				}
				// Create reached the slot store but not the dirty clears:
				// commit it. The two clears share one fence, so a torn
				// crash can keep the entry's and lose the inode's.
				ino := pmem.Ptr(d.AtomicLoad64(uint64(e) + feInodeOff))
				inoDirty := fs.plausible(ino, InodeSize) && fs.oa.Flags(ino) == alloc.FlagValid|alloc.FlagDirty
				if flags&alloc.FlagDirty != 0 || inoDirty {
					if inoDirty {
						fs.oa.ClearDirty(ino)
					}
					if flags&alloc.FlagDirty != 0 {
						fs.oa.ClearDirty(e)
					}
					if st != nil {
						st.FixedCreates++
					}
				}
				// Index every live entry: a lookup may already have
				// committed the dead holder's create without indexing it.
				if h := fnv64(fs.entryName(e)); !ds.lines[line].containsSlot(h, so) {
					ds.lines[line].add(h, so)
				}
			}
		}
	}
}

// completeRenameMove finishes a same-dir rename: entry e sits in a slot of
// the wrong line (srcLine); move it to the line its hash selects.
func (fs *FS) completeRenameMove(first pmem.Ptr, ds *dirState, srcLine int, srcSlot uint64, e pmem.Ptr, st *RecoveryStats) {
	d := fs.dev
	hash := d.AtomicLoad32(uint64(e) + feHashOff)
	target := lineOf(hash)
	name := fs.entryName(e)
	h64 := fnv64(name)
	if target != srcLine {
		fs.lockLineAs(first, target, true)
		defer fs.unlockLine(first, target)
	}
	// Check the entry is not already placed in its proper line (crash
	// between Fig 5c steps 7 and 8: both slots point at it).
	already := uint64(0)
	for b := first; !b.IsNull(); b = fs.nextBlock(b) {
		for s := 0; s < SlotsPerLine; s++ {
			so := slotOff(b, target, s)
			if pmem.Ptr(d.AtomicLoad64(so)) == e {
				already = so
			}
		}
	}
	if already == 0 {
		slot, err := fs.takeSlot(first, ds, target)
		if err != nil {
			return
		}
		d.AtomicStore64(slot, uint64(e))
		d.Persist(slot, 8)
		already = slot
	}
	d.AtomicStore64(srcSlot, 0)
	d.Persist(srcSlot, 8)
	if fs.oa.Flags(e)&alloc.FlagDirty != 0 {
		fs.oa.ClearDirty(e)
	}
	ds.lines[srcLine].removeSlotAnyHash(srcSlot)
	ds.lines[srcLine].pushFree(srcSlot)
	if !ds.lines[target].containsSlot(h64, already) {
		ds.lines[target].add(h64, already)
	}
	if st != nil {
		st.FixedRenames++
	}
}

// recoverRenameLog rolls a cross-directory rename forward or back based on
// how far it progressed: if the shadow entry reached the destination
// directory, the move completes; otherwise it is undone.
func (fs *FS) recoverRenameLog(srcFirst pmem.Ptr, st *RecoveryStats) {
	d := fs.dev
	oldE := pmem.Ptr(d.AtomicLoad64(uint64(srcFirst) + dirLogOldOff))
	newE := pmem.Ptr(d.AtomicLoad64(uint64(srcFirst) + dirLogNewOff))
	dstFirst := pmem.Ptr(d.AtomicLoad64(uint64(srcFirst) + dirLogDstOff))
	if newE.IsNull() || dstFirst.IsNull() {
		fs.clearRenameLog(srcFirst)
		return
	}
	sds := fs.ensureIndex(srcFirst)
	dds := fs.ensureIndex(dstFirst)
	// Is the shadow entry present in the destination directory?
	var insertedSlot uint64
	var newLine int
	if fs.oa.Flags(newE)&alloc.FlagValid != 0 {
		hash := d.AtomicLoad32(uint64(newE) + feHashOff)
		newLine = lineOf(hash)
		for b := dstFirst; !b.IsNull(); b = fs.nextBlock(b) {
			for s := 0; s < SlotsPerLine; s++ {
				so := slotOff(b, newLine, s)
				if pmem.Ptr(d.AtomicLoad64(so)) == newE {
					insertedSlot = so
				}
			}
		}
	}
	if insertedSlot != 0 {
		// Roll forward: remove the old entry from the source directory.
		if !oldE.IsNull() && fs.oa.Flags(oldE) != 0 {
			ohash := d.AtomicLoad32(uint64(oldE) + feHashOff)
			oline := lineOf(ohash)
			for b := srcFirst; !b.IsNull(); b = fs.nextBlock(b) {
				for s := 0; s < SlotsPerLine; s++ {
					so := slotOff(b, oline, s)
					if pmem.Ptr(d.AtomicLoad64(so)) == oldE {
						d.AtomicStore64(so, 0)
						d.Persist(so, 8)
						sds.lines[oline].removeSlotAnyHash(so)
						sds.lines[oline].pushFree(so)
					}
				}
			}
			if fs.oa.Flags(oldE)&alloc.FlagValid != 0 {
				fs.dev.AtomicStore64(uint64(oldE), alloc.FlagDirty)
				fs.dev.Persist(uint64(oldE), 8)
			}
			if fs.oa.Flags(oldE) == alloc.FlagDirty {
				fs.freeEntryBody(oldE)
			}
		}
		if fs.oa.Flags(newE)&alloc.FlagDirty != 0 {
			fs.oa.ClearDirty(newE)
		}
		h := fnv64(fs.entryName(newE))
		if !dds.lines[newLine].containsSlot(h, insertedSlot) {
			dds.lines[newLine].add(h, insertedSlot)
		}
	} else {
		// Roll back: discard the shadow entry; the old one is untouched.
		if f := fs.oa.Flags(newE); f&alloc.FlagValid != 0 {
			fs.oa.Free(ClassFileEntry, newE)
		}
	}
	fs.clearRenameLog(srcFirst)
	fs.obsR.Event(obs.EvRenameLogRecovered)
	if st != nil {
		st.FixedLogs++
	}
}

// markState accumulates what the mark phase finds reachable: a bitmap per
// object class (see objSet), the data and slab blocks in use, and the names
// an inode has past its first.
type markState struct {
	inodes, entries, dirBlocks, extents, blobs objSet

	// extraNames counts, per inode named more than once, the valid entries
	// naming it past the first: with the inodes set it gives every
	// non-directory inode its link count, and it holds only hard links.
	extraNames map[pmem.Ptr]uint32

	firstBlock uint64
	used       []bool // block firstBlock+i is in use
}

// markBlocks marks blocks [block, block+n) in use, ignoring any part of the
// run outside the allocator's range.
func (ms *markState) markBlocks(block, n uint64) {
	for b := block; b < block+n && b-ms.firstBlock < uint64(len(ms.used)); b++ {
		if b >= ms.firstBlock {
			ms.used[b-ms.firstBlock] = true
		}
	}
}

// objSet is a set of metadata objects: one bit per cache line of the arena.
// Every object starts on its own line (a slab segment is block-aligned, its
// header is one line long and every class's size is a multiple of a line),
// and plausible refuses any other pointer.
type objSet []uint64

func newObjSet(arena uint64) objSet {
	return make(objSet, (arena/pmem.CachelineSize+63)/64)
}

func (s objSet) has(p pmem.Ptr) bool {
	i := uint64(p) / pmem.CachelineSize
	return s[i/64]&(1<<(i%64)) != 0
}

// add inserts p and reports whether it was absent.
func (s objSet) add(p pmem.Ptr) bool {
	i := uint64(p) / pmem.CachelineSize
	w, bit := &s[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// each calls fn for every member, in address order.
func (s objSet) each(fn func(pmem.Ptr)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(pmem.Ptr((uint64(i)*64 + uint64(bits.TrailingZeros64(w))) * pmem.CachelineSize))
		}
	}
}

// recoverAll is the mount-time scan: mark from the root, fix half-done
// operations (when fix is set), sweep every object class, and rebuild the
// block allocator. Even clean mounts run the mark phase, because the block
// allocator lives in volatile memory (§4.2).
func (fs *FS) recoverAll(fix bool) (*RecoveryStats, error) {
	start := time.Now()
	st := &RecoveryStats{WasClean: !fix}
	if fix {
		fs.obsR.Event(obs.EvMountRecovery)
		fs.recStats.Store(st)
		defer fs.recStats.Store((*RecoveryStats)(nil))
		defer func() {
			fs.obsR.Span(obs.SpanRecovery, 0, start, uint64(time.Since(start).Nanoseconds()), false)
		}()
	}
	arena := fs.dev.Size()
	firstBlock, nBlocks := fs.ba.Range()
	ms := &markState{
		inodes:     newObjSet(arena),
		entries:    newObjSet(arena),
		dirBlocks:  newObjSet(arena),
		extents:    newObjSet(arena),
		blobs:      newObjSet(arena),
		extraNames: map[pmem.Ptr]uint32{},
		firstBlock: firstBlock,
		used:       make([]bool, nBlocks),
	}
	fs.markInode(fs.rootInode, ms, st, fix)

	if fix {
		// A link count is the number of names. Link raises it before the
		// new entry exists and unlink lowers it after the old one is gone,
		// so a crash in between leaves it one high: the inode would never
		// be freed. Every marked inode but the root was reached by a name.
		ms.inodes.each(func(ino pmem.Ptr) {
			if n := 1 + ms.extraNames[ino]; ino != fs.rootInode && !fsapi.IsDir(fs.inoMode(ino)) && fs.inoNlink(ino) != n {
				fs.setNlink(ino, n)
				st.FixedLinks++
			}
		})
		// Reclaim unreachable subtrees before the generic sweep so their
		// data blocks and nested objects do not leak. (The sweep itself
		// only frees single objects.)
		fs.oa.Scan(ClassInode, func(ptr pmem.Ptr, flags uint64) {
			if flags&alloc.FlagValid != 0 && !ms.inodes.has(ptr) {
				fs.reclaimTree(ptr, st)
			}
		})
	}

	sweep := func(class int, set objSet) {
		s := fs.oa.Sweep(class, set.has)
		st.Reclaimed += s.Reclaimed + s.Completed
	}
	sweep(ClassInode, ms.inodes)
	sweep(ClassDirBlock, ms.dirBlocks)
	sweep(ClassFileEntry, ms.entries)
	sweep(ClassExtent, ms.extents)
	sweep(ClassBlob, ms.blobs)

	// Rebuild the volatile block allocator: slab segments + reachable data.
	fs.oa.UsedSegments(ms.markBlocks)
	fs.ba.RebuildFromUsed(ms.used)

	st.Elapsed = time.Since(start)
	return st, nil
}

// plausible bounds-checks a persistent pointer before recovery dereferences
// it: after a torn crash, corrupt pointers must degrade to skipped objects,
// never to a wild read.
func (fs *FS) plausible(ptr pmem.Ptr, size uint64) bool {
	return ptr != 0 && uint64(ptr)%pmem.CachelineSize == 0 && uint64(ptr)+size <= fs.dev.Size() &&
		uint64(ptr) >= BlockSize
}

// markInode visits one inode and, for directories, recurses into entries.
func (fs *FS) markInode(ino pmem.Ptr, ms *markState, st *RecoveryStats, fix bool) {
	if !fs.plausible(ino, InodeSize) || !ms.inodes.add(ino) {
		return
	}
	d := fs.dev
	mode := fs.inoMode(ino)
	switch {
	case fsapi.IsDir(mode):
		st.Dirs++
		first := fs.inoData(ino)
		if first.IsNull() {
			return
		}
		if fix {
			// Locks do not survive a crash: clear leftover busy bits, then
			// repair every line and any pending cross-directory log.
			d.AtomicStore64(uint64(first)+dirBusyOff, 0)
			if d.AtomicLoad64(uint64(first)+dirMetaOff)&dirLogDirtyBit != 0 {
				fs.recoverRenameLog(first, st)
			}
			for line := 0; line < NLines; line++ {
				fs.repairLine(first, line, st)
			}
		}
		for b := first; fs.plausible(b, DirBlockSize) && ms.dirBlocks.add(b); b = fs.nextBlock(b) {
			st.DirBlocks++
			for i := 0; i < NLines*SlotsPerLine; i++ {
				e := pmem.Ptr(d.AtomicLoad64(uint64(b) + dirSlotsOff + uint64(i)*8))
				if !fs.plausible(e, FileEntrySize) || fs.oa.Flags(e)&alloc.FlagValid == 0 {
					continue
				}
				ms.entries.add(e)
				meta := d.AtomicLoad32(uint64(e) + feNlenOff)
				if (meta>>16)&feBitLongName != 0 {
					if blob := pmem.Ptr(d.AtomicLoad64(uint64(e) + feNameOff)); fs.plausible(blob, BlobSize) {
						ms.blobs.add(blob)
					}
				}
				child := pmem.Ptr(d.AtomicLoad64(uint64(e) + feInodeOff))
				if fs.plausible(child, InodeSize) && ms.inodes.has(child) {
					ms.extraNames[child]++
				} else {
					fs.markInode(child, ms, st, fix)
				}
			}
		}
	case fsapi.IsSymlink(mode):
		st.Symlinks++
		if blob := fs.inoData(ino); fs.plausible(blob, BlobSize) {
			ms.blobs.add(blob)
		}
	default:
		st.Files++
		_, nBlocks := fs.ba.Range()
		eb := fs.inoData(ino)
		for fs.plausible(eb, ExtentSize) && ms.extents.add(eb) {
			cnt := d.Load64(uint64(eb) + extCountOff)
			if cnt > extMaxEntries {
				cnt = extMaxEntries
			}
			for i := uint64(0); i < cnt; i++ {
				startBlk := d.Load64(uint64(eb) + extEntriesOff + i*16)
				n := d.Load64(uint64(eb) + extEntriesOff + i*16 + 8)
				if n > 0 && startBlk+n <= nBlocks+1 {
					ms.markBlocks(startBlk, n)
					st.UsedDataBlock += n
				}
			}
			eb = pmem.Ptr(d.Load64(uint64(eb) + extNextOff))
		}
	}
}

// reclaimTree frees an unreachable inode and everything below it.
func (fs *FS) reclaimTree(ino pmem.Ptr, st *RecoveryStats) {
	if !fs.plausible(ino, InodeSize) {
		return
	}
	d := fs.dev
	mode := fs.inoMode(ino)
	if fsapi.IsDir(mode) {
		first := fs.inoData(ino)
		seen := map[pmem.Ptr]bool{}
		for b := first; fs.plausible(b, DirBlockSize) && !seen[b]; b = fs.nextBlock(b) {
			seen[b] = true
			for i := 0; i < NLines*SlotsPerLine; i++ {
				e := pmem.Ptr(d.AtomicLoad64(uint64(b) + dirSlotsOff + uint64(i)*8))
				if !fs.plausible(e, FileEntrySize) || fs.oa.Flags(e) == 0 {
					continue
				}
				child := pmem.Ptr(d.AtomicLoad64(uint64(e) + feInodeOff))
				if fs.plausible(child, InodeSize) && fs.oa.Flags(child)&alloc.FlagValid != 0 {
					fs.reclaimTree(child, st)
				}
				fs.dev.AtomicStore64(uint64(e), alloc.FlagDirty)
				fs.dev.Persist(uint64(e), 8)
				fs.freeEntryBody(e)
				st.Reclaimed++
			}
		}
		fs.dirs.drop(first)
	}
	fs.freeInode(ino)
	st.Reclaimed++
}
