package core

import (
	"simurgh/internal/alloc"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// Maintenance (§4.3): the delete protocol's final step — freeing hash
// blocks that became empty — is optional in the paper ("crashing before
// that will not impose any inconsistency") and leftover rename shadows are
// reclaimed "during the next file system maintenance check". This file
// implements that check: CompactDir frees empty trailing hash blocks of one
// directory, and Maintain runs it over the whole tree.

// MaintainStats reports what a maintenance pass reclaimed.
type MaintainStats struct {
	DirsVisited uint64
	BlocksFreed uint64
}

// compactDir frees the empty tail of a directory's hash-block chain. The
// whole directory is quiesced (every line locked) for the duration, so it
// is safe against concurrent creates that would otherwise take slots in the
// blocks being freed.
func (fs *FS) compactDir(first pmem.Ptr, st *MaintainStats) {
	var ds *dirState
	for line := 0; line < NLines; line++ {
		ds = fs.lockLine(first, line)
	}
	defer func() {
		for line := NLines - 1; line >= 0; line-- {
			fs.unlockLine(first, line)
		}
	}()
	// Also sweep half-done operations while the directory is quiet.
	for line := 0; line < NLines; line++ {
		fs.repairLine(first, line, nil)
	}

	// Walk the chain; find the longest empty suffix past the first block.
	var chain []pmem.Ptr
	for b := first; !b.IsNull(); b = fs.nextBlock(b) {
		chain = append(chain, b)
	}
	empty := func(b pmem.Ptr) bool {
		for i := 0; i < NLines*SlotsPerLine; i++ {
			if fs.dev.AtomicLoad64(uint64(b)+dirSlotsOff+uint64(i)*8) != 0 {
				return false
			}
		}
		return true
	}
	keep := len(chain)
	for keep > 1 && empty(chain[keep-1]) {
		keep--
	}
	if keep == len(chain) {
		return
	}
	// Unlink the suffix: one persisted pointer store detaches all of it,
	// then the blocks are returned to the allocator.
	last := chain[keep-1]
	fs.dev.AtomicStore64(uint64(last)+dirNextOff, 0)
	fs.dev.Persist(uint64(last)+dirNextOff, 8)
	for _, b := range chain[keep:] {
		fs.oa.Free(ClassDirBlock, b)
		st.BlocksFreed++
	}
	// Fix the volatile index: drop the freed blocks and their free slots.
	ds.blocks = ds.blocks[:0]
	ds.blocks = append(ds.blocks, chain[:keep]...)
	freed := map[pmem.Ptr]bool{}
	for _, b := range chain[keep:] {
		freed[b] = true
	}
	inFreed := func(slot uint64) bool {
		for b := range freed {
			if slot >= uint64(b) && slot < uint64(b)+DirBlockSize {
				return true
			}
		}
		return false
	}
	for line := 0; line < NLines; line++ {
		l := &ds.lines[line]
		l.mu.Lock()
		kept := l.free[:0]
		for _, s := range l.free {
			if !inFreed(s) {
				kept = append(kept, s)
			}
		}
		l.free = kept
		l.mu.Unlock()
	}
}

// Maintain walks the whole tree performing the paper's maintenance check:
// compacting directory chains and completing any leftover half-done
// operations. It can run concurrently with normal operation (each directory
// is quiesced only while it is being compacted).
func (fs *FS) Maintain() MaintainStats {
	var st MaintainStats
	fs.maintainDir(fs.rootInode, &st, map[pmem.Ptr]bool{})
	return st
}

func (fs *FS) maintainDir(ino pmem.Ptr, st *MaintainStats, seen map[pmem.Ptr]bool) {
	if seen[ino] || !fs.plausible(ino, InodeSize) {
		return
	}
	seen[ino] = true
	if !fsapi.IsDir(fs.inoMode(ino)) {
		return
	}
	first := fs.inoData(ino)
	if first.IsNull() {
		return
	}
	st.DirsVisited++
	fs.compactDir(first, st)
	// Recurse into subdirectories.
	d := fs.dev
	for b := first; !b.IsNull(); b = fs.nextBlock(b) {
		for i := 0; i < NLines*SlotsPerLine; i++ {
			e := pmem.Ptr(d.AtomicLoad64(uint64(b) + dirSlotsOff + uint64(i)*8))
			if e.IsNull() || fs.oa.Flags(e)&alloc.FlagValid == 0 {
				continue
			}
			child := pmem.Ptr(d.AtomicLoad64(uint64(e) + feInodeOff))
			if !child.IsNull() {
				fs.maintainDir(child, st, seen)
			}
		}
	}
}
