package core

import (
	"runtime"
	"time"

	"simurgh/internal/alloc"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Directory operations (§4.3). A directory is a chain of hash blocks; a
// name hashes to one of NLines lines, and line i of the whole directory is
// the row of SlotsPerLine slots at index i in every block of the chain.
// Mutations lock only the line they touch — a busy bit in the first block —
// so independent names proceed fully in parallel, which is what lets
// Simurgh scale in shared directories where VFS-based file systems
// serialize on the directory inode. Location lookups go through the
// volatile per-line index (dirindex.go); the persistent protocol steps are
// exactly Figure 5.
//
// Entries, inodes and name blobs are read optimistically — by lookups, which
// take no lock, and by listings and maintenance walks — so every access to
// their fields, on either side, is a word-atomic device operation.

// entryRef locates a live directory entry. The zero slot stands for the
// root directory, which no entry names.
type entryRef struct {
	entry   pmem.Ptr // the file entry object
	slot    uint64   // device offset of the slot pointing at it
	inode   pmem.Ptr
	symlink bool
	dirty   bool // the create that linked the entry has not committed it
}

// lockLine acquires the busy bit of a line, performing waiter-side crash
// recovery if the holder exceeds the timeout (§4.3 crash recovery: "the
// waiting process performs the recovery corresponding to this lock").
// The uncontended path is one load and one CAS with no clock reads;
// contended acquisitions are timed into the line lock-wait histogram.
//
// The directory's index is built before the bit is taken, and returned:
// every holder announces itself to lock-free lookups through the line's
// sequence counter (see dirLine.seq).
func (fs *FS) lockLine(first pmem.Ptr, line int) *dirState {
	ds := fs.ensureIndex(first)
	bit := uint64(1) << uint(line)
	off := uint64(first) + dirBusyOff
	old := fs.dev.AtomicLoad64(off)
	if old&bit != 0 || !fs.dev.CompareAndSwap64(off, old, old|bit) {
		fs.lockLineSlow(first, line, bit, off, false)
	}
	ds.lines[line].seq.Add(1)
	return ds
}

// lockLineInRecovery is lockLine for a recovery that holds recoveryMu (or
// runs alone, at mount): a dead same-directory rename holds both of its
// lines, so the second one is recovered under the mutex already held.
func (fs *FS) lockLineInRecovery(first pmem.Ptr, line int) {
	ds := fs.ensureIndex(first)
	bit, off := uint64(1)<<uint(line), uint64(first)+dirBusyOff
	if old := fs.dev.AtomicLoad64(off); old&bit != 0 || !fs.dev.CompareAndSwap64(off, old, old|bit) {
		fs.lockLineSlow(first, line, bit, off, true)
	}
	ds.lines[line].seq.Add(1)
}

func (fs *FS) lockLineSlow(first pmem.Ptr, line int, bit, off uint64, inRecovery bool) {
	start := time.Now()
	deadline := start.Add(fs.lineTimeout)
	for spins := 0; ; spins++ {
		old := fs.dev.AtomicLoad64(off)
		if old&bit == 0 {
			if fs.dev.CompareAndSwap64(off, old, old|bit) {
				ns := uint64(time.Since(start).Nanoseconds())
				fs.obsR.LockWait(obs.LockLine, ns)
				fs.obsR.Span(obs.SpanLockWait, 0, start, ns, false)
				return
			}
			continue
		}
		if spins&0x3f == 0x3f {
			runtime.Gosched()
			if time.Now().After(deadline) {
				fs.obsR.Event(obs.EvLineLockTimeout)
				if inRecovery {
					fs.recoverLineLocked(first, line)
				} else {
					fs.recoverStuckLine(first, line)
				}
				deadline = time.Now().Add(fs.lineTimeout)
			}
		}
	}
}

// unlockLine releases the busy bit (also on behalf of a dead holder). The
// counter moves first: a lookup that finds the bit clear must not be able to
// read the same count it read while the holder was still mutating.
func (fs *FS) unlockLine(first pmem.Ptr, line int) {
	if ds := fs.dirs.get(first); ds != nil {
		ds.lines[line].seq.Add(1)
	}
	fs.dev.AtomicAnd64(uint64(first)+dirBusyOff, ^(uint64(1) << uint(line)))
}

// nextBlock follows a chain link.
func (fs *FS) nextBlock(b pmem.Ptr) pmem.Ptr {
	return pmem.Ptr(fs.dev.AtomicLoad64(uint64(b) + dirNextOff))
}

// entryName reads an entry's name (inline or blob).
func (fs *FS) entryName(e pmem.Ptr) string {
	d := fs.dev
	meta := d.AtomicLoad32(uint64(e) + feNlenOff)
	n, off := uint64(meta&0xffff), uint64(e)+feNameOff
	if (meta>>16)&feBitLongName != 0 {
		blob := pmem.Ptr(d.AtomicLoad64(off))
		if !fs.plausible(blob, BlobSize) {
			return ""
		}
		n, off = d.AtomicLoad64(uint64(blob)+blobLenOff), uint64(blob)+blobDataOff
		if n > blobCap {
			return ""
		}
	} else if n > shortNameLen {
		return ""
	}
	buf := make([]byte, n)
	d.AtomicReadAt(off, buf)
	return string(buf)
}

// entryMatches reports whether entry e carries the given hash and name.
// It compares in place (no allocation: this is the path-walk hot path).
func (fs *FS) entryMatches(e pmem.Ptr, hash uint32, name string) bool {
	d := fs.dev
	if d.AtomicLoad32(uint64(e)+feHashOff) != hash {
		return false
	}
	meta := d.AtomicLoad32(uint64(e) + feNlenOff)
	if int(meta&0xffff) != len(name) {
		return false
	}
	if (meta>>16)&feBitLongName != 0 {
		blob := pmem.Ptr(d.AtomicLoad64(uint64(e) + feNameOff))
		if !fs.plausible(blob, BlobSize) || d.AtomicLoad64(uint64(blob)+blobLenOff) != uint64(len(name)) {
			return false
		}
		return d.AtomicEqual(uint64(blob)+blobDataOff, name)
	}
	return len(name) <= shortNameLen && d.AtomicEqual(uint64(e)+feNameOff, name)
}

// newEntry allocates and fills a file entry (valid|dirty until committed).
func (fs *FS) newEntry(name string, ino pmem.Ptr, symlink bool, hint uint64) (pmem.Ptr, error) {
	e, err := fs.oa.Alloc(ClassFileEntry, hint)
	if err != nil {
		return 0, err
	}
	d := fs.dev
	var bits uint32
	if symlink {
		bits |= feBitSymlink
	}
	if len(name) > shortNameLen {
		blob, err := fs.oa.Alloc(ClassBlob, hint)
		if err != nil {
			fs.oa.Free(ClassFileEntry, e)
			return 0, err
		}
		d.AtomicStore64(uint64(blob)+blobLenOff, uint64(len(name)))
		d.AtomicWriteAt(uint64(blob)+blobDataOff, []byte(name))
		d.Persist(uint64(blob), BlobSize)
		fs.oa.ClearDirtyLazy(blob)
		d.AtomicStore64(uint64(e)+feNameOff, uint64(blob))
		bits |= feBitLongName
	} else {
		d.AtomicWriteAt(uint64(e)+feNameOff, []byte(name))
	}
	d.AtomicStore64(uint64(e)+feInodeOff, uint64(ino))
	d.AtomicStore32(uint64(e)+feHashOff, fnv32(name))
	d.AtomicStore32(uint64(e)+feNlenOff, uint32(len(name))|bits<<16)
	d.Persist(uint64(e), FileEntrySize)
	return e, nil
}

// freeEntry releases a file entry that was never linked, and its name blob.
func (fs *FS) freeEntry(e pmem.Ptr) {
	fs.freeNameBlob(e)
	fs.oa.Free(ClassFileEntry, e)
}

func (fs *FS) freeNameBlob(e pmem.Ptr) {
	meta := fs.dev.AtomicLoad32(uint64(e) + feNlenOff)
	if (meta>>16)&feBitLongName != 0 {
		blob := pmem.Ptr(fs.dev.AtomicLoad64(uint64(e) + feNameOff))
		if !blob.IsNull() {
			fs.oa.Free(ClassBlob, blob)
		}
	}
}

// zeroEntry is the persistent half of deallocating an entry whose valid bit
// is already clear: free the name blob, zero the body, clear dirty. The
// caller recycles e — but not while a slot still points at it: a lookup that
// finds the slot unchanged after reading the entry relies on having read one
// incarnation of it.
func (fs *FS) zeroEntry(e pmem.Ptr) {
	fs.freeNameBlob(e)
	fs.dev.AtomicZero(uint64(e)+alloc.BodyOff, FileEntrySize-alloc.BodyOff)
	fs.dev.Persist(uint64(e)+alloc.BodyOff, FileEntrySize-alloc.BodyOff)
	fs.dev.AtomicStore64(uint64(e), 0)
	fs.dev.Persist(uint64(e), 8)
}

// freeEntryBody deallocates an invalidated entry that no slot points at.
func (fs *FS) freeEntryBody(e pmem.Ptr) {
	fs.zeroEntry(e)
	fs.oa.Recycle(ClassFileEntry, e)
}

// lookupEntry finds name in the directory whose first hash block is first.
//
// Reads take no lock and store nothing: the line's index yields candidate
// slots, and checkSlot verifies each against NVMM. What makes the result
// exact is the line's sequence counter. Holders of the busy bit bump it on
// the way in and on the way out, so reading the same count before and after
// means the lookup overlapped at most one critical section: a verified hit
// is then one incarnation of one entry, linked in this line (a single
// critical section cannot unlink an entry and link a recycled copy of it
// under another name), and a miss is only believed if, in addition, nobody
// held the bit — otherwise the index may lag NVMM, and the persistent line
// is scanned instead. Lookups never wait for the bit, as in the paper; a
// changed count just means looking again.
//
// An entry whose create reached the slot store but never cleared the dirty
// bits is committed on the way out (idempotent recovery-on-access, Fig 5a).
func (fs *FS) lookupEntry(first pmem.Ptr, name string) (entryRef, error) {
	ds := fs.ensureIndex(first)
	hash, key := hashName(name)
	line := lineOf(hash)
	l := &ds.lines[line]
	for {
		seq := l.seq.Load()
		ref, ok := fs.lookupLine(first, l, line, hash, key, name)
		if l.seq.Load() != seq {
			continue
		}
		if !ok {
			return entryRef{}, fsapi.ErrNotExist
		}
		if ref.dirty {
			if fs.oa.Flags(ref.inode)&alloc.FlagValid != 0 {
				fs.oa.ClearDirty(ref.inode)
			}
			fs.oa.ClearDirty(ref.entry)
		}
		return ref, nil
	}
}

// lookupLine is one attempt of lookupEntry: index first, then — if the
// index has nothing and the line is mid-mutation (possibly by a crashed
// process that committed the slot store but died before the index update) —
// the persistent line itself.
func (fs *FS) lookupLine(first pmem.Ptr, l *dirLine, line int, hash uint32, key uint64, name string) (entryRef, bool) {
	var cbuf [4]uint64
	for _, so := range l.candidates(key, cbuf[:0]) {
		if ref, ok := fs.checkSlot(so, hash, name); ok {
			return ref, true
		}
	}
	if fs.dev.AtomicLoad64(uint64(first)+dirBusyOff)&(1<<uint(line)) == 0 {
		return entryRef{}, false
	}
	return fs.lookupLineSlow(first, line, hash, name)
}

// checkSlot reports whether slot so holds a live entry carrying hash and
// name. The entry is read with no protection at all, so what was read only
// counts if, afterwards, the slot still points at the entry and the entry
// is still valid: an unlink clears the valid bit before it zeroes the body,
// and no entry is recycled while a slot points at it.
func (fs *FS) checkSlot(so uint64, hash uint32, name string) (entryRef, bool) {
	d := fs.dev
	e := pmem.Ptr(d.AtomicLoad64(so))
	if !fs.plausible(e, FileEntrySize) {
		return entryRef{}, false
	}
	flags := fs.oa.Flags(e)
	if flags&alloc.FlagValid == 0 || !fs.entryMatches(e, hash, name) {
		return entryRef{}, false
	}
	ref := entryRef{
		entry:   e,
		slot:    so,
		inode:   pmem.Ptr(d.AtomicLoad64(uint64(e) + feInodeOff)),
		symlink: (d.AtomicLoad32(uint64(e)+feNlenOff)>>16)&feBitSymlink != 0,
		dirty:   flags&alloc.FlagDirty != 0,
	}
	if !fs.stillNames(ref) || !fs.plausible(ref.inode, InodeSize) {
		return entryRef{}, false
	}
	return ref, true
}

// stillNames reports whether the entry a lookup returned is still linked
// where it was found, still valid and still naming the same inode — in which
// case the inode has had a name, and so has not been freed, all along.
func (fs *FS) stillNames(ref entryRef) bool {
	return ref.slot == 0 ||
		pmem.Ptr(fs.dev.AtomicLoad64(ref.slot)) == ref.entry &&
			fs.oa.Flags(ref.entry)&alloc.FlagValid != 0 &&
			pmem.Ptr(fs.dev.AtomicLoad64(uint64(ref.entry)+feInodeOff)) == ref.inode
}

// dirProbeSpan records the elapsed time since start as a dir-probe span
// (deferred with start evaluated at entry).
func (fs *FS) dirProbeSpan(start time.Time) {
	fs.obsR.Span(obs.SpanDirProbe, 0, start, uint64(time.Since(start).Nanoseconds()), false)
}

// lookupLineSlow scans the persistent line (used only while the line's busy
// bit is set and the index may lag the NVMM state).
func (fs *FS) lookupLineSlow(first pmem.Ptr, line int, hash uint32, name string) (entryRef, bool) {
	if fs.obsR.TraceEnabled() {
		defer fs.dirProbeSpan(time.Now())
	}
	for b := first; fs.plausible(b, DirBlockSize); b = fs.nextBlock(b) {
		for s := 0; s < SlotsPerLine; s++ {
			if ref, ok := fs.checkSlot(slotOff(b, line, s), hash, name); ok {
				return ref, true
			}
		}
	}
	return entryRef{}, false
}

// nameExists checks for a duplicate under the line lock.
func (fs *FS) nameExists(l *dirLine, hash uint32, key uint64, name string) bool {
	var cbuf [4]uint64
	for _, so := range l.candidates(key, cbuf[:0]) {
		if _, ok := fs.checkSlot(so, hash, name); ok {
			return true
		}
	}
	return false
}

// takeSlot obtains a free slot in the line, extending the chain when the
// line is full (Fig 5a steps 3-4). Caller holds the line lock.
func (fs *FS) takeSlot(first pmem.Ptr, ds *dirState, line int) (uint64, error) {
	if so, ok := ds.lines[line].popFree(); ok {
		return so, nil
	}
	return fs.extendChain(first, ds, line)
}

// createEntry inserts a new entry into the directory (Fig 5a). The inode
// must already be persisted (valid|dirty). On success both objects are
// committed (dirty cleared).
func (fs *FS) createEntry(dirFirst pmem.Ptr, name string, ino pmem.Ptr, symlink bool) error {
	hash, key := hashName(name)
	line := lineOf(hash)

	entry, err := fs.newEntry(name, ino, symlink, uint64(ino))
	if err != nil {
		return err
	}
	ds := fs.lockLine(dirFirst, line)
	if fs.nameExists(&ds.lines[line], hash, key, name) {
		fs.unlockLine(dirFirst, line)
		fs.freeEntry(entry)
		return fsapi.ErrExist
	}
	slot, err := fs.takeSlot(dirFirst, ds, line)
	if err != nil {
		fs.unlockLine(dirFirst, line)
		fs.freeEntry(entry)
		return err
	}
	fs.dev.AtomicStore64(slot, uint64(entry))
	fs.dev.Persist(slot, 8)
	// One fence commits both dirty-bit clears (Fig 5a step 6).
	fs.oa.ClearDirtyLazy(ino)
	fs.oa.ClearDirtyLazy(entry)
	fs.dev.Fence()
	ds.lines[line].add(key, slot)
	fs.unlockLine(dirFirst, line)
	return nil
}

// removeEntry removes name from the directory (Fig 5b) and returns its
// inode. The caller handles inode link-count bookkeeping.
func (fs *FS) removeEntry(dirFirst pmem.Ptr, name string, wantDir *bool) (pmem.Ptr, error) {
	hash := fnv32(name)
	line := lineOf(hash)
	ds := fs.lockLine(dirFirst, line)
	ref, err := fs.lookupEntry(dirFirst, name)
	if err != nil {
		fs.unlockLine(dirFirst, line)
		return 0, err
	}
	if wantDir != nil {
		isDir := fsapi.IsDir(fs.inoMode(ref.inode))
		if *wantDir && !isDir {
			fs.unlockLine(dirFirst, line)
			return 0, fsapi.ErrNotDir
		}
		if !*wantDir && isDir {
			fs.unlockLine(dirFirst, line)
			return 0, fsapi.ErrIsDir
		}
	}
	// Step 2: mark the entry's operation in progress (valid off, dirty on).
	fs.dev.AtomicStore64(uint64(ref.entry), alloc.FlagDirty)
	fs.dev.Persist(uint64(ref.entry), 8)
	// Steps 4-5: zero the entry, then the slot pointer.
	fs.zeroEntry(ref.entry)
	fs.dev.AtomicStore64(ref.slot, 0)
	fs.dev.Persist(ref.slot, 8)
	fs.oa.Recycle(ClassFileEntry, ref.entry)
	ds.lines[line].remove(fnv64(name), ref.slot)
	ds.lines[line].pushFree(ref.slot)
	fs.unlockLine(dirFirst, line)
	return ref.inode, nil
}

// replaceDst removes an existing rename destination (POSIX overwrite).
// Caller holds the destination line's lock.
func (fs *FS) replaceDst(ds *dirState, line int, dst entryRef, name string) {
	fs.dev.AtomicStore64(uint64(dst.entry), alloc.FlagDirty)
	fs.dev.Persist(uint64(dst.entry), 8)
	fs.zeroEntry(dst.entry)
	fs.dev.AtomicStore64(dst.slot, 0)
	fs.dev.Persist(dst.slot, 8)
	fs.oa.Recycle(ClassFileEntry, dst.entry)
	ds.lines[line].remove(fnv64(name), dst.slot)
	ds.lines[line].pushFree(dst.slot)
	if fsapi.IsDir(fs.inoMode(dst.inode)) {
		// An (empty, checked) directory has nlink 2; release it outright.
		fs.releaseOrOrphan(dst.inode)
	} else {
		fs.unlinkInode(dst.inode)
	}
}

// renameSameDir implements Fig 5c: shadow entry, pointer swap through the
// old line, final placement in the new line.
func (fs *FS) renameSameDir(dirFirst pmem.Ptr, oldName, newName string) error {
	oldHash, newHash := fnv32(oldName), fnv32(newName)
	oldLine, newLine := lineOf(oldHash), lineOf(newHash)

	// Lock lines in ascending order to avoid deadlock.
	l1, l2 := oldLine, newLine
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	ds := fs.lockLine(dirFirst, l1)
	if l2 != l1 {
		fs.lockLine(dirFirst, l2)
	}
	unlock := func() {
		if l2 != l1 {
			fs.unlockLine(dirFirst, l2)
		}
		fs.unlockLine(dirFirst, l1)
	}

	ref, err := fs.lookupEntry(dirFirst, oldName)
	if err != nil {
		unlock()
		return err
	}
	// POSIX: an existing destination is replaced.
	if dst, err := fs.lookupEntry(dirFirst, newName); err == nil {
		if err := fs.replaceCheck(ref.inode, dst.inode); err != nil {
			unlock()
			return err
		}
		fs.replaceDst(ds, newLine, dst, newName)
	}

	// Step 1-2: shadow entry with the new name, same inode.
	shadow, err := fs.newEntry(newName, ref.inode, ref.symlink, uint64(ref.inode))
	if err != nil {
		unlock()
		return err
	}
	// Step 5: swing the old slot to the shadow entry. The hash of the
	// shadow does not match the old line — that deliberate inconsistency is
	// what recovery keys on.
	fs.dev.AtomicStore64(ref.slot, uint64(shadow))
	fs.dev.Persist(ref.slot, 8)
	ds.lines[oldLine].remove(fnv64(oldName), ref.slot)
	// Step 6: the old entry is no longer needed.
	fs.dev.AtomicStore64(uint64(ref.entry), alloc.FlagDirty)
	fs.dev.Persist(uint64(ref.entry), 8)
	fs.freeEntryBody(ref.entry)

	if newLine == oldLine {
		// Both names hash to this line, so the swapped slot already is where
		// the shadow belongs. (Moving it anyway would, for a crash between
		// steps 7 and 8, leave two slots of one line on one entry with no
		// hash mismatch for recovery to key on.)
		fs.oa.ClearDirty(shadow)
		ds.lines[newLine].add(fnv64(newName), ref.slot)
		unlock()
		return nil
	}

	// Step 7: place the shadow into its proper line.
	slot, err := fs.takeSlot(dirFirst, ds, newLine)
	if err != nil {
		unlock()
		return err
	}
	fs.dev.AtomicStore64(slot, uint64(shadow))
	fs.dev.Persist(slot, 8)
	// Step 8: remove the mismatched pointer from the old line.
	fs.dev.AtomicStore64(ref.slot, 0)
	fs.dev.Persist(ref.slot, 8)
	fs.oa.ClearDirty(shadow)
	ds.lines[newLine].add(fnv64(newName), slot)
	ds.lines[oldLine].pushFree(ref.slot)
	unlock()
	return nil
}

// renameCrossDir moves oldName from srcFirst to dstFirst as newName, using
// the per-directory log entry in the source directory's first block (§4.3
// cross-directory renames).
func (fs *FS) renameCrossDir(srcFirst, dstFirst pmem.Ptr, oldName, newName string) error {
	oldHash, newHash := fnv32(oldName), fnv32(newName)
	oldLine, newLine := lineOf(oldHash), lineOf(newHash)

	// Lock the two directories' lines in a global order (by first-block
	// pointer) to avoid deadlocks between concurrent cross-dir renames.
	var sds, dds *dirState
	if srcFirst < dstFirst {
		sds = fs.lockLine(srcFirst, oldLine)
		dds = fs.lockLine(dstFirst, newLine)
	} else {
		dds = fs.lockLine(dstFirst, newLine)
		sds = fs.lockLine(srcFirst, oldLine)
	}
	unlockBoth := func() {
		fs.unlockLine(srcFirst, oldLine)
		fs.unlockLine(dstFirst, newLine)
	}

	ref, err := fs.lookupEntry(srcFirst, oldName)
	if err != nil {
		unlockBoth()
		return err
	}
	if dst, err := fs.lookupEntry(dstFirst, newName); err == nil {
		if err := fs.replaceCheck(ref.inode, dst.inode); err != nil {
			unlockBoth()
			return err
		}
		fs.replaceDst(dds, newLine, dst, newName)
	}

	// Shadow entry that will live in the destination.
	shadow, err := fs.newEntry(newName, ref.inode, ref.symlink, uint64(ref.inode))
	if err != nil {
		unlockBoth()
		return err
	}
	// Step 1-2: write the log entry in the source directory and set its
	// dirty flag; from here recovery can either roll forward or back.
	d := fs.dev
	d.AtomicStore64(uint64(srcFirst)+dirLogOldOff, uint64(ref.entry))
	d.AtomicStore64(uint64(srcFirst)+dirLogNewOff, uint64(shadow))
	d.AtomicStore64(uint64(srcFirst)+dirLogDstOff, uint64(dstFirst))
	d.Persist(uint64(srcFirst)+dirLogOldOff, 24)
	d.AtomicOr64(uint64(srcFirst)+dirMetaOff, dirLogDirtyBit)
	d.Persist(uint64(srcFirst)+dirMetaOff, 8)

	// Step 4: perform the operation — insert into destination, remove from
	// source.
	slot, err := fs.takeSlot(dstFirst, dds, newLine)
	if err != nil {
		fs.clearRenameLog(srcFirst)
		unlockBoth()
		fs.freeEntry(shadow)
		return err
	}
	d.AtomicStore64(slot, uint64(shadow))
	d.Persist(slot, 8)
	d.AtomicStore64(ref.slot, 0)
	d.Persist(ref.slot, 8)
	fs.dev.AtomicStore64(uint64(ref.entry), alloc.FlagDirty)
	fs.dev.Persist(uint64(ref.entry), 8)
	fs.zeroEntry(ref.entry)
	fs.oa.ClearDirty(shadow)
	fs.clearRenameLog(srcFirst)
	// The log names the old entry until it is cleared: recycled before, the
	// entry could be a live process's new entry by the time a waiter
	// recovering this rename invalidates it.
	fs.oa.Recycle(ClassFileEntry, ref.entry)
	dds.lines[newLine].add(fnv64(newName), slot)
	sds.lines[oldLine].remove(fnv64(oldName), ref.slot)
	sds.lines[oldLine].pushFree(ref.slot)
	unlockBoth()
	return nil
}

func (fs *FS) clearRenameLog(srcFirst pmem.Ptr) {
	d := fs.dev
	d.AtomicAnd64(uint64(srcFirst)+dirMetaOff, ^uint64(dirLogDirtyBit))
	d.Persist(uint64(srcFirst)+dirMetaOff, 8)
	d.AtomicStore64(uint64(srcFirst)+dirLogOldOff, 0)
	d.AtomicStore64(uint64(srcFirst)+dirLogNewOff, 0)
	d.AtomicStore64(uint64(srcFirst)+dirLogDstOff, 0)
	d.Persist(uint64(srcFirst)+dirLogOldOff, 24)
}

// replaceCheck validates replacing dst with src in a rename.
func (fs *FS) replaceCheck(src, dst pmem.Ptr) error {
	if src == dst {
		return nil
	}
	srcDir := fsapi.IsDir(fs.inoMode(src))
	dstDir := fsapi.IsDir(fs.inoMode(dst))
	switch {
	case dstDir && !srcDir:
		return fsapi.ErrIsDir
	case !dstDir && srcDir:
		return fsapi.ErrNotDir
	case dstDir:
		if !fs.dirEmpty(fs.inoData(dst)) {
			return fsapi.ErrNotEmpty
		}
	}
	return nil
}

// dirEmpty reports whether a directory chain has no live entries.
func (fs *FS) dirEmpty(first pmem.Ptr) bool {
	for b := first; fs.plausible(b, DirBlockSize); b = fs.nextBlock(b) {
		for i := 0; i < NLines*SlotsPerLine; i++ {
			e := pmem.Ptr(fs.dev.AtomicLoad64(uint64(b) + dirSlotsOff + uint64(i)*8))
			if !fs.plausible(e, FileEntrySize) {
				continue
			}
			if fs.oa.Flags(e)&alloc.FlagValid != 0 {
				return false
			}
		}
	}
	return true
}

// listDir returns the live entries of a directory.
func (fs *FS) listDir(first pmem.Ptr) []fsapi.DirEntry {
	var out []fsapi.DirEntry
	for b := first; fs.plausible(b, DirBlockSize); b = fs.nextBlock(b) {
		for i := 0; i < NLines*SlotsPerLine; i++ {
			e := pmem.Ptr(fs.dev.AtomicLoad64(uint64(b) + dirSlotsOff + uint64(i)*8))
			if !fs.plausible(e, FileEntrySize) || fs.oa.Flags(e)&alloc.FlagValid == 0 {
				continue
			}
			ino := pmem.Ptr(fs.dev.AtomicLoad64(uint64(e) + feInodeOff))
			if !fs.plausible(ino, InodeSize) {
				continue
			}
			out = append(out, fsapi.DirEntry{
				Name: fs.entryName(e),
				Ino:  uint64(ino),
				Mode: fs.inoMode(ino),
			})
		}
	}
	return out
}
