package core

import (
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// File data management. A regular file's logical blocks are described by a
// chain of extent blocks, each holding up to extMaxEntries (startBlock, n)
// runs in logical order. Appends coalesce with the final run whenever the
// block allocator returns adjacent blocks, so sequentially written files
// typically need a single extent. Data writes use non-temporal stores and a
// single fence before the metadata update, matching the paper's ordering
// (data persisted before metadata, enforced with sfence).

// extentFor walks the chain to find the run containing logical block lb.
// It returns the physical block and how many blocks remain in the run.
func (fs *FS) extentFor(ino pmem.Ptr, lb uint64) (phys uint64, run uint64, ok bool) {
	d := fs.dev
	var cum uint64
	for eb := fs.inoData(ino); !eb.IsNull(); eb = pmem.Ptr(d.Load64(uint64(eb) + extNextOff)) {
		cnt := d.Load64(uint64(eb) + extCountOff)
		for i := uint64(0); i < cnt; i++ {
			off := uint64(eb) + extEntriesOff + i*16
			start := d.Load64(off)
			n := d.Load64(off + 8)
			if lb < cum+n {
				within := lb - cum
				return start + within, n - within, true
			}
			cum += n
		}
	}
	return 0, 0, false
}

// appendExtent records a freshly allocated run at the logical end of the
// file, coalescing with the last run when physically adjacent.
func (fs *FS) appendExtent(ino pmem.Ptr, start, n uint64) error {
	d := fs.dev
	head := fs.inoData(ino)
	if head.IsNull() {
		eb, err := fs.oa.Alloc(ClassExtent, uint64(ino))
		if err != nil {
			return err
		}
		d.Store64(uint64(eb)+extEntriesOff, start)
		d.Store64(uint64(eb)+extEntriesOff+8, n)
		d.Store64(uint64(eb)+extCountOff, 1)
		d.Persist(uint64(eb), ExtentSize)
		fs.oa.ClearDirty(eb)
		d.AtomicStore64(uint64(ino)+inoDataOff, uint64(eb))
		d.Persist(uint64(ino)+inoDataOff, 8)
		fs.bumpBlocks(ino, n)
		return nil
	}
	// Find the tail extent block.
	tail := head
	for {
		next := pmem.Ptr(d.Load64(uint64(tail) + extNextOff))
		if next.IsNull() {
			break
		}
		tail = next
	}
	cnt := d.Load64(uint64(tail) + extCountOff)
	if cnt > 0 {
		lastOff := uint64(tail) + extEntriesOff + (cnt-1)*16
		lastStart := d.Load64(lastOff)
		lastN := d.Load64(lastOff + 8)
		if lastStart+lastN == start {
			// Coalesce: a single 8-byte store extends the file mapping.
			d.Store64(lastOff+8, lastN+n)
			d.Persist(lastOff+8, 8)
			fs.bumpBlocks(ino, n)
			return nil
		}
	}
	if cnt < extMaxEntries {
		off := uint64(tail) + extEntriesOff + cnt*16
		d.Store64(off, start)
		d.Store64(off+8, n)
		d.Persist(off, 16)
		// Publishing the count makes the run visible atomically.
		d.AtomicStore64(uint64(tail)+extCountOff, cnt+1)
		d.Persist(uint64(tail)+extCountOff, 8)
		fs.bumpBlocks(ino, n)
		return nil
	}
	eb, err := fs.oa.Alloc(ClassExtent, uint64(ino))
	if err != nil {
		return err
	}
	d.Store64(uint64(eb)+extEntriesOff, start)
	d.Store64(uint64(eb)+extEntriesOff+8, n)
	d.Store64(uint64(eb)+extCountOff, 1)
	d.Persist(uint64(eb), ExtentSize)
	fs.oa.ClearDirty(eb)
	d.AtomicStore64(uint64(tail)+extNextOff, uint64(eb))
	d.Persist(uint64(tail)+extNextOff, 8)
	fs.bumpBlocks(ino, n)
	return nil
}

func (fs *FS) bumpBlocks(ino pmem.Ptr, n uint64) {
	fs.dev.AtomicAdd64(uint64(ino)+inoBlocksOff, n)
	fs.dev.Persist(uint64(ino)+inoBlocksOff, 8)
}

// allocatedBlocks returns the number of data blocks mapped by the inode.
func (fs *FS) allocatedBlocks(ino pmem.Ptr) uint64 {
	return fs.dev.AtomicLoad64(uint64(ino) + inoBlocksOff)
}

// ensureCapacity grows the file mapping to cover size bytes, allocating
// data blocks from the segmented block allocator with the inode pointer as
// the placement hint ("blocks of the same file closer to each other").
func (fs *FS) ensureCapacity(ino pmem.Ptr, size uint64) error {
	need := (size + BlockSize - 1) / BlockSize
	have := fs.allocatedBlocks(ino)
	for have < need {
		want := need - have
		// Try to grab the whole remainder contiguously, halving on failure.
		var start uint64
		var err error
		n := want
		for {
			start, err = fs.ba.Alloc(n, uint64(ino)>>7)
			if err == nil {
				break
			}
			if n == 1 {
				return fsapi.ErrNoSpace
			}
			n /= 2
		}
		if err := fs.appendExtent(ino, start, n); err != nil {
			fs.ba.Free(start, n)
			return err
		}
		have += n
	}
	return nil
}

// writeAt copies p into the file at off using the NVMM data path:
// non-temporal stores, one fence, then the size/mtime metadata update.
func (fs *FS) writeAt(ino pmem.Ptr, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := fs.ensureCapacity(ino, off+uint64(len(p))); err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		pos := off + uint64(written)
		phys, run, ok := fs.extentFor(ino, pos/BlockSize)
		if !ok {
			return written, fsapi.ErrNoSpace
		}
		within := pos % BlockSize
		avail := run*BlockSize - within
		chunk := uint64(len(p) - written)
		if chunk > avail {
			chunk = avail
		}
		fs.dev.NTStore(phys*BlockSize+within, p[written:written+int(chunk)])
		written += int(chunk)
	}
	// sfence: data durable before the metadata that references it.
	fs.dev.Fence()
	for {
		old := fs.inoSize(ino)
		end := off + uint64(len(p))
		if end <= old {
			break
		}
		if fs.dev.CompareAndSwap64(uint64(ino)+inoSizeOff, old, end) {
			fs.dev.Flush(uint64(ino)+inoSizeOff, 8)
			break
		}
	}
	fs.touchMtimeLazy(ino)
	fs.dev.Fence() // one fence commits size + times
	return written, nil
}

// readAt copies file bytes [off, off+len(p)) into p, returning the count
// (short at EOF).
func (fs *FS) readAt(ino pmem.Ptr, p []byte, off uint64) int {
	size := fs.inoSize(ino)
	if off >= size {
		return 0
	}
	if off+uint64(len(p)) > size {
		p = p[:size-off]
	}
	read := 0
	for read < len(p) {
		pos := off + uint64(read)
		phys, run, ok := fs.extentFor(ino, pos/BlockSize)
		if !ok {
			// Hole (fallocate'd but never written region reads zero).
			for i := read; i < len(p); i++ {
				p[i] = 0
			}
			read = len(p)
			break
		}
		within := pos % BlockSize
		avail := run*BlockSize - within
		chunk := uint64(len(p) - read)
		if chunk > avail {
			chunk = avail
		}
		fs.dev.ReadAt(phys*BlockSize+within, p[read:read+int(chunk)])
		read += int(chunk)
	}
	return read
}

// truncate adjusts the file size; shrinking frees whole blocks past the new
// end (whole extents only — partial extent runs are trimmed).
func (fs *FS) truncate(ino pmem.Ptr, size uint64) error {
	cur := fs.inoSize(ino)
	if size >= cur {
		if err := fs.ensureCapacity(ino, size); err != nil {
			return err
		}
		fs.dev.AtomicStore64(uint64(ino)+inoSizeOff, size)
		fs.dev.Persist(uint64(ino)+inoSizeOff, 8)
		fs.touchMtime(ino)
		return nil
	}
	keep := (size + BlockSize - 1) / BlockSize
	fs.dev.AtomicStore64(uint64(ino)+inoSizeOff, size)
	fs.dev.Persist(uint64(ino)+inoSizeOff, 8)
	fs.trimExtents(ino, keep)
	fs.touchMtime(ino)
	return nil
}

// trimExtents drops all logical blocks >= keep from the extent chain.
func (fs *FS) trimExtents(ino pmem.Ptr, keep uint64) {
	d := fs.dev
	var cum uint64
	prevLink := uint64(ino) + inoDataOff
	eb := fs.inoData(ino)
	for !eb.IsNull() {
		cnt := d.Load64(uint64(eb) + extCountOff)
		var keepEntries uint64
		for i := uint64(0); i < cnt; i++ {
			off := uint64(eb) + extEntriesOff + i*16
			start := d.Load64(off)
			n := d.Load64(off + 8)
			switch {
			case cum+n <= keep:
				cum += n
				keepEntries = i + 1
			case cum >= keep:
				d.AtomicStore64(off+8, 0)
				fs.ba.Free(start, n)
			default: // partial trim
				hold := keep - cum
				d.Store64(off+8, hold)
				d.Persist(off+8, 8)
				fs.ba.Free(start+hold, n-hold)
				cum = keep
				keepEntries = i + 1
			}
		}
		newCnt := keepEntries
		if newCnt != cnt {
			d.AtomicStore64(uint64(eb)+extCountOff, newCnt)
			d.Persist(uint64(eb)+extCountOff, 8)
		}
		next := pmem.Ptr(d.Load64(uint64(eb) + extNextOff))
		if newCnt == 0 && prevLink != 0 {
			// Unlink and free the now-empty extent block.
			d.AtomicStore64(prevLink, uint64(next))
			d.Persist(prevLink, 8)
			fs.oa.Free(ClassExtent, eb)
		} else {
			prevLink = uint64(eb) + extNextOff
		}
		eb = next
	}
	// Recompute the block count.
	var blocks uint64
	for eb := fs.inoData(ino); !eb.IsNull(); eb = pmem.Ptr(d.Load64(uint64(eb) + extNextOff)) {
		cnt := d.Load64(uint64(eb) + extCountOff)
		for i := uint64(0); i < cnt; i++ {
			blocks += d.Load64(uint64(eb) + extEntriesOff + i*16 + 8)
		}
	}
	d.AtomicStore64(uint64(ino)+inoBlocksOff, blocks)
	d.Persist(uint64(ino)+inoBlocksOff, 8)
}

// unlinkInode drops one link; at zero links the inode and its data are
// freed (Fig 5b step 3: the inode is zeroed) — unless open descriptors
// still reference it, in which case the last close frees it (POSIX orphan
// semantics).
func (fs *FS) unlinkInode(ino pmem.Ptr) {
	n := fs.inoNlink(ino)
	if n > 1 {
		fs.setNlink(ino, n-1)
		return
	}
	fs.releaseOrOrphan(ino)
}

// freeInode releases an inode and everything it references.
func (fs *FS) freeInode(ino pmem.Ptr) {
	mode := fs.inoMode(ino)
	data := fs.inoData(ino)
	switch {
	case fsapi.IsDir(mode):
		// The volatile state goes before the blocks do: the next directory
		// to be given one of them must not inherit this one's index.
		fs.dirs.drop(data)
		for b := data; !b.IsNull(); {
			next := fs.nextBlock(b)
			fs.oa.Free(ClassDirBlock, b)
			b = next
		}
	case fsapi.IsSymlink(mode):
		if !data.IsNull() {
			fs.oa.Free(ClassBlob, data)
		}
	default:
		d := fs.dev
		eb := data
		for !eb.IsNull() {
			cnt := d.Load64(uint64(eb) + extCountOff)
			for i := uint64(0); i < cnt; i++ {
				start := d.Load64(uint64(eb) + extEntriesOff + i*16)
				nblk := d.Load64(uint64(eb) + extEntriesOff + i*16 + 8)
				if nblk > 0 {
					fs.ba.Free(start, nblk)
				}
			}
			next := pmem.Ptr(d.Load64(uint64(eb) + extNextOff))
			fs.oa.Free(ClassExtent, eb)
			eb = next
		}
	}
	fs.dropFileLock(ino)
	fs.oa.Free(ClassInode, ino)
}

// newSymlinkInode creates a symlink inode whose data blob holds target.
func (fs *FS) newSymlinkInode(cred fsapi.Cred, target string, hint uint64) (pmem.Ptr, error) {
	if len(target) > blobCap {
		return 0, fsapi.ErrNameTooLong
	}
	ino, err := fs.newInode(cred, fsapi.ModeSymlink|0o777, hint)
	if err != nil {
		return 0, err
	}
	blob, err := fs.oa.Alloc(ClassBlob, hint)
	if err != nil {
		fs.oa.Free(ClassInode, ino)
		return 0, err
	}
	d := fs.dev
	d.AtomicStore64(uint64(blob)+blobLenOff, uint64(len(target)))
	d.AtomicWriteAt(uint64(blob)+blobDataOff, []byte(target))
	d.Persist(uint64(blob), BlobSize)
	fs.oa.ClearDirty(blob)
	d.AtomicStore64(uint64(ino)+inoDataOff, uint64(blob))
	d.AtomicStore64(uint64(ino)+inoSizeOff, uint64(len(target)))
	d.Persist(uint64(ino), InodeSize)
	return ino, nil
}

// readSymlink returns the target stored in a symlink inode.
func (fs *FS) readSymlink(ino pmem.Ptr) (string, error) {
	blob := fs.inoData(ino)
	if !fs.plausible(blob, BlobSize) {
		return "", fsapi.ErrInval
	}
	n := fs.dev.AtomicLoad64(uint64(blob) + blobLenOff)
	if n > blobCap {
		return "", fsapi.ErrInval
	}
	buf := make([]byte, n)
	fs.dev.AtomicReadAt(uint64(blob)+blobDataOff, buf)
	return string(buf), nil
}
