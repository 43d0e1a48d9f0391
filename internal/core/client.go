package core

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Client is one attached process: its credentials (fixed at preload time
// and held in the protected pages, §3.2) plus its private open-file map
// (§4.3). Everything else is shared NVMM. Each public operation models one
// protected-function call and charges the jmpp/pret delta.
type Client struct {
	fs       *FS
	cred     fsapi.Cred
	obsShard uint32
	nextFD   atomic.Int32
	files    sync.Map // fsapi.FD -> *openFile
}

// openFile is one open-file-map entry: open mode, current position, and the
// persistent pointer to the inode (no inode numbers exist).
type openFile struct {
	ino    pmem.Ptr
	flags  fsapi.OpenFlag
	pos    atomic.Uint64
	append bool
}

const maxSymlinkDepth = 10

// Attach registers a process with the volume.
func (fs *FS) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	c := &Client{fs: fs, cred: cred, obsShard: fs.obsR.ShardHint()}
	c.nextFD.Store(2) // 0/1/2 conventionally reserved
	return c, nil
}

// Name implements fsapi.FileSystem.
func (fs *FS) Name() string { return "simurgh" }

// opCall scopes one public operation through the instrumented dispatch
// path. begin charges the protected-call (jmpp/pret) cost and, when the op
// class is deep-sampled, opens a latency/NVMM-attribution window; end
// records the outcome. The pair is the only instrumentation entry point:
// every public operation is written as
//
//	func (c *Client) X(...) (..., err error) {
//		defer c.begin(obs.OpX).end(&err)
//		...
//	}
//
// so per-op counters, latency histograms and flush/fence attribution stay
// in lockstep with the cost model by construction. Attribution windows
// snapshot the shared device counters, so they are exact when operations do
// not overlap and an upper bound under concurrency (see package obs).
type opCall struct {
	c  *Client
	op obs.Op
	w  *opWindow // non-nil only for deep-sampled calls
}

// opWindow is the deep-sampling state of one operation window. It lives
// behind a pointer so the common (non-sampled) opCall stays small enough to
// copy through the deferred end for a few nanoseconds; the allocation is
// paid only once per sample period.
type opWindow struct {
	start time.Time
	base  pmem.StatsSnapshot
}

// begin is the single cost/instrumentation entry helper of the client.
func (c *Client) begin(op obs.Op) opCall {
	c.fs.costM.Cross()
	oc := opCall{c: c, op: op}
	if c.fs.obsR.EnterAt(c.obsShard, op) {
		oc.w = &opWindow{base: c.fs.dev.StatsSnapshot(), start: time.Now()}
	}
	return oc
}

// end closes the operation window; errp points at the operation's named
// error result so a deferred end observes the final outcome.
func (oc opCall) end(errp *error) {
	fs := oc.c.fs
	failed := errp != nil && *errp != nil
	if failed {
		fs.obsR.ErrorAt(oc.c.obsShard, oc.op)
	}
	if oc.w != nil {
		lat := time.Since(oc.w.start)
		delta := fs.dev.StatsSnapshot().Sub(oc.w.base)
		fs.obsR.SampleAt(oc.c.obsShard, oc.op, oc.w.start, uint64(lat.Nanoseconds()), toDelta(delta), failed)
	}
}

// resolve walks path from the root, enforcing execute permission on every
// traversed directory and following symlinks (up to maxSymlinkDepth). If
// followLast is false a final symlink is returned as-is.
func (c *Client) resolve(path string, followLast bool) (pmem.Ptr, error) {
	ref, err := c.resolveEntry(path, followLast)
	return ref.inode, err
}

// resolveEntry is resolve for callers that go on to pin the file: it
// returns the entry that names it (see entryRef for the root).
//
// A plain path is walked in place, component by component, and a hit
// allocates nothing; a path with "." or ".." goes through SplitPath first.
func (c *Client) resolveEntry(path string, followLast bool) (entryRef, error) {
	plain, err := fsapi.CheckPath(path)
	if err != nil {
		return entryRef{}, err
	}
	if plain {
		return c.walkPath(c.fs.rootInode, path, followLast)
	}
	comps, err := fsapi.SplitPath(path)
	if err != nil {
		return entryRef{}, err
	}
	return c.walkFrom(c.fs.rootInode, comps, followLast, 0)
}

// step looks name up in the directory inode dir, which the client must be
// allowed to search.
func (c *Client) step(dir pmem.Ptr, name string) (entryRef, error) {
	fs := c.fs
	mode := fs.inoMode(dir)
	if !fsapi.IsDir(mode) {
		return entryRef{}, fsapi.ErrNotDir
	}
	if err := fsapi.CheckPerm(c.cred, fs.inoUID(dir), fs.inoGID(dir), mode, fsapi.AccessExec); err != nil {
		return entryRef{}, err
	}
	return fs.lookupEntry(fs.inoData(dir), name)
}

// walkPath resolves the components of a plain path starting at an arbitrary
// directory inode. Only a symlink makes it materialize components: what is
// left of the path is split, and walkFrom takes over.
func (c *Client) walkPath(start pmem.Ptr, path string, followLast bool) (entryRef, error) {
	cur := entryRef{inode: start}
	name, rest := fsapi.NextComponent(path, 0)
	for name != "" {
		ref, err := c.step(cur.inode, name)
		if err != nil {
			return entryRef{}, err
		}
		name, rest = fsapi.NextComponent(path, rest)
		if fsapi.IsSymlink(c.fs.inoMode(ref.inode)) && (name != "" || followLast) {
			var tail []string
			for ; name != ""; name, rest = fsapi.NextComponent(path, rest) {
				tail = append(tail, name)
			}
			return c.followSymlink(cur.inode, ref, tail, followLast, 0)
		}
		cur = ref
	}
	return cur, nil
}

// walkFrom is walkPath over components that are already split.
func (c *Client) walkFrom(start pmem.Ptr, comps []string, followLast bool, depth int) (entryRef, error) {
	cur := entryRef{inode: start}
	for i, name := range comps {
		ref, err := c.step(cur.inode, name)
		if err != nil {
			return entryRef{}, err
		}
		if fsapi.IsSymlink(c.fs.inoMode(ref.inode)) && (i < len(comps)-1 || followLast) {
			return c.followSymlink(cur.inode, ref, comps[i+1:], followLast, depth)
		}
		cur = ref
	}
	return cur, nil
}

// followSymlink continues a walk through the symlink link, found in
// directory inode dir, with rest still to go after it.
func (c *Client) followSymlink(dir pmem.Ptr, link entryRef, rest []string, followLast bool, depth int) (entryRef, error) {
	if depth >= maxSymlinkDepth {
		return entryRef{}, fsapi.ErrLoop
	}
	target, err := c.fs.readSymlink(link.inode)
	if err != nil {
		return entryRef{}, err
	}
	if !c.fs.stillNames(link) {
		// Unlinked under the walk: what was read may be anything.
		return entryRef{}, fsapi.ErrNotExist
	}
	comps, err := fsapi.SplitPath(target)
	if err != nil {
		return entryRef{}, err
	}
	if target != "" && target[0] == '/' {
		dir = c.fs.rootInode
	}
	return c.walkFrom(dir, append(comps, rest...), followLast, depth+1)
}

// resolveParent returns the parent directory inode of path and the final
// component name, checking write+exec permission on the parent when
// forWrite is set.
func (c *Client) resolveParent(path string, forWrite bool) (pmem.Ptr, string, error) {
	plain, err := fsapi.CheckPath(path)
	if err != nil {
		return 0, "", err
	}
	var dir entryRef
	var name string
	if plain {
		var dirPath string
		if dirPath, name = fsapi.SplitLast(path); name == "" {
			return 0, "", fsapi.ErrInval
		}
		dir, err = c.walkPath(c.fs.rootInode, dirPath, true)
	} else {
		var comps []string
		if comps, name, err = fsapi.BaseDir(path); err != nil {
			return 0, "", err
		}
		dir, err = c.walkFrom(c.fs.rootInode, comps, true, 0)
	}
	if err != nil {
		return 0, "", err
	}
	parent := dir.inode
	if !fsapi.IsDir(c.fs.inoMode(parent)) {
		return 0, "", fsapi.ErrNotDir
	}
	want := fsapi.AccessExec
	if forWrite {
		want |= fsapi.AccessWrite
	}
	if err := fsapi.CheckPerm(c.cred, c.fs.inoUID(parent), c.fs.inoGID(parent), c.fs.inoMode(parent), want); err != nil {
		return 0, "", err
	}
	return parent, name, nil
}

// pin takes an open reference on the inode a lookup returned. Lookups are
// optimistic: until the reference is held, the file can be unlinked and its
// inode freed, even recycled, under the caller. So the reference comes
// first and then the lookup must still hold (settled); if it does not, the
// reference is dropped and pin reports false: resolve again.
func (c *Client) pin(ref entryRef) (bool, error) {
	fs := c.fs
	if err := fs.incRef(ref.inode); err != nil {
		if fs.settled(ref) {
			return false, err // a live entry naming a dead inode: not a race
		}
		return false, nil
	}
	if !fs.settled(ref) {
		fs.decRef(ref.inode)
		return false, nil
	}
	return true, nil
}

func (c *Client) file(fd fsapi.FD) (*openFile, error) {
	v, ok := c.files.Load(fd)
	if !ok {
		return nil, fsapi.ErrBadFD
	}
	return v.(*openFile), nil
}

// Create implements fsapi.Client. It is charged and attributed as its own
// op class (the paper's figures single out file creation).
func (c *Client) Create(path string, perm uint32) (fd fsapi.FD, err error) {
	defer c.begin(obs.OpCreate).end(&err)
	return c.open(path, fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc, perm)
}

// Open implements fsapi.Client.
func (c *Client) Open(path string, flags fsapi.OpenFlag, perm uint32) (fd fsapi.FD, err error) {
	defer c.begin(obs.OpOpen).end(&err)
	return c.open(path, flags, perm)
}

// open is the shared uninstrumented open/create path. Whatever it returns a
// descriptor for is pinned first (see pin); losing a race against an unlink
// or another creator means starting over, so O_CREAT fails with ErrNotExist
// only when a directory on the way is missing.
func (c *Client) open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	dangling := false
	for {
		ref, err := c.resolveEntry(path, true)
		switch {
		case err == nil:
			if flags&(fsapi.OCreate|fsapi.OExcl) == fsapi.OCreate|fsapi.OExcl {
				return -1, fsapi.ErrExist
			}
			if ok, err := c.pin(ref); err != nil {
				return -1, err
			} else if !ok {
				continue
			}
			return c.openPinned(ref.inode, flags)
		case err == fsapi.ErrNotExist && flags&fsapi.OCreate != 0 && !dangling:
			parent, name, perr := c.resolveParent(path, true)
			if perr != nil {
				return -1, perr
			}
			ino, err := c.createFile(parent, name, perm)
			if err == fsapi.ErrExist && flags&fsapi.OExcl == 0 {
				// Somebody else's entry is in the way. A file: look again,
				// one of us wins. A symlink to nothing stays in the way
				// however often we look, so that is looked at once more only.
				ref, lerr := c.fs.lookupEntry(c.fs.inoData(parent), name)
				dangling = lerr == nil && ref.symlink
				continue
			}
			if err != nil {
				return -1, err
			}
			// The file is new and empty, and made by this caller: like
			// POSIX, the create grants what flags ask whatever perm says,
			// and there is nothing to truncate.
			return c.newFD(ino, flags), nil
		default:
			return -1, err
		}
	}
}

// openPinned finishes an open of a pinned inode: access checks and
// truncation, then the descriptor. On failure the pin is released.
func (c *Client) openPinned(ino pmem.Ptr, flags fsapi.OpenFlag) (fsapi.FD, error) {
	if err := c.admit(ino, flags); err != nil {
		c.fs.decRef(ino)
		return -1, err
	}
	return c.newFD(ino, flags), nil
}

// newFD installs a descriptor for the pinned inode ino.
func (c *Client) newFD(ino pmem.Ptr, flags fsapi.OpenFlag) fsapi.FD {
	fd := fsapi.FD(c.nextFD.Add(1))
	c.files.Store(fd, &openFile{ino: ino, flags: flags, append: flags&fsapi.OAppend != 0})
	return fd
}

// ReserveFDs makes every descriptor the client hands out from now on greater
// than last. Numbers only ever rise, so a replica that reserves up to one
// below the number its primary handed out gets exactly that number.
func (c *Client) ReserveFDs(last fsapi.FD) {
	for cur := c.nextFD.Load(); cur < int32(last); cur = c.nextFD.Load() {
		if c.nextFD.CompareAndSwap(cur, int32(last)) {
			return
		}
	}
}

// admit checks that the client may open ino with flags, and truncates it
// if they say so.
func (c *Client) admit(ino pmem.Ptr, flags fsapi.OpenFlag) error {
	fs := c.fs
	mode := fs.inoMode(ino)
	writing := flags&(fsapi.OWronly|fsapi.ORdwr) != 0
	if fsapi.IsDir(mode) && writing {
		return fsapi.ErrIsDir
	}
	var want uint32
	if writing {
		want |= fsapi.AccessWrite
	}
	if flags&fsapi.OWronly == 0 {
		want |= fsapi.AccessRead
	}
	if err := fsapi.CheckPerm(c.cred, fs.inoUID(ino), fs.inoGID(ino), mode, want); err != nil {
		return err
	}
	if flags&fsapi.OTrunc != 0 && fsapi.IsRegular(mode) && writing {
		fs.lockFile(ino)
		err := fs.truncate(ino, 0)
		fs.unlockFile(ino)
		return err
	}
	return nil
}

// createFile allocates the inode and inserts the directory entry (Fig 5a).
// The inode comes back pinned: the open reference is taken before the entry
// makes the file visible, so nobody can unlink and free it first.
func (c *Client) createFile(parent pmem.Ptr, name string, perm uint32) (pmem.Ptr, error) {
	fs := c.fs
	ino, err := fs.newInode(c.cred, fsapi.ModeRegular|perm&fsapi.ModePermMask, uint64(parent))
	if err != nil {
		return 0, err
	}
	if err := fs.incRef(ino); err != nil {
		return 0, err
	}
	if err := fs.createEntry(fs.inoData(parent), name, ino, false); err != nil {
		fs.decRef(ino)
		fs.oa.Free(ClassInode, ino)
		return 0, err
	}
	return ino, nil
}

// Close implements fsapi.Client.
func (c *Client) Close(fd fsapi.FD) (err error) {
	defer c.begin(obs.OpClose).end(&err)
	v, ok := c.files.LoadAndDelete(fd)
	if !ok {
		return fsapi.ErrBadFD
	}
	c.fs.decRef(v.(*openFile).ino)
	return nil
}

// Read implements fsapi.Client.
func (c *Client) Read(fd fsapi.FD, p []byte) (n int, err error) {
	defer c.begin(obs.OpRead).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	pos := of.pos.Load()
	n = c.readLocked(of.ino, p, pos)
	of.pos.Store(pos + uint64(n))
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Pread implements fsapi.Client.
func (c *Client) Pread(fd fsapi.FD, p []byte, off uint64) (n int, err error) {
	defer c.begin(obs.OpPread).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	n = c.readLocked(of.ino, p, off)
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (c *Client) readLocked(ino pmem.Ptr, p []byte, off uint64) int {
	c.fs.rlockFile(ino)
	n := c.fs.readAt(ino, p, off)
	c.fs.runlockFile(ino)
	return n
}

// Write implements fsapi.Client.
func (c *Client) Write(fd fsapi.FD, p []byte) (n int, err error) {
	defer c.begin(obs.OpWrite).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	fs := c.fs
	if of.append {
		// Appends are exclusive regardless of the relaxed-write setting:
		// the position is defined by the current size.
		fs.lockFile(of.ino)
		pos := fs.inoSize(of.ino)
		n, err := fs.writeAt(of.ino, p, pos)
		fs.unlockFile(of.ino)
		of.pos.Store(pos + uint64(n))
		return n, err
	}
	pos := of.pos.Load()
	n, err = c.writeLocked(of.ino, p, pos)
	of.pos.Store(pos + uint64(n))
	return n, err
}

// Pwrite implements fsapi.Client.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off uint64) (n int, err error) {
	defer c.begin(obs.OpPwrite).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	return c.writeLocked(of.ino, p, off)
}

// writeLocked applies the file-granular exclusive write lock, which relaxed
// mode (Fig 7k) skips for an overwrite of stored bytes: one that ends at or
// below both the size and the zero mark. Any other write may zero a hole,
// move the mark or grow the mapping, and a concurrent write into the range
// it zeroes would be lost, so it takes the lock in either mode. Neither the
// size nor the mark falls short of a past overwrite's end except by a
// shrink, so no locked write zeroes what a lock-free one stored.
func (c *Client) writeLocked(ino pmem.Ptr, p []byte, off uint64) (int, error) {
	fs := c.fs
	if fs.relaxedWrites && off+uint64(len(p)) <= min(fs.inoSize(ino), fs.inoZeroFrom(ino)) {
		return fs.writeAt(ino, p, off)
	}
	fs.lockFile(ino)
	n, err := fs.writeAt(ino, p, off)
	fs.unlockFile(ino)
	return n, err
}

// Seek implements fsapi.Client.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (pos int64, err error) {
	defer c.begin(obs.OpSeek).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case fsapi.SeekSet:
		base = 0
	case fsapi.SeekCur:
		base = int64(of.pos.Load())
	case fsapi.SeekEnd:
		base = int64(c.fs.inoSize(of.ino))
	default:
		return 0, fsapi.ErrInval
	}
	np := base + off
	if np < 0 {
		return 0, fsapi.ErrInval
	}
	of.pos.Store(uint64(np))
	return np, nil
}

// Fsync implements fsapi.Client. Simurgh persists data and metadata inline
// (non-temporal stores + fences), so fsync only issues a fence.
func (c *Client) Fsync(fd fsapi.FD) (err error) {
	defer c.begin(obs.OpFsync).end(&err)
	if _, err := c.file(fd); err != nil {
		return err
	}
	c.fs.dev.Fence()
	return nil
}

// Ftruncate implements fsapi.Client.
func (c *Client) Ftruncate(fd fsapi.FD, size uint64) (err error) {
	defer c.begin(obs.OpFtruncate).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	c.fs.lockFile(of.ino)
	err = c.fs.truncate(of.ino, size)
	c.fs.unlockFile(of.ino)
	return err
}

// Fallocate implements fsapi.Client: preallocates blocks for [0, size)
// without storing to them (the configuration the paper benchmarks); what
// it adds to the size reads zero through the zero mark.
func (c *Client) Fallocate(fd fsapi.FD, size uint64) (err error) {
	defer c.begin(obs.OpFallocate).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	// Extent growth must be exclusive with writers (the write path also
	// extends the mapping under this lock), and so is every size store.
	fs, ino := c.fs, of.ino
	fs.lockFile(ino)
	err = fs.ensureCapacity(ino, size)
	// fallocate extends the visible size (FALLOC_FL_KEEP_SIZE unset).
	if old := fs.inoSize(ino); err == nil && size > old {
		fs.markZeroFrom(ino, old)
		fs.dev.AtomicStore64(uint64(ino)+inoSizeOff, size)
		fs.dev.Persist(uint64(ino)+inoSizeOff, 8)
	}
	fs.unlockFile(ino)
	return err
}

// Fstat implements fsapi.Client.
func (c *Client) Fstat(fd fsapi.FD) (st fsapi.Stat, err error) {
	defer c.begin(obs.OpFstat).end(&err)
	of, err := c.file(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return c.fs.statOf(of.ino), nil
}

// Stat implements fsapi.Client.
func (c *Client) Stat(path string) (st fsapi.Stat, err error) {
	defer c.begin(obs.OpStat).end(&err)
	return c.stat(path, true)
}

// Lstat implements fsapi.Client.
func (c *Client) Lstat(path string) (st fsapi.Stat, err error) {
	defer c.begin(obs.OpLstat).end(&err)
	return c.stat(path, false)
}

// stat reads the attributes of what path names. It takes no reference, so
// the attributes only count if the lookup still holds afterwards (settled):
// otherwise the file was unlinked meanwhile and what was read may belong to
// whatever the inode has been recycled into.
func (c *Client) stat(path string, followLast bool) (fsapi.Stat, error) {
	for {
		ref, err := c.resolveEntry(path, followLast)
		if err != nil {
			return fsapi.Stat{}, err
		}
		if st := c.fs.statOf(ref.inode); c.fs.settled(ref) {
			return st, nil
		}
	}
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, perm uint32) (err error) {
	defer c.begin(obs.OpMkdir).end(&err)
	fs := c.fs
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	if fs.nameTaken(parent, name) {
		return fsapi.ErrExist
	}
	ino, err := fs.newInode(c.cred, fsapi.ModeDir|perm&fsapi.ModePermMask, uint64(parent))
	if err != nil {
		return err
	}
	first, err := fs.oa.Alloc(ClassDirBlock, uint64(ino))
	if err != nil {
		fs.oa.Free(ClassInode, ino)
		return err
	}
	fs.oa.ClearDirty(first)
	// A walker that resolved the block's previous directory as it was being
	// removed may have rebuilt state for it since freeInode dropped it.
	fs.dirs.drop(first)
	fs.dev.AtomicStore64(uint64(ino)+inoDataOff, uint64(first))
	fs.dev.AtomicStore32(uint64(ino)+inoNlinkOff, 2)
	fs.dev.Persist(uint64(ino), InodeSize)
	if err := fs.createEntry(fs.inoData(parent), name, ino, false); err != nil {
		fs.freeInode(ino)
		return err
	}
	return nil
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) (err error) {
	defer c.begin(obs.OpRmdir).end(&err)
	fs := c.fs
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	ref, err := fs.lookupEntry(fs.inoData(parent), name)
	if err != nil {
		return err
	}
	if !fsapi.IsDir(fs.inoMode(ref.inode)) {
		return fsapi.ErrNotDir
	}
	if !fs.dirEmpty(fs.inoData(ref.inode)) {
		return fsapi.ErrNotEmpty
	}
	wantDir := true
	ino, err := fs.removeEntry(fs.inoData(parent), name, &wantDir)
	if err != nil {
		return err
	}
	fs.freeInode(ino)
	return nil
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) (err error) {
	defer c.begin(obs.OpUnlink).end(&err)
	fs := c.fs
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	wantDir := false
	ino, err := fs.removeEntry(fs.inoData(parent), name, &wantDir)
	if err != nil {
		return err
	}
	fs.unlinkInode(ino)
	return nil
}

// Rename implements fsapi.Client.
func (c *Client) Rename(oldPath, newPath string) (err error) {
	defer c.begin(obs.OpRename).end(&err)
	fs := c.fs
	oldParent, oldName, err := c.resolveParent(oldPath, true)
	if err != nil {
		return err
	}
	newParent, newName, err := c.resolveParent(newPath, true)
	if err != nil {
		return err
	}
	if oldParent == newParent {
		if oldName == newName {
			return nil
		}
		return fs.renameSameDir(fs.inoData(oldParent), oldName, newName)
	}
	return fs.renameCrossDir(fs.inoData(oldParent), fs.inoData(newParent), oldName, newName)
}

// Symlink implements fsapi.Client.
func (c *Client) Symlink(target, linkPath string) (err error) {
	defer c.begin(obs.OpSymlink).end(&err)
	fs := c.fs
	parent, name, err := c.resolveParent(linkPath, true)
	if err != nil {
		return err
	}
	if fs.nameTaken(parent, name) {
		return fsapi.ErrExist
	}
	ino, err := fs.newSymlinkInode(c.cred, target, uint64(parent))
	if err != nil {
		return err
	}
	if err := fs.createEntry(fs.inoData(parent), name, ino, true); err != nil {
		fs.freeInode(ino)
		return err
	}
	return nil
}

// Link implements fsapi.Client: hard links are distinct file entries
// pointing at the same inode, with a reference count in the inode (§4.3).
func (c *Client) Link(oldPath, newPath string) (err error) {
	defer c.begin(obs.OpLink).end(&err)
	fs := c.fs
	ino, err := c.resolve(oldPath, true)
	if err != nil {
		return err
	}
	if fsapi.IsDir(fs.inoMode(ino)) {
		return fsapi.ErrIsDir
	}
	parent, name, err := c.resolveParent(newPath, true)
	if err != nil {
		return err
	}
	if fs.nameTaken(parent, name) {
		return fsapi.ErrExist
	}
	fs.setNlink(ino, fs.inoNlink(ino)+1)
	if err := fs.createEntry(fs.inoData(parent), name, ino, false); err != nil {
		fs.setNlink(ino, fs.inoNlink(ino)-1)
		return err
	}
	return nil
}

// Readlink implements fsapi.Client.
func (c *Client) Readlink(path string) (target string, err error) {
	defer c.begin(obs.OpReadlink).end(&err)
	ino, err := c.resolve(path, false)
	if err != nil {
		return "", err
	}
	if !fsapi.IsSymlink(c.fs.inoMode(ino)) {
		return "", fsapi.ErrInval
	}
	return c.fs.readSymlink(ino)
}

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) (ents []fsapi.DirEntry, err error) {
	defer c.begin(obs.OpReadDir).end(&err)
	fs := c.fs
	ino, err := c.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if !fsapi.IsDir(fs.inoMode(ino)) {
		return nil, fsapi.ErrNotDir
	}
	if err := fsapi.CheckPerm(c.cred, fs.inoUID(ino), fs.inoGID(ino), fs.inoMode(ino), fsapi.AccessRead); err != nil {
		return nil, err
	}
	return fs.listDir(fs.inoData(ino)), nil
}

// Chmod implements fsapi.Client.
func (c *Client) Chmod(path string, perm uint32) (err error) {
	defer c.begin(obs.OpChmod).end(&err)
	fs := c.fs
	ino, err := c.resolve(path, true)
	if err != nil {
		return err
	}
	if c.cred.UID != 0 && c.cred.UID != fs.inoUID(ino) {
		return fsapi.ErrPerm
	}
	mode := fs.inoMode(ino)&fsapi.ModeTypeMask | perm&fsapi.ModePermMask
	fs.dev.AtomicStore32(uint64(ino)+inoModeOff, mode)
	fs.dev.Persist(uint64(ino)+inoModeOff, 4)
	fs.touchMtime(ino)
	return nil
}

// Utimes implements fsapi.Client.
func (c *Client) Utimes(path string, atime, mtime int64) (err error) {
	defer c.begin(obs.OpUtimes).end(&err)
	fs := c.fs
	ino, err := c.resolve(path, true)
	if err != nil {
		return err
	}
	if c.cred.UID != 0 && c.cred.UID != fs.inoUID(ino) {
		return fsapi.ErrPerm
	}
	fs.dev.AtomicStore64(uint64(ino)+inoAtimeOff, uint64(atime))
	fs.dev.AtomicStore64(uint64(ino)+inoMtimeOff, uint64(mtime))
	fs.dev.Persist(uint64(ino)+inoAtimeOff, 16)
	return nil
}

// Detach implements fsapi.Client.
func (c *Client) Detach() (err error) {
	defer c.begin(obs.OpDetach).end(&err)
	c.files.Range(func(k, v any) bool {
		if _, ok := c.files.LoadAndDelete(k); ok {
			c.fs.decRef(v.(*openFile).ino)
		}
		return true
	})
	return nil
}
