// Package splitfs reimplements the SplitFS design (SOSP '19) the paper
// benchmarks against: metadata operations go through the kernel path
// (EXT4-DAX under the simulated VFS, paying syscalls and kernel locks),
// while data operations run in user space. Appends are staged into
// preallocated staging blocks with plain user-space NVMM writes and are
// "relinked" into the file with a single syscall at fsync time — the
// optimization that makes SplitFS extremely fast for appends at low thread
// counts (Fig 7g). POSIX mode (the strictest the paper uses) is modelled.
package splitfs

import (
	"io"
	"sync"
	"sync/atomic"

	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/kfs"
	"simurgh/internal/pmem"
	"simurgh/internal/vfs"
)

// stagingRunBlocks is how many blocks each staging region spans (SplitFS
// preallocates staging files and hands out regions from them).
const stagingRunBlocks = 16

const blockSize = kfs.BlockSize

// FS is a mounted SplitFS: an EXT4-DAX inner file system with a user-space
// data path layered on top.
type FS struct {
	inner *kfs.FS
	meta  *vfs.VFS
	costM *cost.Model

	mu      sync.Mutex
	staging map[vfs.NodeID]*staging
}

type staging struct {
	mu    sync.Mutex
	runs  []stRun
	base  uint64 // visible file size when staging began
	used  uint64 // staged bytes
	avail uint64 // staged capacity in bytes (minus the in-block head offset)
}

type stRun struct{ start, n uint64 }

// New creates a SplitFS over a fresh EXT4-DAX instance on dev.
func New(dev *pmem.Device, costM *cost.Model) *FS {
	inner := kfs.New(kfs.KindExtDax, dev)
	return &FS{
		inner:   inner,
		meta:    vfs.New(inner, costM),
		costM:   costM,
		staging: make(map[vfs.NodeID]*staging),
	}
}

// Name implements fsapi.FileSystem.
func (fs *FS) Name() string { return "splitfs" }

// Inner exposes the EXT4-DAX metadata file system (benchmark wiring).
func (fs *FS) Inner() *kfs.FS { return fs.inner }

// Attach implements fsapi.FileSystem.
func (fs *FS) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	mc, err := fs.meta.Attach(cred)
	if err != nil {
		return nil, err
	}
	return &Client{fs: fs, meta: mc.(*vfs.Client)}, nil
}

func (fs *FS) stagingOf(n vfs.NodeID) *staging {
	fs.mu.Lock()
	st := fs.staging[n]
	if st == nil {
		st = &staging{}
		fs.staging[n] = st
	}
	fs.mu.Unlock()
	return st
}

// Client is one attached process.
type Client struct {
	fs     *FS
	meta   *vfs.Client
	nextFD atomic.Int32
	files  sync.Map // fsapi.FD -> *openFile
}

type openFile struct {
	metaFD fsapi.FD
	node   vfs.NodeID
	flags  fsapi.OpenFlag
	pos    atomic.Uint64
	append bool
}

func (c *Client) file(fd fsapi.FD) (*openFile, error) {
	v, ok := c.files.Load(fd)
	if !ok {
		return nil, fsapi.ErrBadFD
	}
	return v.(*openFile), nil
}

// Open routes through the kernel metadata path, then sets up the user-space
// data path for the file.
func (c *Client) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	mfd, err := c.meta.Open(path, flags, perm)
	if err != nil {
		return -1, err
	}
	st, err := c.meta.Fstat(mfd)
	if err != nil {
		return -1, err
	}
	fd := fsapi.FD(c.nextFD.Add(1)) + 1000
	c.files.Store(fd, &openFile{
		metaFD: mfd,
		node:   vfs.NodeID(st.Ino),
		flags:  flags,
		append: flags&fsapi.OAppend != 0,
	})
	return fd, nil
}

// Create implements fsapi.Client.
func (c *Client) Create(path string, perm uint32) (fsapi.FD, error) {
	return c.Open(path, fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc, perm)
}

// Close implements fsapi.Client: relinks pending appends (SplitFS keeps
// staged data visible via its own mapping, but close makes it durable).
func (c *Client) Close(fd fsapi.FD) error {
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	c.fs.relink(of.node)
	c.files.Delete(fd)
	return c.meta.Close(of.metaFD)
}

// visibleSize is the inner size plus pending staged bytes.
func (fs *FS) visibleSize(n vfs.NodeID) uint64 {
	attr, err := fs.inner.GetAttr(n)
	if err != nil {
		return 0
	}
	st := fs.stagingOf(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.used > 0 {
		return st.base + st.used
	}
	return attr.Size
}

// relink merges staged appends into the file with one syscall: unaligned
// head bytes are copied, whole staged blocks are attached to the extent
// tree without copying.
func (fs *FS) relink(n vfs.NodeID) {
	st := fs.stagingOf(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	fs.relinkLocked(n, st)
}

func (fs *FS) relinkLocked(n vfs.NodeID, st *staging) {
	if st.used == 0 {
		return
	}
	fs.costM.Cross() // the relink ioctl
	dev := fs.inner.Device()
	oldSize := st.base
	headOff := oldSize % blockSize
	remaining := st.used
	pos := oldSize
	first := true
	for _, r := range st.runs {
		if remaining == 0 {
			fs.inner.FreeBlocks(r.start, r.n)
			continue
		}
		runStart, runBlocks := r.start, r.n
		srcOff := runStart * blockSize
		if first && headOff != 0 {
			// Copy the unaligned head into the file's existing tail block.
			head := blockSize - headOff
			if head > remaining {
				head = remaining
			}
			buf := make([]byte, head)
			dev.ReadAt(srcOff+headOff, buf)
			fs.inner.WriteAt(n, buf, pos)
			pos += head
			remaining -= head
			// The head consumed staging block 0; the rest of the run is
			// block-aligned and can be attached directly.
			fs.inner.FreeBlocks(runStart, 1)
			runStart++
			runBlocks--
		}
		first = false
		if runBlocks > 0 && remaining > 0 {
			attach := (remaining + blockSize - 1) / blockSize
			if attach > runBlocks {
				attach = runBlocks
			}
			fs.inner.AppendRun(n, runStart, attach)
			take := attach * blockSize
			if take > remaining {
				take = remaining
			}
			pos += take
			remaining -= take
			if attach < runBlocks {
				fs.inner.FreeBlocks(runStart+attach, runBlocks-attach)
			}
		} else if runBlocks > 0 {
			fs.inner.FreeBlocks(runStart, runBlocks)
		}
	}
	fs.inner.SetSize(n, st.base+st.used)
	st.runs = nil
	st.used = 0
	st.avail = 0
	st.base = 0
}

// stageAppend copies p into staging blocks with user-space NVMM writes.
func (fs *FS) stageAppend(n vfs.NodeID, p []byte) (int, error) {
	st := fs.stagingOf(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.used == 0 {
		attr, err := fs.inner.GetAttr(n)
		if err != nil {
			return 0, err
		}
		st.base = attr.Size
	}
	dev := fs.inner.Device()
	headOff := st.base % blockSize
	written := 0
	for written < len(p) {
		if st.used >= st.avail {
			// Grab a fresh staging region (occasionally hits the kernel to
			// preallocate, amortized over the region size).
			fs.costM.Cross()
			start, err := fs.inner.AllocBlocks(stagingRunBlocks, uint64(n))
			if err != nil {
				fs.relinkLocked(n, st)
				return written, err
			}
			st.runs = append(st.runs, stRun{start, stagingRunBlocks})
			add := uint64(stagingRunBlocks) * blockSize
			if len(st.runs) == 1 {
				add -= headOff // first block starts at the head offset
			}
			st.avail += add
		}
		// Locate the staging position for byte st.used.
		off := headOff + st.used
		runIdx := off / (stagingRunBlocks * blockSize)
		within := off % (stagingRunBlocks * blockSize)
		r := st.runs[runIdx]
		space := r.n*blockSize - within
		chunk := uint64(len(p) - written)
		if chunk > space {
			chunk = space
		}
		if chunk > st.avail-st.used {
			chunk = st.avail - st.used
		}
		dst := r.start*blockSize + within
		dev.NTStore(dst, p[written:written+int(chunk)])
		written += int(chunk)
		st.used += chunk
	}
	dev.Fence()
	return written, nil
}

// Read implements fsapi.Client (user-space data path).
func (c *Client) Read(fd fsapi.FD, p []byte) (int, error) {
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	pos := of.pos.Load()
	n, err := c.pread(of, p, pos)
	of.pos.Store(pos + uint64(n))
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// Pread implements fsapi.Client.
func (c *Client) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	n, err := c.pread(of, p, off)
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

func (c *Client) pread(of *openFile, p []byte, off uint64) (int, error) {
	// Reads of files with pending staged appends first relink (SplitFS
	// tracks staged extents in its user-space mapping; flushing on read
	// keeps our model simple and costs one syscall, which only makes
	// SplitFS *faster* than reality in read-heavy phases... it does not:
	// it adds the relink cost; either way appends dominate its profile).
	st := c.fs.stagingOf(of.node)
	st.mu.Lock()
	pending := st.used > 0
	st.mu.Unlock()
	if pending {
		c.fs.relink(of.node)
	}
	return c.fs.inner.ReadAt(of.node, p, off)
}

// Write implements fsapi.Client: appends take the staging path; overwrites
// within the file go straight to NVMM in user space.
func (c *Client) Write(fd fsapi.FD, p []byte) (int, error) {
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	if of.append {
		n, err := c.fs.stageAppend(of.node, p)
		of.pos.Store(c.fs.visibleSize(of.node))
		return n, err
	}
	pos := of.pos.Load()
	n, err := c.pwrite(of, p, pos)
	of.pos.Store(pos + uint64(n))
	return n, err
}

// Pwrite implements fsapi.Client.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	return c.pwrite(of, p, off)
}

func (c *Client) pwrite(of *openFile, p []byte, off uint64) (int, error) {
	size := c.fs.visibleSize(of.node)
	if off+uint64(len(p)) > size {
		// Growing writes behave like appends at the tail: relink staged
		// data first, then extend through the inner FS (one syscall).
		c.fs.relink(of.node)
		c.fs.costM.Cross()
		return c.fs.inner.WriteAt(of.node, p, off)
	}
	// In-place overwrite: pure user-space NVMM write.
	return c.fs.inner.WriteAt(of.node, p, off)
}

// Seek implements fsapi.Client.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case fsapi.SeekSet:
	case fsapi.SeekCur:
		base = int64(of.pos.Load())
	case fsapi.SeekEnd:
		base = int64(c.fs.visibleSize(of.node))
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

// Fsync implements fsapi.Client: relink + journal commit.
func (c *Client) Fsync(fd fsapi.FD) error {
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	c.fs.relink(of.node)
	return c.meta.Fsync(of.metaFD)
}

// Ftruncate implements fsapi.Client.
func (c *Client) Ftruncate(fd fsapi.FD, size uint64) error {
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	c.fs.relink(of.node)
	return c.meta.Ftruncate(of.metaFD, size)
}

// Fallocate implements fsapi.Client.
func (c *Client) Fallocate(fd fsapi.FD, size uint64) error {
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	return c.meta.Fallocate(of.metaFD, size)
}

// Fstat implements fsapi.Client.
func (c *Client) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	of, err := c.file(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st, err := c.meta.Fstat(of.metaFD)
	if err != nil {
		return st, err
	}
	st.Size = c.fs.visibleSize(of.node)
	return st, nil
}

// Stat implements fsapi.Client.
func (c *Client) Stat(path string) (fsapi.Stat, error) {
	st, err := c.meta.Stat(path)
	if err != nil {
		return st, err
	}
	st.Size = c.fs.visibleSize(vfs.NodeID(st.Ino))
	return st, nil
}

// Lstat implements fsapi.Client.
func (c *Client) Lstat(path string) (fsapi.Stat, error) { return c.meta.Lstat(path) }

// Unlink implements fsapi.Client: drop staged data, then kernel path.
func (c *Client) Unlink(path string) error {
	if st, err := c.meta.Lstat(path); err == nil {
		c.fs.dropStaging(vfs.NodeID(st.Ino))
	}
	return c.meta.Unlink(path)
}

func (fs *FS) dropStaging(n vfs.NodeID) {
	st := fs.stagingOf(n)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range st.runs {
		fs.inner.FreeBlocks(r.start, r.n)
	}
	st.runs = nil
	st.used = 0
	st.avail = 0
}

// Remaining metadata operations forward to the kernel path.

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, perm uint32) error { return c.meta.Mkdir(path, perm) }

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error { return c.meta.Rmdir(path) }

// Rename implements fsapi.Client.
func (c *Client) Rename(oldPath, newPath string) error {
	if st, err := c.meta.Lstat(oldPath); err == nil {
		c.fs.relink(vfs.NodeID(st.Ino))
	}
	return c.meta.Rename(oldPath, newPath)
}

// Symlink implements fsapi.Client.
func (c *Client) Symlink(target, linkPath string) error { return c.meta.Symlink(target, linkPath) }

// Link implements fsapi.Client.
func (c *Client) Link(oldPath, newPath string) error { return c.meta.Link(oldPath, newPath) }

// Readlink implements fsapi.Client.
func (c *Client) Readlink(path string) (string, error) { return c.meta.Readlink(path) }

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) ([]fsapi.DirEntry, error) { return c.meta.ReadDir(path) }

// Chmod implements fsapi.Client.
func (c *Client) Chmod(path string, perm uint32) error { return c.meta.Chmod(path, perm) }

// Utimes implements fsapi.Client.
func (c *Client) Utimes(path string, atime, mtime int64) error {
	return c.meta.Utimes(path, atime, mtime)
}

// Detach implements fsapi.Client.
func (c *Client) Detach() error {
	c.files.Range(func(k, v any) bool {
		of := v.(*openFile)
		c.fs.relink(of.node)
		c.files.Delete(k)
		return true
	})
	return c.meta.Detach()
}
