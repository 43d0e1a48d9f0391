// Package vfs simulates the Linux kernel storage-stack mechanisms the paper
// identifies as the scalability bottlenecks of kernel file systems (§2, §5):
//
//   - a syscall entry/exit cost on every operation (calibrated spin);
//   - a dentry cache whose entries are reference-counted with atomic
//     operations (lockref), so path walks over shared components contend on
//     the same cache lines exactly like the real dcache (Fig 7f);
//   - a per-directory inode mutex serializing create/unlink/rename within a
//     directory — the reason kernel file systems flatline in shared
//     directories (Fig 7b/7d);
//   - a global rename mutex (s_vfs_rename_mutex);
//   - a per-inode read/write semaphore (i_rwsem) whose reader count is an
//     atomic RMW, limiting shared-file read scalability (Fig 7i).
//
// Baseline file systems implement the InnerFS interface and are mounted
// under a VFS; Simurgh bypasses this package entirely.
package vfs

import (
	"sync"
	"sync/atomic"

	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
)

// NodeID identifies an inode within an inner file system.
type NodeID uint64

// Attr is the attribute set VFS needs for permission checks and stat.
type Attr struct {
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  uint64
	Atime int64
	Mtime int64
	Ctime int64
}

// InnerFS is the interface a kernel file system exposes to the VFS: single-
// component operations called after path resolution and locking.
type InnerFS interface {
	Name() string
	Root() NodeID
	Lookup(dir NodeID, name string) (NodeID, error)
	GetAttr(n NodeID) (Attr, error)
	Create(dir NodeID, name string, mode, uid, gid uint32) (NodeID, error)
	Mkdir(dir NodeID, name string, mode, uid, gid uint32) (NodeID, error)
	Symlink(dir NodeID, name, target string, uid, gid uint32) (NodeID, error)
	Readlink(n NodeID) (string, error)
	Link(dir NodeID, name string, target NodeID) error
	Unlink(dir NodeID, name string) error
	Rmdir(dir NodeID, name string) error
	Rename(odir NodeID, oname string, ndir NodeID, nname string) error
	ReadDir(dir NodeID) ([]fsapi.DirEntry, error)
	ReadAt(n NodeID, p []byte, off uint64) (int, error)
	WriteAt(n NodeID, p []byte, off uint64) (int, error)
	Truncate(n NodeID, size uint64) error
	Fallocate(n NodeID, size uint64) error
	Fsync(n NodeID) error
	SetAttr(n NodeID, perm *uint32, atime, mtime *int64) error
	// Hold pins a node for an open descriptor (the kernel's inode
	// reference): until the matching Release, removing its last name
	// leaves the node and its data in place. It fails with ErrNotExist if
	// the node is already gone.
	Hold(n NodeID) error
	// Release drops one Hold; the last one frees a node that has no name
	// left.
	Release(n NodeID)
}

// dentry is a cached name→inode mapping. Its reference count is bumped with
// atomic operations on every path-walk step, reproducing lockref cacheline
// contention on shared path components.
type dentry struct {
	node NodeID
	ref  atomic.Int64
}

type dkey struct {
	dir  NodeID
	name string
}

const dcacheShards = 64

type dcacheShard struct {
	mu sync.RWMutex
	m  map[dkey]*dentry
}

// vnode is the VFS-side in-memory inode: the directory mutex and the file
// rw-semaphore.
type vnode struct {
	dirMu sync.Mutex
	rw    sync.RWMutex
}

const vnodeShards = 64

type vnodeShard struct {
	mu sync.Mutex
	m  map[NodeID]*vnode
}

// VFS wraps an inner file system with the kernel-substrate behaviour.
type VFS struct {
	inner    InnerFS
	costM    *cost.Model
	dcache   [dcacheShards]dcacheShard
	vnodes   [vnodeShards]vnodeShard
	renameMu sync.Mutex
}

// New mounts inner under a simulated kernel storage stack. costM is charged
// one syscall per public operation (pass cost.KernelModel()).
func New(inner InnerFS, costM *cost.Model) *VFS {
	v := &VFS{inner: inner, costM: costM}
	for i := range v.dcache {
		v.dcache[i].m = make(map[dkey]*dentry)
	}
	for i := range v.vnodes {
		v.vnodes[i].m = make(map[NodeID]*vnode)
	}
	return v
}

// Name implements fsapi.FileSystem.
func (v *VFS) Name() string { return v.inner.Name() }

// Inner exposes the wrapped file system.
func (v *VFS) Inner() InnerFS { return v.inner }

func (v *VFS) vnode(n NodeID) *vnode {
	sh := &v.vnodes[uint64(n)%vnodeShards]
	sh.mu.Lock()
	vn := sh.m[n]
	if vn == nil {
		vn = new(vnode)
		sh.m[n] = vn
	}
	sh.mu.Unlock()
	return vn
}

func dhash(k dkey) uint64 {
	h := uint64(k.dir) * 0x9e3779b97f4a7c15
	for i := 0; i < len(k.name); i++ {
		h = (h ^ uint64(k.name[i])) * 1099511628211
	}
	return h
}

// dcacheLookup returns the cached dentry, bumping its lockref.
func (v *VFS) dcacheLookup(dir NodeID, name string) (*dentry, bool) {
	k := dkey{dir, name}
	sh := &v.dcache[dhash(k)%dcacheShards]
	sh.mu.RLock()
	d, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		// lockref get/put: two atomic RMWs on the shared dentry cacheline.
		d.ref.Add(1)
		d.ref.Add(-1)
	}
	return d, ok
}

func (v *VFS) dcacheInsert(dir NodeID, name string, node NodeID) {
	k := dkey{dir, name}
	sh := &v.dcache[dhash(k)%dcacheShards]
	sh.mu.Lock()
	sh.m[k] = &dentry{node: node}
	sh.mu.Unlock()
}

func (v *VFS) dcacheRemove(dir NodeID, name string) {
	k := dkey{dir, name}
	sh := &v.dcache[dhash(k)%dcacheShards]
	sh.mu.Lock()
	delete(sh.m, k)
	sh.mu.Unlock()
}

// Client is one attached process.
type Client struct {
	v      *VFS
	cred   fsapi.Cred
	nextFD atomic.Int32
	files  sync.Map // fsapi.FD -> *openFile
}

type openFile struct {
	node   NodeID
	flags  fsapi.OpenFlag
	pos    atomic.Uint64
	append bool
}

// Attach implements fsapi.FileSystem.
func (v *VFS) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	c := &Client{v: v, cred: cred}
	c.nextFD.Store(2)
	return c, nil
}

func (c *Client) syscall() { c.v.costM.Cross() }

const maxSymlinkDepth = 10

// lookupStep resolves one component through the dcache, calling into the
// inner file system on a miss (under the parent's inode mutex, as the
// kernel does).
func (c *Client) lookupStep(dir NodeID, name string) (NodeID, error) {
	if d, ok := c.v.dcacheLookup(dir, name); ok {
		return d.node, nil
	}
	vn := c.v.vnode(dir)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	if d, ok := c.v.dcacheLookup(dir, name); ok {
		return d.node, nil
	}
	n, err := c.v.inner.Lookup(dir, name)
	if err != nil {
		return 0, err
	}
	c.v.dcacheInsert(dir, name, n)
	return n, nil
}

// walk resolves components from start, enforcing exec permission and
// following symlinks. Besides the node it returns the dentry (directory and
// name) of the last step, the zero dkey if there was none.
func (c *Client) walk(start NodeID, comps []string, followLast bool, depth int) (NodeID, dkey, error) {
	v := c.v
	cur := start
	var last dkey
	for i := 0; i < len(comps); i++ {
		attr, err := v.inner.GetAttr(cur)
		if err != nil {
			return 0, dkey{}, err
		}
		if !fsapi.IsDir(attr.Mode) {
			return 0, dkey{}, fsapi.ErrNotDir
		}
		if err := fsapi.CheckPerm(c.cred, attr.UID, attr.GID, attr.Mode, fsapi.AccessExec); err != nil {
			return 0, dkey{}, err
		}
		n, err := c.lookupStep(cur, comps[i])
		if err != nil {
			return 0, dkey{}, err
		}
		nattr, err := v.inner.GetAttr(n)
		if err != nil {
			return 0, dkey{}, err
		}
		if fsapi.IsSymlink(nattr.Mode) && (i < len(comps)-1 || followLast) {
			if depth >= maxSymlinkDepth {
				return 0, dkey{}, fsapi.ErrLoop
			}
			target, err := v.inner.Readlink(n)
			if err != nil {
				return 0, dkey{}, err
			}
			tcomps, err := fsapi.SplitPath(target)
			if err != nil {
				return 0, dkey{}, err
			}
			rest := comps[i+1:]
			next := cur
			if target != "" && target[0] == '/' {
				next = v.inner.Root()
			}
			return c.walk(next, append(append([]string{}, tcomps...), rest...), followLast, depth+1)
		}
		last = dkey{cur, comps[i]}
		cur = n
	}
	return cur, last, nil
}

func (c *Client) resolve(path string, followLast bool) (NodeID, error) {
	n, _, err := c.resolveEntry(path, followLast)
	return n, err
}

// resolveEntry is resolve for callers that go on to hold the node: it also
// returns the dentry that names it.
func (c *Client) resolveEntry(path string, followLast bool) (NodeID, dkey, error) {
	comps, err := fsapi.SplitPath(path)
	if err != nil {
		return 0, dkey{}, err
	}
	return c.walk(c.v.inner.Root(), comps, followLast, 0)
}

// hold pins the node a walk returned. The walk ran ahead of every lock, so
// until the reference is held the file can be unlinked and the node freed,
// its ID even reused. The reference therefore comes first and then the
// dentry must still name the node; if it does not, the reference is dropped
// and hold reports false: resolve again.
func (c *Client) hold(n NodeID, from dkey) bool {
	if c.v.inner.Hold(n) != nil {
		return false
	}
	if from != (dkey{}) {
		if again, err := c.lookupStep(from.dir, from.name); err != nil || again != n {
			c.v.inner.Release(n)
			return false
		}
	}
	return true
}

// resolveParent returns the parent dir node and final name of path.
func (c *Client) resolveParent(path string, forWrite bool) (NodeID, string, error) {
	dir, name, err := fsapi.BaseDir(path)
	if err != nil {
		return 0, "", err
	}
	parent, _, err := c.walk(c.v.inner.Root(), dir, true, 0)
	if err != nil {
		return 0, "", err
	}
	attr, err := c.v.inner.GetAttr(parent)
	if err != nil {
		return 0, "", err
	}
	if !fsapi.IsDir(attr.Mode) {
		return 0, "", fsapi.ErrNotDir
	}
	want := fsapi.AccessExec
	if forWrite {
		want |= fsapi.AccessWrite
	}
	if err := fsapi.CheckPerm(c.cred, attr.UID, attr.GID, attr.Mode, want); err != nil {
		return 0, "", err
	}
	return parent, name, nil
}

func (c *Client) install(n NodeID, flags fsapi.OpenFlag) fsapi.FD {
	fd := fsapi.FD(c.nextFD.Add(1))
	c.files.Store(fd, &openFile{node: n, flags: flags, append: flags&fsapi.OAppend != 0})
	return fd
}

func (c *Client) file(fd fsapi.FD) (*openFile, error) {
	vv, ok := c.files.Load(fd)
	if !ok {
		return nil, fsapi.ErrBadFD
	}
	return vv.(*openFile), nil
}
