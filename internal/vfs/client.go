package vfs

import (
	"io"

	"simurgh/internal/fsapi"
)

// fsapi.Client implementation. Every method charges one syscall and routes
// through the kernel-substrate locks before reaching the inner file system.

// Create implements fsapi.Client.
func (c *Client) Create(path string, perm uint32) (fsapi.FD, error) {
	return c.Open(path, fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc, perm)
}

// Open implements fsapi.Client. Path resolution runs ahead of the directory
// mutex, so by the time the create or the hold gets there the name may have
// appeared or gone: losing such a race means starting over, and O_CREAT
// fails with ErrNotExist only when a directory on the way is missing.
func (c *Client) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	c.syscall()
	v := c.v
	dangling := false
	for {
		n, from, err := c.resolveEntry(path, true)
		switch {
		case err == nil:
			if flags&(fsapi.OCreate|fsapi.OExcl) == fsapi.OCreate|fsapi.OExcl {
				return -1, fsapi.ErrExist
			}
			if !c.hold(n, from) {
				continue
			}
		case err == fsapi.ErrNotExist && flags&fsapi.OCreate != 0 && !dangling:
			parent, name, perr := c.resolveParent(path, true)
			if perr != nil {
				return -1, perr
			}
			// Directory mutation: serialize on the parent's inode mutex. The
			// new file is held before anyone else can get at its name.
			vn := v.vnode(parent)
			vn.dirMu.Lock()
			n, err = v.inner.Create(parent, name, fsapi.ModeRegular|perm&fsapi.ModePermMask, c.cred.UID, c.cred.GID)
			if err == nil {
				v.dcacheInsert(parent, name, n)
				err = v.inner.Hold(n)
			}
			vn.dirMu.Unlock()
			if err == fsapi.ErrExist && flags&fsapi.OExcl == 0 {
				// Somebody else's entry is in the way. A file: look again,
				// one of us wins. A symlink to nothing stays in the way
				// however often we look, so that is looked at once more only.
				if ln, lerr := c.lookupStep(parent, name); lerr == nil {
					a, aerr := v.inner.GetAttr(ln)
					dangling = aerr == nil && fsapi.IsSymlink(a.Mode)
				}
				continue
			}
			if err != nil {
				return -1, err
			}
		default:
			return -1, err
		}
		fd, err := c.openHeld(n, flags)
		if err != nil {
			v.inner.Release(n)
		}
		return fd, err
	}
}

// openHeld finishes an open of a held node: access checks, truncation,
// descriptor.
func (c *Client) openHeld(n NodeID, flags fsapi.OpenFlag) (fsapi.FD, error) {
	v := c.v
	attr, err := v.inner.GetAttr(n)
	if err != nil {
		return -1, err
	}
	if fsapi.IsDir(attr.Mode) && flags&(fsapi.OWronly|fsapi.ORdwr) != 0 {
		return -1, fsapi.ErrIsDir
	}
	var want uint32
	if flags&(fsapi.OWronly|fsapi.ORdwr) != 0 {
		want |= fsapi.AccessWrite
	}
	if flags&fsapi.OWronly == 0 {
		want |= fsapi.AccessRead
	}
	if err := fsapi.CheckPerm(c.cred, attr.UID, attr.GID, attr.Mode, want); err != nil {
		return -1, err
	}
	if flags&fsapi.OTrunc != 0 && fsapi.IsRegular(attr.Mode) && flags&(fsapi.OWronly|fsapi.ORdwr) != 0 {
		vn := v.vnode(n)
		vn.rw.Lock()
		err := v.inner.Truncate(n, 0)
		vn.rw.Unlock()
		if err != nil {
			return -1, err
		}
	}
	return c.install(n, flags), nil
}

// Close implements fsapi.Client.
func (c *Client) Close(fd fsapi.FD) error {
	c.syscall()
	of, ok := c.files.LoadAndDelete(fd)
	if !ok {
		return fsapi.ErrBadFD
	}
	c.v.inner.Release(of.(*openFile).node)
	return nil
}

// Read implements fsapi.Client.
func (c *Client) Read(fd fsapi.FD, p []byte) (int, error) {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	pos := of.pos.Load()
	n, err := c.readShared(of.node, p, pos)
	of.pos.Store(pos + uint64(n))
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// Pread implements fsapi.Client.
func (c *Client) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OWronly != 0 {
		return 0, fsapi.ErrWriteOnly
	}
	n, err := c.readShared(of.node, p, off)
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// readShared takes i_rwsem for reading — an atomic RMW on the semaphore
// word that all readers of the inode share.
func (c *Client) readShared(n NodeID, p []byte, off uint64) (int, error) {
	vn := c.v.vnode(n)
	vn.rw.RLock()
	got, err := c.v.inner.ReadAt(n, p, off)
	vn.rw.RUnlock()
	return got, err
}

// Write implements fsapi.Client.
func (c *Client) Write(fd fsapi.FD, p []byte) (int, error) {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	vn := c.v.vnode(of.node)
	vn.rw.Lock()
	defer vn.rw.Unlock()
	pos := of.pos.Load()
	if of.append {
		attr, err := c.v.inner.GetAttr(of.node)
		if err != nil {
			return 0, err
		}
		pos = attr.Size
	}
	n, err := c.v.inner.WriteAt(of.node, p, pos)
	of.pos.Store(pos + uint64(n))
	return n, err
}

// Pwrite implements fsapi.Client.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&(fsapi.OWronly|fsapi.ORdwr) == 0 {
		return 0, fsapi.ErrReadOnly
	}
	vn := c.v.vnode(of.node)
	vn.rw.Lock()
	defer vn.rw.Unlock()
	return c.v.inner.WriteAt(of.node, p, off)
}

// Seek implements fsapi.Client.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	c.syscall()
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
		attr, err := c.v.inner.GetAttr(of.node)
		if err != nil {
			return 0, err
		}
		base = int64(attr.Size)
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

// Fsync implements fsapi.Client.
func (c *Client) Fsync(fd fsapi.FD) error {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	return c.v.inner.Fsync(of.node)
}

// Ftruncate implements fsapi.Client.
func (c *Client) Ftruncate(fd fsapi.FD, size uint64) error {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	vn := c.v.vnode(of.node)
	vn.rw.Lock()
	defer vn.rw.Unlock()
	return c.v.inner.Truncate(of.node, size)
}

// Fallocate implements fsapi.Client.
func (c *Client) Fallocate(fd fsapi.FD, size uint64) error {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return err
	}
	return c.v.inner.Fallocate(of.node, size)
}

// Fstat implements fsapi.Client.
func (c *Client) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	c.syscall()
	of, err := c.file(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return c.statNode(of.node)
}

func (c *Client) statNode(n NodeID) (fsapi.Stat, error) {
	attr, err := c.v.inner.GetAttr(n)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return fsapi.Stat{
		Ino: uint64(n), Mode: attr.Mode, UID: attr.UID, GID: attr.GID,
		Nlink: attr.Nlink, Size: attr.Size,
		Atime: attr.Atime, Mtime: attr.Mtime, Ctime: attr.Ctime,
	}, nil
}

// Stat implements fsapi.Client.
func (c *Client) Stat(path string) (fsapi.Stat, error) {
	c.syscall()
	n, err := c.resolve(path, true)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return c.statNode(n)
}

// Lstat implements fsapi.Client.
func (c *Client) Lstat(path string) (fsapi.Stat, error) {
	c.syscall()
	n, err := c.resolve(path, false)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return c.statNode(n)
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, perm uint32) error {
	c.syscall()
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	vn := c.v.vnode(parent)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	n, err := c.v.inner.Mkdir(parent, name, fsapi.ModeDir|perm&fsapi.ModePermMask, c.cred.UID, c.cred.GID)
	if err != nil {
		return err
	}
	c.v.dcacheInsert(parent, name, n)
	return nil
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error {
	c.syscall()
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	vn := c.v.vnode(parent)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	c.v.dcacheRemove(parent, name) // first, as in Unlink
	return c.v.inner.Rmdir(parent, name)
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error {
	c.syscall()
	parent, name, err := c.resolveParent(path, true)
	if err != nil {
		return err
	}
	vn := c.v.vnode(parent)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	// The dentry goes first: a cached name must never outlive its node (an
	// open validates the node it is about to hold against the dcache).
	c.v.dcacheRemove(parent, name)
	return c.v.inner.Unlink(parent, name)
}

// Rename implements fsapi.Client: the global rename mutex plus both
// directories' inode mutexes, exactly the kernel's locking discipline.
func (c *Client) Rename(oldPath, newPath string) error {
	c.syscall()
	oldParent, oldName, err := c.resolveParent(oldPath, true)
	if err != nil {
		return err
	}
	newParent, newName, err := c.resolveParent(newPath, true)
	if err != nil {
		return err
	}
	if oldParent == newParent && oldName == newName {
		return nil
	}
	c.v.renameMu.Lock()
	defer c.v.renameMu.Unlock()
	v1, v2 := c.v.vnode(oldParent), c.v.vnode(newParent)
	if oldParent == newParent {
		v1.dirMu.Lock()
		defer v1.dirMu.Unlock()
	} else if oldParent < newParent {
		v1.dirMu.Lock()
		v2.dirMu.Lock()
		defer v1.dirMu.Unlock()
		defer v2.dirMu.Unlock()
	} else {
		v2.dirMu.Lock()
		v1.dirMu.Lock()
		defer v2.dirMu.Unlock()
		defer v1.dirMu.Unlock()
	}
	c.v.dcacheRemove(oldParent, oldName)
	c.v.dcacheRemove(newParent, newName)
	return c.v.inner.Rename(oldParent, oldName, newParent, newName)
}

// Symlink implements fsapi.Client.
func (c *Client) Symlink(target, linkPath string) error {
	c.syscall()
	parent, name, err := c.resolveParent(linkPath, true)
	if err != nil {
		return err
	}
	vn := c.v.vnode(parent)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	n, err := c.v.inner.Symlink(parent, name, target, c.cred.UID, c.cred.GID)
	if err != nil {
		return err
	}
	c.v.dcacheInsert(parent, name, n)
	return nil
}

// Link implements fsapi.Client.
func (c *Client) Link(oldPath, newPath string) error {
	c.syscall()
	target, err := c.resolve(oldPath, true)
	if err != nil {
		return err
	}
	attr, err := c.v.inner.GetAttr(target)
	if err != nil {
		return err
	}
	if fsapi.IsDir(attr.Mode) {
		return fsapi.ErrIsDir
	}
	parent, name, err := c.resolveParent(newPath, true)
	if err != nil {
		return err
	}
	vn := c.v.vnode(parent)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	if err := c.v.inner.Link(parent, name, target); err != nil {
		return err
	}
	c.v.dcacheInsert(parent, name, target)
	return nil
}

// Readlink implements fsapi.Client.
func (c *Client) Readlink(path string) (string, error) {
	c.syscall()
	n, err := c.resolve(path, false)
	if err != nil {
		return "", err
	}
	attr, err := c.v.inner.GetAttr(n)
	if err != nil {
		return "", err
	}
	if !fsapi.IsSymlink(attr.Mode) {
		return "", fsapi.ErrInval
	}
	return c.v.inner.Readlink(n)
}

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) ([]fsapi.DirEntry, error) {
	c.syscall()
	n, err := c.resolve(path, true)
	if err != nil {
		return nil, err
	}
	attr, err := c.v.inner.GetAttr(n)
	if err != nil {
		return nil, err
	}
	if !fsapi.IsDir(attr.Mode) {
		return nil, fsapi.ErrNotDir
	}
	if err := fsapi.CheckPerm(c.cred, attr.UID, attr.GID, attr.Mode, fsapi.AccessRead); err != nil {
		return nil, err
	}
	vn := c.v.vnode(n)
	vn.dirMu.Lock()
	defer vn.dirMu.Unlock()
	return c.v.inner.ReadDir(n)
}

// Chmod implements fsapi.Client.
func (c *Client) Chmod(path string, perm uint32) error {
	c.syscall()
	n, err := c.resolve(path, true)
	if err != nil {
		return err
	}
	attr, err := c.v.inner.GetAttr(n)
	if err != nil {
		return err
	}
	if c.cred.UID != 0 && c.cred.UID != attr.UID {
		return fsapi.ErrPerm
	}
	p := perm & fsapi.ModePermMask
	return c.v.inner.SetAttr(n, &p, nil, nil)
}

// Utimes implements fsapi.Client.
func (c *Client) Utimes(path string, atime, mtime int64) error {
	c.syscall()
	n, err := c.resolve(path, true)
	if err != nil {
		return err
	}
	attr, err := c.v.inner.GetAttr(n)
	if err != nil {
		return err
	}
	if c.cred.UID != 0 && c.cred.UID != attr.UID {
		return fsapi.ErrPerm
	}
	return c.v.inner.SetAttr(n, nil, &atime, &mtime)
}

// Detach implements fsapi.Client.
func (c *Client) Detach() error {
	c.files.Range(func(k, _ any) bool {
		if of, ok := c.files.LoadAndDelete(k); ok {
			c.v.inner.Release(of.(*openFile).node)
		}
		return true
	})
	return nil
}
