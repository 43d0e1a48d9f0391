package vfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"simurgh/internal/fsapi"
)

// memFS is a trivial in-memory InnerFS for testing the VFS layer in
// isolation; it counts Lookup calls so dcache behaviour is observable.
type memFS struct {
	mu      sync.Mutex
	nodes   map[NodeID]*memNode
	next    NodeID
	lookups int
}

type memNode struct {
	attr     Attr
	children map[string]NodeID
	data     []byte
	target   string
}

func newMemFS() *memFS {
	m := &memFS{nodes: map[NodeID]*memNode{}, next: 1}
	m.nodes[1] = &memNode{
		attr:     Attr{Mode: fsapi.ModeDir | 0o755, Nlink: 2},
		children: map[string]NodeID{},
	}
	m.next = 2
	return m
}

func (m *memFS) Name() string { return "memfs" }
func (m *memFS) Root() NodeID { return 1 }

func (m *memFS) Lookup(dir NodeID, name string) (NodeID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	d, ok := m.nodes[dir]
	if !ok || d.children == nil {
		return 0, fsapi.ErrNotExist
	}
	n, ok := d.children[name]
	if !ok {
		return 0, fsapi.ErrNotExist
	}
	return n, nil
}

func (m *memFS) GetAttr(n NodeID) (Attr, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nd, ok := m.nodes[n]
	if !ok {
		return Attr{}, fsapi.ErrNotExist
	}
	return nd.attr, nil
}

func (m *memFS) create(dir NodeID, name string, mode, uid, gid uint32) (NodeID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.nodes[dir]
	if _, exists := d.children[name]; exists {
		return 0, fsapi.ErrExist
	}
	id := m.next
	m.next++
	nd := &memNode{attr: Attr{Mode: mode, UID: uid, GID: gid, Nlink: 1}}
	if fsapi.IsDir(mode) {
		nd.children = map[string]NodeID{}
		nd.attr.Nlink = 2
	}
	m.nodes[id] = nd
	d.children[name] = id
	return id, nil
}

func (m *memFS) Create(dir NodeID, name string, mode, uid, gid uint32) (NodeID, error) {
	return m.create(dir, name, mode, uid, gid)
}

func (m *memFS) Mkdir(dir NodeID, name string, mode, uid, gid uint32) (NodeID, error) {
	return m.create(dir, name, mode, uid, gid)
}

func (m *memFS) Symlink(dir NodeID, name, target string, uid, gid uint32) (NodeID, error) {
	id, err := m.create(dir, name, fsapi.ModeSymlink|0o777, uid, gid)
	if err == nil {
		m.nodes[id].target = target
	}
	return id, err
}

func (m *memFS) Readlink(n NodeID) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[n].target, nil
}

func (m *memFS) Link(dir NodeID, name string, target NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.nodes[dir]
	if _, exists := d.children[name]; exists {
		return fsapi.ErrExist
	}
	d.children[name] = target
	m.nodes[target].attr.Nlink++
	return nil
}

func (m *memFS) Unlink(dir NodeID, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.nodes[dir]
	id, ok := d.children[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	if fsapi.IsDir(m.nodes[id].attr.Mode) {
		return fsapi.ErrIsDir
	}
	delete(d.children, name)
	return nil
}

func (m *memFS) Rmdir(dir NodeID, name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.nodes[dir]
	id, ok := d.children[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	if len(m.nodes[id].children) != 0 {
		return fsapi.ErrNotEmpty
	}
	delete(d.children, name)
	return nil
}

func (m *memFS) Rename(odir NodeID, oname string, ndir NodeID, nname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	od := m.nodes[odir]
	id, ok := od.children[oname]
	if !ok {
		return fsapi.ErrNotExist
	}
	delete(od.children, oname)
	m.nodes[ndir].children[nname] = id
	return nil
}

func (m *memFS) ReadDir(dir NodeID) ([]fsapi.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []fsapi.DirEntry
	for name, id := range m.nodes[dir].children {
		out = append(out, fsapi.DirEntry{Name: name, Ino: uint64(id), Mode: m.nodes[id].attr.Mode})
	}
	return out, nil
}

func (m *memFS) ReadAt(n NodeID, p []byte, off uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.nodes[n].data
	if off >= uint64(len(d)) {
		return 0, nil
	}
	return copy(p, d[off:]), nil
}

func (m *memFS) WriteAt(n NodeID, p []byte, off uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nd := m.nodes[n]
	need := off + uint64(len(p))
	if uint64(len(nd.data)) < need {
		nd.data = append(nd.data, make([]byte, need-uint64(len(nd.data)))...)
	}
	copy(nd.data[off:], p)
	if need > nd.attr.Size {
		nd.attr.Size = need
	}
	return len(p), nil
}

func (m *memFS) Truncate(n NodeID, size uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	nd := m.nodes[n]
	if size < uint64(len(nd.data)) {
		nd.data = nd.data[:size]
	}
	nd.attr.Size = size
	return nil
}

func (m *memFS) Fallocate(n NodeID, size uint64) error { return m.Truncate(n, size) }
func (m *memFS) Fsync(n NodeID) error                  { return nil }

func (m *memFS) Hold(NodeID) error { return nil }
func (m *memFS) Release(NodeID)    {}

func (m *memFS) SetAttr(n NodeID, perm *uint32, atime, mtime *int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	nd := m.nodes[n]
	if perm != nil {
		nd.attr.Mode = nd.attr.Mode&fsapi.ModeTypeMask | *perm
	}
	if atime != nil {
		nd.attr.Atime = *atime
	}
	if mtime != nil {
		nd.attr.Mtime = *mtime
	}
	return nil
}

func TestDcacheAvoidsRepeatedLookups(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	c, _ := v.Attach(fsapi.Root)
	c.Mkdir("/a", 0o755)
	c.Mkdir("/a/b", 0o755)
	c.Create("/a/b/f", 0o644)
	inner.mu.Lock()
	inner.lookups = 0
	inner.mu.Unlock()
	for i := 0; i < 100; i++ {
		if _, err := c.Stat("/a/b/f"); err != nil {
			t.Fatal(err)
		}
	}
	inner.mu.Lock()
	n := inner.lookups
	inner.mu.Unlock()
	if n > 3 {
		t.Fatalf("dcache miss rate too high: %d inner lookups for 100 stats", n)
	}
}

func TestDcacheInvalidatedOnUnlinkAndRename(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	c, _ := v.Attach(fsapi.Root)
	c.Create("/f", 0o644)
	c.Stat("/f") // warm the cache
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stale dcache entry served after unlink: %v", err)
	}
	c.Create("/g", 0o644)
	c.Stat("/g")
	if err := c.Rename("/g", "/h"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/g"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stale dcache entry served after rename: %v", err)
	}
	if _, err := c.Stat("/h"); err != nil {
		t.Fatal(err)
	}
}

func TestVFSPermissionEnforcement(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	root, _ := v.Attach(fsapi.Root)
	root.Chmod("/", 0o755)
	user, _ := v.Attach(fsapi.Cred{UID: 5, GID: 5})
	if _, err := user.Create("/f", 0o644); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("create in 0755 root by non-owner = %v", err)
	}
}

func TestVFSConcurrentCreatesDistinctDirs(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := v.Attach(fsapi.Root)
			dir := fmt.Sprintf("/d%d", w)
			if err := c.Mkdir(dir, 0o755); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 100; i++ {
				if _, err := c.Create(fmt.Sprintf("%s/f%d", dir, i), 0o644); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, _ := v.Attach(fsapi.Root)
	for w := 0; w < 4; w++ {
		ents, err := c.ReadDir(fmt.Sprintf("/d%d", w))
		if err != nil || len(ents) != 100 {
			t.Fatalf("d%d: %d entries (%v)", w, len(ents), err)
		}
	}
}

func TestVFSSymlinkResolution(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	c, _ := v.Attach(fsapi.Root)
	c.Mkdir("/real", 0o755)
	c.Create("/real/file", 0o644)
	c.Symlink("/real", "/alias")
	if _, err := c.Stat("/alias/file"); err != nil {
		t.Fatalf("stat through symlinked dir: %v", err)
	}
	lst, _ := c.Lstat("/alias")
	if !fsapi.IsSymlink(lst.Mode) {
		t.Fatal("Lstat should not follow")
	}
	// Loop detection.
	c.Symlink("/l2", "/l1")
	c.Symlink("/l1", "/l2")
	if _, err := c.Stat("/l1"); !errors.Is(err, fsapi.ErrLoop) {
		t.Fatalf("loop err = %v", err)
	}
}

func TestVFSSeekAndAppend(t *testing.T) {
	inner := newMemFS()
	v := New(inner, nil)
	c, _ := v.Attach(fsapi.Root)
	fd, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr|fsapi.OAppend, 0o644)
	c.Write(fd, []byte("aaa"))
	c.Write(fd, []byte("bbb"))
	if pos, _ := c.Seek(fd, 0, fsapi.SeekEnd); pos != 6 {
		t.Fatalf("end = %d", pos)
	}
	buf := make([]byte, 6)
	n, _ := c.Pread(fd, buf, 0)
	if string(buf[:n]) != "aaabbb" {
		t.Fatalf("content = %q", buf[:n])
	}
}
