// Package kfs implements design-faithful reimplementations of the kernel
// file systems the paper compares against — NOVA, PMFS and EXT4-DAX — as
// vfs.InnerFS backends. Each keeps the structural property the paper blames
// for its behaviour:
//
//   - NOVA: per-inode metadata logs (scalable journaling) and a segmented,
//     per-core-style block allocator; DRAM indexes for directories.
//   - PMFS: a single global undo journal (every metadata operation
//     serializes on it), unsorted linear directories (O(n) lookup/unlink),
//     and a serial one-segment block allocator.
//   - EXT4-DAX: a jbd2-style journal with one running transaction under a
//     global lock and block-sized journal records (heavier per-operation
//     work, batched fences), extents optimized for large files, and a
//     serial allocator.
//
// All three do their persistent work for real against the emulated NVMM
// (journal records, inode writes, dentry records, data copies with
// flush/fence), so their relative costs and contention points arise from
// mechanism, not from injected sleeps. They run under internal/vfs, which
// adds the syscall cost and the kernel locking discipline.
//
// Deviation: baseline crash recovery is not implemented (the paper does not
// evaluate it); their journaling exists to reproduce its runtime cost.
package kfs

import (
	"sync"
	"time"

	"simurgh/internal/alloc"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/vfs"
)

// Kind selects which baseline design an FS instance follows.
type Kind int

const (
	// KindNova is a NOVA-like log-structured NVMM file system.
	KindNova Kind = iota
	// KindPMFS is a PMFS-like undo-journaling file system.
	KindPMFS
	// KindExtDax is an EXT4-DAX-like journaling file system.
	KindExtDax
)

func (k Kind) String() string {
	switch k {
	case KindNova:
		return "nova"
	case KindPMFS:
		return "pmfs"
	default:
		return "ext4-dax"
	}
}

// BlockSize is the data block size.
const BlockSize = 4096

const (
	inodeSlot    = 128 // persistent inode record size
	dentryRecord = 64  // persistent dentry record size
)

type run struct{ start, n uint64 }

type dent struct {
	name string
	node vfs.NodeID
}

// node is the DRAM inode (kernel in-memory inode + page-cache-less DAX
// indexes). Persistent counterparts are written through the journal.
type node struct {
	mu   sync.Mutex
	attr vfs.Attr
	// Directories: one of the two indexes depending on Kind.
	dirMap  map[string]vfs.NodeID // NOVA, EXT4 (htree-like)
	dirList []dent                // PMFS (unsorted linear)
	// Regular files.
	extents []run
	// Symlinks.
	target string
	// Per-directory persistent dentry area (chunked).
	dentArea run
	dentOff  uint64
	// Open descriptors (vfs Hold/Release). A file that loses its last name
	// while held lives on as an orphan until the last Release; gone marks a
	// node that has been freed, for a Hold that raced its last unlink.
	holds  int
	orphan bool
	gone   bool
}

// pathCosts are the CPU path lengths (cycles) of each design's in-kernel
// code, charged per operation when software-cost accounting is enabled
// (bench runs). They calibrate the single-thread base costs the paper
// measures: EXT4's jbd2 handle management and block-group machinery make it
// the most expensive metadata path; PMFS and NOVA are lean NVMM designs;
// data-path overheads are smaller and similar. Simurgh charges only the
// jmpp delta (its path length IS this package's Go code running in user
// space).
type pathCosts struct {
	meta   uint64 // create/unlink/rename/mkdir/...
	lookup uint64 // directory lookup miss
	data   uint64 // read/write entry overhead
	alloc  uint64 // fallocate / block allocation ioctl path
}

var costsByKind = map[Kind]pathCosts{
	KindNova:   {meta: 1200, lookup: 200, data: 300, alloc: 800},
	KindPMFS:   {meta: 1000, lookup: 250, data: 300, alloc: 400},
	KindExtDax: {meta: 9000, lookup: 400, data: 500, alloc: 9000},
}

// FS is one baseline file system instance.
type FS struct {
	kind  Kind
	dev   *pmem.Device
	ba    *alloc.BlockAlloc
	j     journal
	costs pathCosts
	spin  func(cycles uint64) // nil = no software-cost accounting
	nodes []*node
	nmu   sync.RWMutex

	inodeBase uint64 // device offset of the persistent inode table
	inodeCap  uint64

	freeIDs struct {
		mu  sync.Mutex
		ids []vfs.NodeID
	}
}

// New creates a baseline file system of the given kind over dev.
func New(kind Kind, dev *pmem.Device) *FS {
	nBlocks := dev.Size() / BlockSize
	inodeCap := nBlocks/4 + 1024
	inodeBytes := inodeCap * inodeSlot
	inodeBlocks := (inodeBytes + BlockSize - 1) / BlockSize
	journalBlocks := uint64(1024) // 4 MiB journal area
	firstData := 1 + inodeBlocks + journalBlocks

	segs := 1 // PMFS/EXT4: serial allocator
	if kind == KindNova {
		segs = 2 * numCPU()
	}
	fs := &FS{
		kind:      kind,
		dev:       dev,
		ba:        alloc.NewBlockAlloc(dev, BlockSize, firstData, nBlocks-firstData, segs),
		costs:     costsByKind[kind],
		inodeBase: BlockSize,
		inodeCap:  inodeCap,
		nodes:     make([]*node, 1, 4096),
	}
	journalBase := (1 + inodeBlocks) * BlockSize
	switch kind {
	case KindNova:
		fs.j = newNovaLog(dev, fs.ba)
	case KindPMFS:
		fs.j = newUndoJournal(dev, journalBase, journalBlocks*BlockSize)
	default:
		fs.j = newJBD2(dev, journalBase, journalBlocks*BlockSize)
	}
	// Root directory.
	root := fs.allocNode(fsapi.ModeDir|0o755, 0, 0)
	fs.node(root).attr.Nlink = 2
	return fs
}

func numCPU() int {
	n := defaultNumCPU()
	if n < 1 {
		return 1
	}
	return n
}

// Name implements vfs.InnerFS.
func (fs *FS) Name() string { return fs.kind.String() }

// Root implements vfs.InnerFS.
func (fs *FS) Root() vfs.NodeID { return 1 }

// Kind reports which baseline design this instance follows.
func (fs *FS) Kind() Kind { return fs.kind }

// EnableSoftwareCosts turns on per-operation CPU path-length accounting
// (spin is typically cost.Spin). Benchmarks enable it; unit tests run lean.
func (fs *FS) EnableSoftwareCosts(spin func(cycles uint64)) { fs.spin = spin }

func (fs *FS) chargeMeta() {
	if fs.spin != nil {
		fs.spin(fs.costs.meta)
	}
}

func (fs *FS) chargeLookup() {
	if fs.spin != nil {
		fs.spin(fs.costs.lookup)
	}
}

func (fs *FS) chargeData() {
	if fs.spin != nil {
		fs.spin(fs.costs.data)
	}
}

func (fs *FS) chargeAlloc() {
	if fs.spin != nil {
		fs.spin(fs.costs.alloc)
	}
}

// Device returns the underlying device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

func (fs *FS) node(id vfs.NodeID) *node {
	fs.nmu.RLock()
	defer fs.nmu.RUnlock()
	if id == 0 || uint64(id) >= uint64(len(fs.nodes)) || fs.nodes[id] == nil {
		return nil
	}
	return fs.nodes[id]
}

// allocNode creates a DRAM inode and persists its initial record.
func (fs *FS) allocNode(mode, uid, gid uint32) vfs.NodeID {
	var id vfs.NodeID
	fs.freeIDs.mu.Lock()
	if n := len(fs.freeIDs.ids); n > 0 {
		id = fs.freeIDs.ids[n-1]
		fs.freeIDs.ids = fs.freeIDs.ids[:n-1]
	}
	fs.freeIDs.mu.Unlock()
	now := time.Now().UnixNano()
	nd := &node{attr: vfs.Attr{Mode: mode, UID: uid, GID: gid, Nlink: 1,
		Atime: now, Mtime: now, Ctime: now}}
	if fsapi.IsDir(mode) {
		if fs.kind == KindPMFS {
			nd.dirList = make([]dent, 0, 8)
		} else {
			nd.dirMap = make(map[string]vfs.NodeID, 8)
		}
	}
	fs.nmu.Lock()
	if id == 0 {
		fs.nodes = append(fs.nodes, nd)
		id = vfs.NodeID(len(fs.nodes) - 1)
	} else {
		fs.nodes[id] = nd
	}
	fs.nmu.Unlock()
	fs.persistInode(id)
	return id
}

func (fs *FS) freeNode(id vfs.NodeID) {
	fs.nmu.Lock()
	fs.nodes[id] = nil
	fs.nmu.Unlock()
	fs.freeIDs.mu.Lock()
	fs.freeIDs.ids = append(fs.freeIDs.ids, id)
	fs.freeIDs.mu.Unlock()
}

// persistInode writes the inode's persistent record through the journal
// discipline of the kind.
func (fs *FS) persistInode(id vfs.NodeID) {
	off := fs.inodeBase + (uint64(id)%fs.inodeCap)*inodeSlot
	fs.j.logMeta(id, inodeSlot)
	// In-place inode write (NOVA's log entry doubles as the record, but it
	// still maintains its inode table for lookups).
	var rec [inodeSlot]byte
	fs.dev.WriteAt(off, rec[:])
	fs.dev.Flush(off, inodeSlot)
	fs.j.orderPoint()
}

// persistDentry appends a dentry record to the directory's persistent area.
func (fs *FS) persistDentry(dir *node, dirID vfs.NodeID) {
	if dir.dentArea.n == 0 || dir.dentOff+dentryRecord > dir.dentArea.n*BlockSize {
		b, err := fs.ba.Alloc(1, uint64(dirID))
		if err != nil {
			return // out of space: skip persistence bookkeeping
		}
		dir.dentArea = run{start: b, n: 1}
		dir.dentOff = 0
	}
	off := dir.dentArea.start*BlockSize + dir.dentOff
	dir.dentOff += dentryRecord
	fs.j.logMeta(dirID, dentryRecord)
	var rec [dentryRecord]byte
	fs.dev.WriteAt(off, rec[:])
	fs.dev.Flush(off, dentryRecord)
	fs.j.orderPoint()
}

// Lookup implements vfs.InnerFS.
func (fs *FS) Lookup(dir vfs.NodeID, name string) (vfs.NodeID, error) {
	fs.chargeLookup()
	d := fs.node(dir)
	if d == nil {
		return 0, fsapi.ErrNotExist
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !fsapi.IsDir(d.attr.Mode) {
		return 0, fsapi.ErrNotDir
	}
	if fs.kind == KindPMFS {
		// Unsorted linear scan.
		for i := range d.dirList {
			if d.dirList[i].name == name {
				return d.dirList[i].node, nil
			}
		}
		return 0, fsapi.ErrNotExist
	}
	n, ok := d.dirMap[name]
	if !ok {
		return 0, fsapi.ErrNotExist
	}
	return n, nil
}

// GetAttr implements vfs.InnerFS.
func (fs *FS) GetAttr(id vfs.NodeID) (vfs.Attr, error) {
	n := fs.node(id)
	if n == nil {
		return vfs.Attr{}, fsapi.ErrNotExist
	}
	n.mu.Lock()
	a := n.attr
	n.mu.Unlock()
	return a, nil
}

// SetAttr implements vfs.InnerFS.
func (fs *FS) SetAttr(id vfs.NodeID, perm *uint32, atime, mtime *int64) error {
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	if perm != nil {
		n.attr.Mode = n.attr.Mode&fsapi.ModeTypeMask | *perm&fsapi.ModePermMask
	}
	if atime != nil {
		n.attr.Atime = *atime
	}
	if mtime != nil {
		n.attr.Mtime = *mtime
	}
	n.attr.Ctime = time.Now().UnixNano()
	n.mu.Unlock()
	fs.persistInode(id)
	return nil
}

// dirInsert adds a name under the directory (caller holds VFS dir mutex,
// but the node mutex still guards against lookup racers).
func (fs *FS) dirInsert(dirID vfs.NodeID, name string, child vfs.NodeID) error {
	d := fs.node(dirID)
	if d == nil {
		return fsapi.ErrNotExist
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !fsapi.IsDir(d.attr.Mode) {
		return fsapi.ErrNotDir
	}
	if fs.kind == KindPMFS {
		for i := range d.dirList {
			if d.dirList[i].name == name {
				return fsapi.ErrExist
			}
		}
		d.dirList = append(d.dirList, dent{name, child})
	} else {
		if _, ok := d.dirMap[name]; ok {
			return fsapi.ErrExist
		}
		d.dirMap[name] = child
	}
	d.attr.Mtime = time.Now().UnixNano()
	fs.persistDentry(d, dirID)
	return nil
}

// dirRemove removes a name, returning the child it mapped to.
func (fs *FS) dirRemove(dirID vfs.NodeID, name string) (vfs.NodeID, error) {
	d := fs.node(dirID)
	if d == nil {
		return 0, fsapi.ErrNotExist
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if fs.kind == KindPMFS {
		for i := range d.dirList {
			if d.dirList[i].name == name {
				child := d.dirList[i].node
				d.dirList = append(d.dirList[:i], d.dirList[i+1:]...)
				fs.persistDentry(d, dirID)
				return child, nil
			}
		}
		return 0, fsapi.ErrNotExist
	}
	child, ok := d.dirMap[name]
	if !ok {
		return 0, fsapi.ErrNotExist
	}
	delete(d.dirMap, name)
	fs.persistDentry(d, dirID)
	return child, nil
}

// Create implements vfs.InnerFS.
func (fs *FS) Create(dir vfs.NodeID, name string, mode, uid, gid uint32) (vfs.NodeID, error) {
	fs.chargeMeta()
	id := fs.allocNode(mode, uid, gid)
	if err := fs.dirInsert(dir, name, id); err != nil {
		fs.freeNode(id)
		return 0, err
	}
	fs.j.commitSmall()
	return id, nil
}

// Mkdir implements vfs.InnerFS.
func (fs *FS) Mkdir(dir vfs.NodeID, name string, mode, uid, gid uint32) (vfs.NodeID, error) {
	fs.chargeMeta()
	id := fs.allocNode(mode, uid, gid)
	fs.node(id).attr.Nlink = 2
	if err := fs.dirInsert(dir, name, id); err != nil {
		fs.freeNode(id)
		return 0, err
	}
	fs.j.commitSmall()
	return id, nil
}

// Symlink implements vfs.InnerFS.
func (fs *FS) Symlink(dir vfs.NodeID, name, target string, uid, gid uint32) (vfs.NodeID, error) {
	fs.chargeMeta()
	id := fs.allocNode(fsapi.ModeSymlink|0o777, uid, gid)
	n := fs.node(id)
	n.target = target
	n.attr.Size = uint64(len(target))
	if err := fs.dirInsert(dir, name, id); err != nil {
		fs.freeNode(id)
		return 0, err
	}
	fs.j.commitSmall()
	return id, nil
}

// Readlink implements vfs.InnerFS.
func (fs *FS) Readlink(id vfs.NodeID) (string, error) {
	n := fs.node(id)
	if n == nil {
		return "", fsapi.ErrNotExist
	}
	if !fsapi.IsSymlink(n.attr.Mode) {
		return "", fsapi.ErrInval
	}
	return n.target, nil
}

// Link implements vfs.InnerFS.
func (fs *FS) Link(dir vfs.NodeID, name string, target vfs.NodeID) error {
	fs.chargeMeta()
	t := fs.node(target)
	if t == nil {
		return fsapi.ErrNotExist
	}
	if err := fs.dirInsert(dir, name, target); err != nil {
		return err
	}
	t.mu.Lock()
	t.attr.Nlink++
	t.mu.Unlock()
	fs.persistInode(target)
	fs.j.commitSmall()
	return nil
}

// Unlink implements vfs.InnerFS.
func (fs *FS) Unlink(dir vfs.NodeID, name string) error {
	fs.chargeMeta()
	d := fs.node(dir)
	if d == nil {
		return fsapi.ErrNotExist
	}
	// Type check before removal.
	child, err := fs.Lookup(dir, name)
	if err != nil {
		return err
	}
	cn := fs.node(child)
	if cn == nil {
		return fsapi.ErrNotExist
	}
	if fsapi.IsDir(cn.attr.Mode) {
		return fsapi.ErrIsDir
	}
	if _, err := fs.dirRemove(dir, name); err != nil {
		return err
	}
	fs.dropLink(child, cn)
	fs.j.commitSmall()
	return nil
}

// dropLink removes one name of a file; the last one retires it.
func (fs *FS) dropLink(id vfs.NodeID, n *node) {
	n.mu.Lock()
	n.attr.Nlink--
	last := n.attr.Nlink == 0
	n.mu.Unlock()
	fs.persistInode(id)
	if last {
		fs.retire(id, n)
	}
}

// retire frees a node that has no name left — now, or, if descriptors still
// hold it, when the last of them is released.
func (fs *FS) retire(id vfs.NodeID, n *node) {
	n.mu.Lock()
	n.orphan = n.holds > 0
	n.gone = !n.orphan
	gone := n.gone
	n.mu.Unlock()
	if gone {
		fs.releaseData(n)
		fs.freeNode(id)
	}
}

// Hold implements vfs.InnerFS.
func (fs *FS) Hold(id vfs.NodeID) error {
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.gone {
		return fsapi.ErrNotExist
	}
	n.holds++
	return nil
}

// Release implements vfs.InnerFS.
func (fs *FS) Release(id vfs.NodeID) {
	n := fs.node(id)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.holds--
	last := n.orphan && n.holds == 0
	n.mu.Unlock()
	if last {
		fs.retire(id, n)
	}
}

// Rmdir implements vfs.InnerFS.
func (fs *FS) Rmdir(dir vfs.NodeID, name string) error {
	fs.chargeMeta()
	child, err := fs.Lookup(dir, name)
	if err != nil {
		return err
	}
	cn := fs.node(child)
	if cn == nil {
		return fsapi.ErrNotExist
	}
	cn.mu.Lock()
	if !fsapi.IsDir(cn.attr.Mode) {
		cn.mu.Unlock()
		return fsapi.ErrNotDir
	}
	empty := len(cn.dirMap) == 0 && len(cn.dirList) == 0
	cn.mu.Unlock()
	if !empty {
		return fsapi.ErrNotEmpty
	}
	if _, err := fs.dirRemove(dir, name); err != nil {
		return err
	}
	if cn.dentArea.n > 0 {
		fs.ba.Free(cn.dentArea.start, cn.dentArea.n)
	}
	fs.retire(child, cn)
	fs.j.commitSmall()
	return nil
}

// Rename implements vfs.InnerFS.
func (fs *FS) Rename(odir vfs.NodeID, oname string, ndir vfs.NodeID, nname string) error {
	fs.chargeMeta()
	child, err := fs.Lookup(odir, oname)
	if err != nil {
		return err
	}
	// Replace an existing destination (POSIX).
	if existing, err := fs.Lookup(ndir, nname); err == nil {
		en := fs.node(existing)
		cn := fs.node(child)
		if en != nil && cn != nil {
			eDir, cDir := fsapi.IsDir(en.attr.Mode), fsapi.IsDir(cn.attr.Mode)
			switch {
			case eDir && !cDir:
				return fsapi.ErrIsDir
			case !eDir && cDir:
				return fsapi.ErrNotDir
			case eDir:
				en.mu.Lock()
				empty := len(en.dirMap) == 0 && len(en.dirList) == 0
				en.mu.Unlock()
				if !empty {
					return fsapi.ErrNotEmpty
				}
				fs.dirRemove(ndir, nname)
				fs.retire(existing, en)
			default:
				fs.dirRemove(ndir, nname)
				fs.dropLink(existing, en)
			}
		}
	}
	if _, err := fs.dirRemove(odir, oname); err != nil {
		return err
	}
	if err := fs.dirInsert(ndir, nname, child); err != nil {
		// Roll back.
		fs.dirInsert(odir, oname, child)
		return err
	}
	fs.j.commitSmall()
	return nil
}

// ReadDir implements vfs.InnerFS.
func (fs *FS) ReadDir(dir vfs.NodeID) ([]fsapi.DirEntry, error) {
	d := fs.node(dir)
	if d == nil {
		return nil, fsapi.ErrNotExist
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []fsapi.DirEntry
	add := func(name string, id vfs.NodeID) {
		n := fs.node(id)
		if n == nil {
			return
		}
		out = append(out, fsapi.DirEntry{Name: name, Ino: uint64(id), Mode: n.attr.Mode})
	}
	if fs.kind == KindPMFS {
		for i := range d.dirList {
			add(d.dirList[i].name, d.dirList[i].node)
		}
	} else {
		for name, id := range d.dirMap {
			add(name, id)
		}
	}
	return out, nil
}

// releaseData frees a file's data blocks.
func (fs *FS) releaseData(n *node) {
	n.mu.Lock()
	exts := n.extents
	n.extents = nil
	n.attr.Size = 0
	n.mu.Unlock()
	for _, r := range exts {
		fs.ba.Free(r.start, r.n)
	}
}

// ensureCapacity grows the extent list to cover size bytes.
// Caller must hold n.mu.
func (fs *FS) ensureCapacity(n *node, id vfs.NodeID, size uint64) error {
	var have uint64
	for _, r := range n.extents {
		have += r.n
	}
	need := (size + BlockSize - 1) / BlockSize
	for have < need {
		want := need - have
		var start uint64
		var err error
		cnt := want
		for {
			start, err = fs.ba.Alloc(cnt, uint64(id))
			if err == nil {
				break
			}
			if cnt == 1 {
				return fsapi.ErrNoSpace
			}
			cnt /= 2
		}
		// Allocation is a metadata mutation: journaled (bitmap/extent tree).
		fs.j.logMeta(id, 32)
		if len(n.extents) > 0 {
			last := &n.extents[len(n.extents)-1]
			if last.start+last.n == start {
				last.n += cnt
				have += cnt
				continue
			}
		}
		n.extents = append(n.extents, run{start, cnt})
		have += cnt
	}
	return nil
}

// extentFor maps a logical block to (physical block, run remainder).
func (n *node) extentFor(lb uint64) (uint64, uint64, bool) {
	var cum uint64
	for _, r := range n.extents {
		if lb < cum+r.n {
			w := lb - cum
			return r.start + w, r.n - w, true
		}
		cum += r.n
	}
	return 0, 0, false
}

// WriteAt implements vfs.InnerFS: a DAX write — copy to NVMM, flush the
// written lines, fence, then journal the inode-size update.
func (fs *FS) WriteAt(id vfs.NodeID, p []byte, off uint64) (int, error) {
	fs.chargeData()
	n := fs.node(id)
	if n == nil {
		return 0, fsapi.ErrNotExist
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := fs.ensureCapacity(n, id, off+uint64(len(p))); err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		pos := off + uint64(written)
		phys, rem, ok := n.extentFor(pos / BlockSize)
		if !ok {
			return written, fsapi.ErrNoSpace
		}
		within := pos % BlockSize
		avail := rem*BlockSize - within
		chunk := uint64(len(p) - written)
		if chunk > avail {
			chunk = avail
		}
		dst := phys*BlockSize + within
		fs.dev.WriteAt(dst, p[written:written+int(chunk)])
		fs.dev.Flush(dst, chunk)
		written += int(chunk)
	}
	fs.dev.Fence()
	if end := off + uint64(len(p)); end > n.attr.Size {
		n.attr.Size = end
		fs.j.logMeta(id, 16)
		fs.j.orderPoint()
	}
	n.attr.Mtime = time.Now().UnixNano()
	return written, nil
}

// ReadAt implements vfs.InnerFS.
func (fs *FS) ReadAt(id vfs.NodeID, p []byte, off uint64) (int, error) {
	fs.chargeData()
	n := fs.node(id)
	if n == nil {
		return 0, fsapi.ErrNotExist
	}
	n.mu.Lock()
	size := n.attr.Size
	// Copy the extent slice header so reads don't hold the node mutex
	// while copying data (the VFS rwsem already excludes writers).
	exts := n.extents
	n.mu.Unlock()
	if off >= size {
		return 0, nil
	}
	if off+uint64(len(p)) > size {
		p = p[:size-off]
	}
	tmp := node{extents: exts}
	read := 0
	for read < len(p) {
		pos := off + uint64(read)
		phys, rem, ok := tmp.extentFor(pos / BlockSize)
		if !ok {
			for i := read; i < len(p); i++ {
				p[i] = 0
			}
			read = len(p)
			break
		}
		within := pos % BlockSize
		avail := rem*BlockSize - within
		chunk := uint64(len(p) - read)
		if chunk > avail {
			chunk = avail
		}
		fs.dev.ReadAt(phys*BlockSize+within, p[read:read+int(chunk)])
		read += int(chunk)
	}
	return read, nil
}

// Truncate implements vfs.InnerFS.
func (fs *FS) Truncate(id vfs.NodeID, size uint64) error {
	fs.chargeMeta()
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if size > n.attr.Size {
		if err := fs.ensureCapacity(n, id, size); err != nil {
			return err
		}
	} else {
		keep := (size + BlockSize - 1) / BlockSize
		var cum uint64
		var kept []run
		for _, r := range n.extents {
			switch {
			case cum+r.n <= keep:
				kept = append(kept, r)
			case cum >= keep:
				fs.ba.Free(r.start, r.n)
			default:
				h := keep - cum
				kept = append(kept, run{r.start, h})
				fs.ba.Free(r.start+h, r.n-h)
			}
			cum += r.n
		}
		n.extents = kept
	}
	n.attr.Size = size
	fs.j.logMeta(id, 16)
	fs.j.orderPoint()
	return nil
}

// Fallocate implements vfs.InnerFS.
func (fs *FS) Fallocate(id vfs.NodeID, size uint64) error {
	fs.chargeAlloc()
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := fs.ensureCapacity(n, id, size); err != nil {
		return err
	}
	if size > n.attr.Size {
		n.attr.Size = size
		fs.j.logMeta(id, 16)
		fs.j.orderPoint()
	}
	return nil
}

// Fsync implements vfs.InnerFS: force the journal durable.
func (fs *FS) Fsync(id vfs.NodeID) error {
	fs.j.commit()
	fs.dev.Fence()
	return nil
}

// The following helpers exist for SplitFS, which allocates staging regions
// and relinks them into files without copying.

// AllocBlocks hands out a contiguous run of data blocks (journaled as a
// bitmap/extent-tree update, like any allocation).
func (fs *FS) AllocBlocks(n uint64, hint uint64) (uint64, error) {
	start, err := fs.ba.Alloc(n, hint)
	if err != nil {
		return 0, fsapi.ErrNoSpace
	}
	fs.j.logMeta(0, 32)
	return start, nil
}

// FreeBlocks returns a run of data blocks.
func (fs *FS) FreeBlocks(start, n uint64) { fs.ba.Free(start, n) }

// AppendRun attaches an already-written run of blocks to the end of a
// file's extent list (the relink fast path: no data copy).
func (fs *FS) AppendRun(id vfs.NodeID, start, cnt uint64) error {
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.extents) > 0 {
		last := &n.extents[len(n.extents)-1]
		if last.start+last.n == start {
			last.n += cnt
			fs.j.logMeta(id, 32)
			fs.j.orderPoint()
			return nil
		}
	}
	n.extents = append(n.extents, run{start, cnt})
	fs.j.logMeta(id, 32)
	fs.j.orderPoint()
	return nil
}

// SetSize updates a file's size (journaled).
func (fs *FS) SetSize(id vfs.NodeID, size uint64) error {
	n := fs.node(id)
	if n == nil {
		return fsapi.ErrNotExist
	}
	n.mu.Lock()
	n.attr.Size = size
	n.mu.Unlock()
	fs.j.logMeta(id, 16)
	fs.j.orderPoint()
	return nil
}
