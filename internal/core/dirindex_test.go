package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// TestDirLineLayout pins what keeps a writer on line k from invalidating
// the cache lines readers of line k±1 load, for any 8-byte-aligned base:
// lines are two cache lines apart and a line's fields end within 72 bytes.
func TestDirLineLayout(t *testing.T) {
	var l dirLine
	if s := unsafe.Sizeof(l); s != 2*pmem.CachelineSize {
		t.Fatalf("dirLine is %d bytes, want %d", s, 2*pmem.CachelineSize)
	}
	if end := unsafe.Offsetof(l.free) + unsafe.Sizeof(l.free); end > 72 {
		t.Fatalf("dirLine's fields end at byte %d, want <= 72", end)
	}
}

// TestShardLayout pins what keeps two volatile-map shards off one cache
// line: a shard is exactly one line, whatever it maps to.
func TestShardLayout(t *testing.T) {
	var a shardOf[*dirLine]
	var b shardOf[uint64]
	if sa, sb := unsafe.Sizeof(a), unsafe.Sizeof(b); sa != pmem.CachelineSize || sb != pmem.CachelineSize {
		t.Fatalf("shardOf is %d and %d bytes, want %d", sa, sb, pmem.CachelineSize)
	}
}

// TestLineTableAgainstMap drives one line's table with a random add/remove
// sequence (few distinct hashes, so cells collide and are reused) and checks
// candidates against a plain map after every step.
func TestLineTableAgainstMap(t *testing.T) {
	var l dirLine
	ref := map[uint64]map[uint64]bool{}
	type pair struct{ h, slot uint64 }
	var live []pair
	rng := uint64(1)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33 % n
	}
	for step := 0; step < 20000; step++ {
		if len(live) == 0 || (len(live) < 300 && next(3) != 0) {
			p := pair{h: 2 + next(40), slot: 4096 + 8*uint64(step)} // 0 and 1 share keys with 2 and 3
			l.add(p.h, p.slot)
			if ref[p.h] == nil {
				ref[p.h] = map[uint64]bool{}
			}
			ref[p.h][p.slot] = true
			live = append(live, p)
		} else {
			i := next(uint64(len(live)))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !l.containsSlot(p.h, p.slot) {
				t.Fatalf("step %d: (%d,%d) not in the table", step, p.h, p.slot)
			}
			if next(4) == 0 {
				l.removeSlotAnyHash(p.slot)
			} else {
				l.remove(p.h, p.slot)
			}
			delete(ref[p.h], p.slot)
		}
		h := 2 + next(40)
		got := l.candidates(h, nil)
		if len(got) != len(ref[h]) {
			t.Fatalf("step %d: hash %d has %d candidates, want %d", step, h, len(got), len(ref[h]))
		}
		for _, s := range got {
			if !ref[h][s] {
				t.Fatalf("step %d: hash %d: stray candidate %d", step, h, s)
			}
		}
		if int(l.live) != len(live) {
			t.Fatalf("step %d: live = %d, want %d", step, l.live, len(live))
		}
	}
}

// TestLineTableChurnStaysSmall checks that tombstones do not make a line's
// table grow: a handful of live names under endless create/unlink must stay
// in a handful of cells.
func TestLineTableChurnStaysSmall(t *testing.T) {
	var l dirLine
	for i := uint64(0); i < 100000; i++ {
		l.add(i*0x9E3779B97F4A7C15, 4096+8*i)
		if i >= 4 {
			l.remove((i-4)*0x9E3779B97F4A7C15, 4096+8*(i-4))
		}
	}
	if n := len(l.tab.Load().cells); n > 4*minLineCap {
		t.Fatalf("table grew to %d cells for 4 live entries", n)
	}
}

// indexImage is a directory's volatile index in comparable form.
type indexImage struct {
	cells [NLines][][2]uint64 // (key, slot), sorted
	free  [NLines][]uint64    // sorted
}

func imageOf(ds *dirState) *indexImage {
	im := new(indexImage)
	for i := range ds.lines {
		l := &ds.lines[i]
		if t := l.tab.Load(); t != nil {
			for j := range t.cells {
				if k := t.cells[j].key.Load(); k > cellTomb {
					im.cells[i] = append(im.cells[i], [2]uint64{k, t.cells[j].slot.Load()})
				}
			}
		}
		sort.Slice(im.cells[i], func(a, b int) bool {
			x, y := im.cells[i][a], im.cells[i][b]
			return x[0] < y[0] || x[0] == y[0] && x[1] < y[1]
		})
		im.free[i] = append(im.free[i], l.free...)
		sort.Slice(im.free[i], func(a, b int) bool { return im.free[i][a] < im.free[i][b] })
	}
	return im
}

// checkIndex fails unless the volatile index of the directory at path equals
// one rebuilt from its persistent chain. Call it on a quiet volume.
func checkIndex(t *testing.T, fs *FS, c fsapi.Client, path string) {
	t.Helper()
	st, err := c.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	first := fs.inoData(pmem.Ptr(st.Ino))
	have := imageOf(fs.ensureIndex(first))
	fresh := new(dirState)
	fs.buildIndex(first, fresh)
	want := imageOf(fresh)
	for line := 0; line < NLines; line++ {
		if fmt.Sprint(have.cells[line]) != fmt.Sprint(want.cells[line]) {
			t.Errorf("%s line %d: index has %v, chain has %v", path, line, have.cells[line], want.cells[line])
		}
		if fmt.Sprint(have.free[line]) != fmt.Sprint(want.free[line]) {
			t.Errorf("%s line %d: free list has %v, chain has %v", path, line, have.free[line], want.free[line])
		}
	}
}

// fsckWalk is the consistency walk of the torn-crash tests: every directory
// lists, and everything listed stats — under the inode the listing gave.
func fsckWalk(t *testing.T, c fsapi.Client, dir string) (files int) {
	t.Helper()
	ents, err := c.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir %s: %v", dir, err)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		if seen[e.Name] {
			t.Errorf("%s lists %q twice", dir, e.Name)
		}
		seen[e.Name] = true
		p := dir + "/" + e.Name
		st, err := c.Lstat(p)
		if err != nil {
			t.Errorf("listed %s does not stat: %v", p, err)
			continue
		}
		if st.Ino != e.Ino {
			t.Errorf("%s: listed as inode %#x, stats as %#x", p, e.Ino, st.Ino)
		}
		if fsapi.IsDir(st.Mode) {
			files += fsckWalk(t, c, p)
		} else {
			files++
		}
	}
	return files
}

// TestRmdirDropsDirState: a removed directory's blocks go back to the
// allocator, and the directory that gets its first block next must start
// from its own chain — not from the index of the one before, whose free
// slots lie in blocks that now belong to other directories.
func TestRmdirDropsDirState(t *testing.T) {
	dev, fs := newFSForTest(t, 128<<20)
	c := rootClient(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Mkdir("/a", 0o755))
	for i := 0; i < 2000; i++ {
		fd, err := c.Create(fmt.Sprintf("/a/f%04d", i), 0o644)
		must(err)
		must(c.Close(fd))
	}
	for i := 0; i < 2000; i++ {
		must(c.Unlink(fmt.Sprintf("/a/f%04d", i)))
	}
	must(c.Rmdir("/a"))
	check := func(c fsapi.Client) {
		t.Helper()
		for d := 0; d < 8; d++ {
			ents, err := c.ReadDir(fmt.Sprintf("/b%d", d))
			must(err)
			if len(ents) != 300 {
				t.Errorf("/b%d lists %d entries, want 300", d, len(ents))
			}
		}
		if n := fsckWalk(t, c, ""); n != 8*300 {
			t.Errorf("walk found %d files, want %d", n, 8*300)
		}
	}
	for d := 0; d < 8; d++ {
		must(c.Mkdir(fmt.Sprintf("/b%d", d), 0o755))
	}
	for d := 0; d < 8; d++ {
		for i := 0; i < 300; i++ {
			fd, err := c.Create(fmt.Sprintf("/b%d/f%03d", d, i), 0o644)
			must(err)
			must(c.Close(fd))
		}
	}
	check(c)
	for d := 0; d < 8; d++ {
		checkIndex(t, fs, c, fmt.Sprintf("/b%d", d))
	}

	fs.Unmount()
	fs2, _, err := Mount(dev, Options{})
	must(err)
	check(rootClient(t, fs2))
}

// The concurrent model test. Creators, unlinkers, a same-directory renamer, a
// cross-directory renamer and statters all meet on one hash line of two
// directories, on a handful of names.
//
// Every file carries the name it was created under in its permission bits,
// so a lookup that hands back another name's inode shows — through Stat, and
// through the descriptor an open returns. What must hold while they run:
//
//   - a name nobody touches is never missing, and keeps its inode;
//   - a hit is the right file: the permission bits say so;
//   - O_CREAT without O_EXCL never fails, ErrNotExist least of all.
//
// And once they stop — because they are done, or because every one of them
// "died" at its next fence and the device lost what was not fenced —
// each directory's volatile index equals one rebuilt from its persistent
// chain, the tree walks, and every ball is under exactly one of its names.
type indexModel struct {
	t    *testing.T
	fs   *FS
	line int

	stable [2]string    // per directory; never touched
	ino    [2]uint64    // their inodes
	churn  []string     // in /a: created and unlinked
	same   [2]string    // in /a: one file renamed back and forth
	cross  string       // one file renamed between /a and /b
	dead   atomic.Bool  // crash phase: the device stops every fence from now on
	ops    atomic.Int64 // mutations done
	wg     sync.WaitGroup
	fail   atomic.Bool
	dirs   [2]string
	perm   map[string]uint32
	target int64 // mutations after which the run stops (or crashes)
	crash  bool
}

func (m *indexModel) errorf(format string, args ...any) {
	m.fail.Store(true)
	m.t.Errorf(format, args...)
}

// done reports whether the workers should stop; in the crash phase reaching
// the target is what kills them.
func (m *indexModel) done() bool {
	if m.fail.Load() {
		return true
	}
	if m.ops.Load() < m.target {
		return false
	}
	if m.crash && m.dead.CompareAndSwap(false, true) {
		dev := m.fs.dev
		dev.StopAt(dev.Stats.Fences.Load() + 1)
	}
	return true
}

func newIndexModel(t *testing.T, fs *FS) *indexModel {
	m := &indexModel{t: t, fs: fs, dirs: [2]string{"/a", "/b"}, perm: map[string]uint32{}}
	// Names of one line: the first one picks it.
	var names []string
	for i := 0; len(names) < 7; i++ {
		n := fmt.Sprintf("n%d", i)
		if len(names) == 0 {
			m.line = lineOf(fnv32(n))
		}
		if lineOf(fnv32(n)) == m.line {
			names = append(names, n)
		}
	}
	c := rootClient(t, fs)
	for d, dir := range m.dirs {
		if err := c.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		m.stable[d] = dir + "/" + names[0]
	}
	m.churn = []string{"/a/" + names[1], "/a/" + names[2], "/a/" + names[3]}
	m.same = [2]string{"/a/" + names[4], "/a/" + names[5]}
	m.cross = names[6]
	create := func(path string, perm uint32) uint64 {
		t.Helper()
		fd, err := c.Open(path, fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, perm)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := c.Fstat(fd)
		c.Close(fd)
		return st.Ino
	}
	for d := range m.dirs {
		m.perm[m.stable[d]] = 0o600
		m.ino[d] = create(m.stable[d], 0o600)
	}
	for i, p := range m.churn {
		m.perm[p] = 0o610 + uint32(i)
	}
	m.perm[m.same[0]], m.perm[m.same[1]] = 0o620, 0o620
	create(m.same[0], 0o620)
	m.perm["/a/"+m.cross], m.perm["/b/"+m.cross] = 0o630, 0o630
	create("/a/"+m.cross, 0o630)
	return m
}

// worker runs f until the run is over, f fails, or the "process" dies.
func (m *indexModel) worker(f func(c fsapi.Client, i int) error) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		c, _ := m.fs.Attach(fsapi.Root)
		for i := 0; !m.done(); i++ {
			var err error
			if pmem.Run(func() { err = f(c, i) }) {
				return // died at a fence
			}
			if err != nil {
				m.errorf("%v", err)
				return
			}
		}
	}()
}

// bouncer returns a worker body that renames one file back and forth
// between two names, starting from wherever it is.
func (m *indexModel) bouncer(names [2]string) func(c fsapi.Client, i int) error {
	at := -1
	return func(c fsapi.Client, _ int) error {
		if at < 0 {
			at = 0
			if _, err := c.Stat(names[0]); err != nil {
				at = 1
			}
		}
		if err := c.Rename(names[at], names[1-at]); err != nil {
			return fmt.Errorf("rename %s: %w", names[at], err)
		}
		at = 1 - at
		m.ops.Add(1)
		return nil
	}
}

func (m *indexModel) run() {
	for w := 0; w < 2; w++ {
		w := w
		m.worker(func(c fsapi.Client, i int) error { // creator
			p := m.churn[(i+w)%len(m.churn)]
			fd, err := c.Open(p, fsapi.OCreate|fsapi.OWronly, m.perm[p])
			if err != nil {
				return fmt.Errorf("open(O_CREAT) %s: %w", p, err)
			}
			m.ops.Add(1)
			if st, err := c.Fstat(fd); err != nil || st.Mode&fsapi.ModePermMask != m.perm[p] {
				return fmt.Errorf("open(O_CREAT) %s returned a descriptor for mode %o (%v), want %o", p, st.Mode, err, m.perm[p])
			}
			return c.Close(fd)
		})
		m.worker(func(c fsapi.Client, i int) error { // unlinker
			p := m.churn[(i+2*w)%len(m.churn)]
			if err := c.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
				return fmt.Errorf("unlink %s: %w", p, err)
			}
			m.ops.Add(1)
			return nil
		})
	}
	m.worker(m.bouncer(m.same))
	m.worker(m.bouncer([2]string{"/a/" + m.cross, "/b/" + m.cross}))
	for w := 0; w < 2; w++ {
		m.worker(func(c fsapi.Client, i int) error { // statter
			for d, p := range m.stable {
				st, err := c.Stat(p)
				if err != nil {
					return fmt.Errorf("%s, which nobody touches: %w", p, err)
				}
				if st.Ino != m.ino[d] {
					return fmt.Errorf("%s changed inode: %#x, was %#x", p, st.Ino, m.ino[d])
				}
			}
			for p, perm := range m.perm {
				st, err := c.Stat(p)
				if errors.Is(err, fsapi.ErrNotExist) {
					continue
				}
				if err != nil {
					return fmt.Errorf("stat %s: %w", p, err)
				}
				if st.Mode&fsapi.ModePermMask != perm || !fsapi.IsRegular(st.Mode) {
					return fmt.Errorf("stat %s hit a file of mode %o, want %o", p, st.Mode, perm)
				}
			}
			if i%16 == 0 {
				if _, err := c.ReadDir(m.dirs[i/16%2]); err != nil {
					return fmt.Errorf("readdir: %w", err)
				}
			}
			return nil
		})
	}
	m.wg.Wait()
}

// verify runs the quiescent checks against fs (the volume the workers ran
// on, or the one mounted after the crash).
func (m *indexModel) verify(fs *FS) {
	t := m.t
	c := rootClient(t, fs)
	exists := func(p string) bool {
		st, err := c.Stat(p)
		if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			t.Errorf("stat %s: %v", p, err)
		}
		if err == nil && st.Mode&fsapi.ModePermMask != m.perm[p] {
			t.Errorf("%s has mode %o, want %o", p, st.Mode, m.perm[p])
		}
		return err == nil
	}
	for d, p := range m.stable {
		if st, err := c.Stat(p); err != nil || st.Ino != m.ino[d] {
			t.Errorf("%s: inode %#x (%v), want %#x", p, st.Ino, err, m.ino[d])
		}
	}
	for _, p := range m.churn {
		exists(p)
	}
	if a, b := exists(m.same[0]), exists(m.same[1]); a == b {
		t.Errorf("same-directory ball: %s exists=%v, %s exists=%v", m.same[0], a, m.same[1], b)
	}
	if a, b := exists("/a/"+m.cross), exists("/b/"+m.cross); a == b {
		t.Errorf("cross-directory ball: in /a=%v, in /b=%v", a, b)
	}
	fsckWalk(t, c, "")
	for _, dir := range m.dirs {
		checkIndex(t, fs, c, dir)
	}
	// The volume still takes a create, a lookup and an unlink.
	p := m.stable[0] + "-after"
	fd, err := c.Create(p, 0o600)
	if err != nil {
		t.Fatalf("create after the run: %v", err)
	}
	c.Close(fd)
	if _, err := c.Stat(p); err != nil {
		t.Errorf("stat after the run: %v", err)
	}
	if err := c.Unlink(p); err != nil {
		t.Errorf("unlink after the run: %v", err)
	}
}

func TestIndexConcurrentModel(t *testing.T) {
	dev := pmem.New(64 << 20)
	// Nobody dies in the first phase, and a waiter must not mistake a holder
	// the scheduler has parked for a dead one.
	opts := Options{LineLockTimeout: time.Minute}
	fs, err := Format(dev, fsapi.Root, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newIndexModel(t, fs)

	m.target = 6000
	if testing.Short() {
		m.target = 1500
	}
	m.run()
	if t.Failed() {
		return
	}
	m.verify(fs)

	// Again, but this time every process dies mid-operation — at its next
	// fence, holding whatever line it holds — and the device loses
	// everything not yet fenced.
	dev.SetMode(pmem.ModeTracked)
	fs.lineTimeout = 200 * time.Millisecond // now holders do die
	m.crash, m.target = true, m.ops.Load()+m.target/4
	m.run()
	if t.Failed() {
		return
	}
	dev.StopAt(0)
	dev.Crash()
	fs2, stats, err := Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WasClean {
		t.Error("mount after the crash reports a clean volume")
	}
	m.verify(fs2)
}

// resolveBench times depth-3 Stat calls from b.RunParallel goroutines, each
// over its own tree (private) or all over the same one (shared).
func resolveBench(b *testing.B, shared bool) {
	dev := pmem.New(256 << 20)
	fs, err := Format(dev, fsapi.Root, Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	const trees, files = 8, 256
	paths := make([][]string, trees)
	for tr := range paths {
		c.Mkdir(fmt.Sprintf("/d%d", tr), 0o755)
		c.Mkdir(fmt.Sprintf("/d%d/sub", tr), 0o755)
		for f := 0; f < files; f++ {
			p := fmt.Sprintf("/d%d/sub/f%04d", tr, f)
			fd, err := c.Create(p, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			c.Close(fd)
			paths[tr] = append(paths[tr], p)
		}
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl, _ := fs.Attach(fsapi.Root)
		mine := paths[0]
		if !shared {
			mine = paths[int(next.Add(1))%trees]
		}
		for i := 0; pb.Next(); i++ {
			if _, err := cl.Stat(mine[i%files]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkResolveShared(b *testing.B)  { resolveBench(b, true) }
func BenchmarkResolvePrivate(b *testing.B) { resolveBench(b, false) }
