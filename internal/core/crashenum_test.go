package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// The crash-state enumerator. On NVMM a crash state is defined by a fence:
// what the media holds is what the fences before it made durable (plus,
// torn, any lines written since). So every fence is a crash point. For each
// mutating operation the enumerator runs it once on a fresh volume to count
// its fences n and to record the tree before and after it; then, for every
// k in 1..n and every failure kind, it runs it again on a fresh volume with
// the device stopped at fence k (pmem.Device.StopAt) and checks what
// recovery makes of that state:
//
//   - power and torn: the mount after Crash (CrashPartial) shows the tree
//     before or after the operation, a second crash and mount finds nothing
//     left to repair, and the volume takes a create and an unlink;
//   - death: the operation's process died at fence k, holding whatever line
//     busy bits and file lock it held. A second client reads the tree,
//     mutates a name on every held line — which makes it recover the line
//     (§4.3) — writes a data operation's file back over itself, and reads
//     the tree again, within 5 s. Reading and writing the file take its lock
//     over. When more than one line is held, it runs again with the lines
//     taken in the other order: the recovery of one may need the other.
//
// Claims then pin the specific recovery branch a fence must reach, each at a
// named fence (see fenceSites).

type failure int

const (
	power    failure = iota // Crash after the stop: the state after fence k-1
	torn                    // CrashPartial: some lines written since reached the media too
	death                   // no crash: the process died, its busy bits stay held
	reversed                // death, the held lines recovered last to first
)

func (f failure) String() string {
	return [...]string{"power", "torn", "death", "death, lines in reverse"}[f]
}

const (
	enumVolume = 4 << 20
	tornSeeds  = 4 // torn crashes per fence
)

// A waiter takes the line of a dead process over after a millisecond: only
// the survivor runs by then.
var enumOpts = Options{LineLockTimeout: time.Millisecond}

// crashOp is one mutating operation with the setup that reaches the branch
// it exercises.
type crashOp struct {
	name string
	// prep builds the starting state on a fresh volume and returns the
	// operation.
	prep func(c fsapi.Client) (func(c fsapi.Client) error, error)
	// data names the one file a data operation changes. Its size may be old
	// or new and each byte old or new.
	data string
	// replaced is the destination a rename onto an existing name removes
	// before it moves the source: a crash may leave neither (DESIGN §5).
	replaced string
	// linked is the file whose link count Link raises before the new entry
	// exists: after a process death it may stay one high until a mount.
	linked string
}

// fsNode is what the tree records of one name.
type fsNode struct {
	mode  uint32
	size  uint64
	nlink uint32
	data  string // file content or symlink target
	err   string // what reading it failed with
}

func (n fsNode) String() string {
	return fmt.Sprintf("{mode %o size %d nlink %d data %06x err %q}", n.mode, n.size, n.nlink, fnv64(n.data)&0xffffff, n.err)
}

type fsTree map[string]fsNode

// readTree walks the whole volume through the client.
func readTree(c fsapi.Client) fsTree {
	tr := fsTree{}
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := c.ReadDir(dir)
		if err != nil {
			tr[dir] = fsNode{err: err.Error()}
			return
		}
		for _, e := range ents {
			p := path.Join(dir, e.Name)
			if _, dup := tr[p]; dup {
				tr[p] = fsNode{err: "listed twice"}
				continue
			}
			var n fsNode
			st, err := c.Lstat(p)
			if err == nil {
				n.mode, n.size, n.nlink = st.Mode, st.Size, st.Nlink
				switch {
				case fsapi.IsDir(st.Mode):
					walk(p)
				case fsapi.IsSymlink(st.Mode):
					n.data, err = c.Readlink(p)
				default:
					n.data, err = readAll(c, p, st.Size)
				}
			}
			if err != nil {
				n.err = err.Error()
			}
			tr[p] = n
		}
	}
	walk("/")
	return tr
}

func readAll(c fsapi.Client, p string, size uint64) (string, error) {
	fd, err := c.Open(p, fsapi.ORdonly, 0)
	if err != nil {
		return "", err
	}
	defer c.Close(fd)
	buf := make([]byte, size)
	if n, err := c.Pread(fd, buf, 0); uint64(n) != size {
		return "", fmt.Errorf("read %d of %d bytes: %v", n, size, err)
	}
	return string(buf), nil
}

// allowed reports whether got is a tree the operation may leave: the one
// before it or the one after it, with the deviations its fields name.
func (op *crashOp) allowed(got, before, after fsTree, kind failure) bool {
	if op.data != "" {
		return dataAllowed(got, before, after, op.data)
	}
	if maps.Equal(got, before) || maps.Equal(got, after) {
		return true
	}
	if op.replaced != "" {
		b := maps.Clone(before)
		delete(b, op.replaced)
		if maps.Equal(got, b) {
			return true
		}
	}
	if op.linked != "" && kind >= death {
		b := maps.Clone(before)
		n := b[op.linked]
		n.nlink++
		b[op.linked] = n
		return maps.Equal(got, b)
	}
	return false
}

// dataAllowed: every other name is unchanged; the file's size is old or
// new, and each of its bytes is old or new.
func dataAllowed(got, before, after fsTree, file string) bool {
	if len(got) != len(before) {
		return false
	}
	for p, b := range before {
		if p != file && got[p] != b {
			return false
		}
	}
	g, o, w := got[file], before[file], after[file]
	if g.err != "" || g.mode != o.mode || g.nlink != o.nlink || g.size != o.size && g.size != w.size {
		return false
	}
	for i := 0; i < len(g.data); i++ {
		if !(i < len(o.data) && g.data[i] == o.data[i] || i < len(w.data) && g.data[i] == w.data[i]) {
			return false
		}
	}
	return true
}

// inFlux reports whether got may be read while a dead operation still holds
// its lines: the names it does not touch are unchanged, and each name it
// touches is as before, as after, or listed but not yet resolvable (a
// same-directory rename's new name sits in the old line until the line is
// recovered; a cross-directory rename's shadow is visible in both
// directories until the log is).
func inFlux(got, before, after fsTree) bool {
	for p, b := range before {
		if a, ok := after[p]; ok && a == b && got[p] != b {
			return false
		}
	}
	for p, g := range got {
		b, inBefore := before[p]
		a, inAfter := after[p]
		if !(inBefore && g == b || inAfter && g == a || g.err != "" && (inBefore || inAfter)) {
			return false
		}
	}
	return true
}

// treeDiff lists the names where got differs from both trees.
func treeDiff(got, before, after fsTree) string {
	var out []string
	for _, p := range slices.Sorted(maps.Keys(mergeTrees(got, before, after))) {
		g, gok := got[p]
		b, bok := before[p]
		a, aok := after[p]
		if gok == bok && g == b && gok == aok && g == a {
			continue
		}
		show := func(n fsNode, ok bool) string {
			if !ok {
				return "absent"
			}
			return n.String()
		}
		out = append(out, fmt.Sprintf("%s: got %s, before %s, after %s", p, show(g, gok), show(b, bok), show(a, aok)))
	}
	return strings.Join(out, "; ")
}

func mergeTrees(trees ...fsTree) fsTree {
	m := fsTree{}
	for _, tr := range trees {
		maps.Copy(m, tr)
	}
	return m
}

// fenceSites names each fence of a clean run by the core function that
// issued it and its ordinal there: "createEntry#2" is the second fence
// createEntry issued itself (not through a callee in core).
type fenceSites struct {
	sites []string
	seen  map[string]int
}

func (s *fenceSites) TraceEnabled() bool { return true }

func (s *fenceSites) ObserveFence(time.Time, time.Duration) {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if fn, ok := strings.CutPrefix(f.Function, "simurgh/internal/core."); ok {
			fn = fn[strings.LastIndexByte(fn, '.')+1:]
			s.seen[fn]++
			s.sites = append(s.sites, fmt.Sprintf("%s#%d", fn, s.seen[fn]))
			return
		}
		if !more {
			s.sites = append(s.sites, "?")
			return
		}
	}
}

// enumVol is one fresh volume with the operation's starting state, its
// device tracking durability from there on.
type enumVol struct {
	dev *pmem.Device
	fs  *FS
	c   fsapi.Client
	run func(fsapi.Client) error
}

func newEnumVol(op *crashOp) (*enumVol, error) {
	dev := pmem.New(enumVolume)
	fs, err := Format(dev, fsapi.Root, enumOpts)
	if err != nil {
		return nil, err
	}
	c, _ := fs.Attach(fsapi.Root)
	run, err := op.prep(c)
	if err != nil {
		return nil, fmt.Errorf("prep: %v", err)
	}
	dev.SetMode(pmem.ModeTracked)
	return &enumVol{dev, fs, c, run}, nil
}

// crashCase is one (operation, fence, failure) after recovery.
type crashCase struct {
	site          string
	kind          failure
	tree          fsTree         // after the mount; after a death, after the survivor recovered
	before, after fsTree         // the clean run's
	freeAfter     uint64         // free blocks a mount after the clean run finds
	stats         *RecoveryStats // the recovering mount's (power, torn)
	snap          obs.Snapshot   // the recovering volume's counters
	c             fsapi.Client   // a client of the recovered volume
	fs            *FS
	held          int // lines the dead process held (death)
}

// crashClaim is one recovery branch a named fence must reach.
type crashClaim struct {
	op    string
	site  string
	kind  failure
	check func(r *crashCase) error
}

type crashReport struct {
	sites  []string
	cases  int
	claims map[string]error // by claim name: nil once it held
}

var crashReports sync.Map // op name -> *crashReport

// enumerated returns the report of the named operation, enumerating it on
// first use.
func enumerated(t *testing.T, name string) *crashReport {
	t.Helper()
	if r, ok := crashReports.Load(name); ok {
		return r.(*crashReport)
	}
	for i := range crashOps {
		if crashOps[i].name == name {
			r := enumerate(t, &crashOps[i])
			crashReports.Store(name, r)
			return r
		}
	}
	t.Fatalf("no crash operation %q", name)
	return nil
}

func enumerate(t *testing.T, op *crashOp) *crashReport {
	t.Helper()
	v, err := newEnumVol(op)
	if err != nil {
		t.Fatalf("%s: %v", op.name, err)
	}
	before := readTree(v.c)
	rec := &fenceSites{seen: map[string]int{}}
	v.dev.SetFenceObserver(rec)
	if err := v.run(v.c); err != nil {
		t.Fatalf("%s: clean run: %v", op.name, err)
	}
	v.dev.SetFenceObserver(nil)
	after := readTree(v.c)
	v.dev.Crash()
	ref, _, err := Mount(v.dev, enumOpts)
	if err != nil {
		t.Fatalf("%s: mount after the clean run: %v", op.name, err)
	}
	freeAfter := ref.FreeBlocks()
	rep := &crashReport{sites: rec.sites, claims: map[string]error{}}
	for name, cl := range crashClaims {
		if cl.op == op.name {
			rep.claims[name] = fmt.Errorf("fence %s never stopped under %v", cl.site, cl.kind)
		}
	}
	kinds := []failure{power, torn, death, reversed}
	for k := 1; k <= len(rep.sites); k++ {
		held := 0
		for _, kind := range kinds {
			if kind == reversed && held < 2 {
				continue // the same case as death
			}
			seeds := 1
			if kind == torn {
				seeds = tornSeeds
			}
			for s := 0; s < seeds; s++ {
				r, err := runCase(op, k, kind, int64(k*tornSeeds+s), before, after)
				rep.cases++
				if err != nil {
					t.Errorf("%s at fence %d of %d (%s), %v: %v", op.name, k, len(rep.sites), rep.sites[k-1], kind, err)
					continue
				}
				r.site, r.before, r.after, r.freeAfter = rep.sites[k-1], before, after, freeAfter
				if kind == death {
					held = r.held
				}
				for name, cl := range crashClaims {
					if cl.op == op.name && cl.site == r.site && cl.kind == kind && rep.claims[name] != nil {
						if err := cl.check(r); err != nil {
							rep.claims[name] = fmt.Errorf("at fence %d (%s), %v: %v", k, r.site, kind, err)
						} else {
							rep.claims[name] = nil
						}
					}
				}
			}
		}
	}
	t.Logf("%s: %d fences, %d cases: %s", op.name, len(rep.sites), rep.cases, strings.Join(rep.sites, " "))
	return rep
}

// runCase stops the operation at fence k of a fresh volume and recovers.
func runCase(op *crashOp, k int, kind failure, seed int64, before, after fsTree) (*crashCase, error) {
	v, err := newEnumVol(op)
	if err != nil {
		return nil, err
	}
	v.dev.StopAt(v.dev.Stats.Fences.Load() + uint64(k))
	if !pmem.Run(func() { v.run(v.c) }) {
		return nil, errors.New("the operation ran to completion: its fence count changed")
	}
	v.dev.StopAt(0)
	if kind >= death {
		return survive(op, v, kind, before, after)
	}
	if kind == torn {
		v.dev.CrashPartial(rand.New(rand.NewSource(seed)))
	} else {
		v.dev.Crash()
	}
	r := &crashCase{kind: kind}
	fs, st, err := Mount(v.dev, enumOpts)
	if err != nil {
		return nil, fmt.Errorf("mount: %v", err)
	}
	r.stats, r.snap = st, fs.Stats()
	c, _ := fs.Attach(fsapi.Root)
	if r.tree = readTree(c); !op.allowed(r.tree, before, after, kind) {
		return nil, fmt.Errorf("recovered tree is neither before nor after: %s", treeDiff(r.tree, before, after))
	}
	// Recovery left nothing to repair: a second power failure finds a
	// consistent volume.
	v.dev.Crash()
	if r.fs, st, err = Mount(v.dev, enumOpts); err != nil {
		return nil, fmt.Errorf("second mount: %v", err)
	}
	if fixed := *st; fixed.FixedSlots+fixed.FixedCreates+fixed.FixedRenames+fixed.FixedLogs+fixed.FixedLinks+fixed.Reclaimed != 0 {
		return nil, fmt.Errorf("second mount still repaired: %+v", fixed)
	}
	r.c, _ = r.fs.Attach(fsapi.Root)
	return r, takesCreateAndUnlink(r.c, "/post-crash")
}

func takesCreateAndUnlink(c fsapi.Client, p string) error {
	fd, err := c.Create(p, 0o644)
	if err != nil {
		return fmt.Errorf("create %s: %v", p, err)
	}
	c.Close(fd)
	if err := c.Unlink(p); err != nil {
		return fmt.Errorf("unlink %s: %v", p, err)
	}
	return nil
}

// heldLine is a line whose busy bit a dead process left set.
type heldLine struct {
	dir  string
	line int
}

// survive is the second process after a death: it reads the tree, mutates a
// name on every line the dead one held, writes a data operation's file back
// over itself, and reads the tree again.
func survive(op *crashOp, v *enumVol, kind failure, before, after fsTree) (*crashCase, error) {
	r := &crashCase{kind: kind, fs: v.fs}
	c, _ := v.fs.Attach(fsapi.Root)
	r.c = c
	done := make(chan error, 1)
	go func() {
		pre := readTree(c)
		held := heldLines(v.fs, c, mergeTrees(before, after))
		r.held = len(held)
		if kind == reversed {
			slices.Reverse(held)
		}
		if !op.allowed(pre, before, after, death) && !(len(held) > 0 && inFlux(pre, before, after)) {
			done <- fmt.Errorf("tree before recovery (%d lines held): %s", len(held), treeDiff(pre, before, after))
			return
		}
		for _, h := range held {
			if err := takesCreateAndUnlink(c, sibling(h, mergeTrees(before, after))); err != nil {
				done <- err
				return
			}
		}
		if op.data != "" {
			if err := writeBack(c, op.data, pre[op.data].data); err != nil {
				done <- err
				return
			}
		}
		if r.tree = readTree(c); !op.allowed(r.tree, before, after, death) {
			done <- fmt.Errorf("tree after recovering %d lines: %s", len(held), treeDiff(r.tree, before, after))
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case <-time.After(5 * time.Second):
		return nil, errors.New("the survivor is still blocked after 5 s")
	}
	r.snap = v.fs.Stats()
	if r.held > 0 && (r.snap.Events[obs.EvLineLockTimeout] == 0 || r.snap.Events[obs.EvWaiterRecovery] == 0 || r.snap.LockWaits[obs.LockLine].Waits == 0) {
		return nil, fmt.Errorf("%d held lines recovered without a counted timeout, waiter recovery and line wait", r.held)
	}
	if op.data != "" && (r.snap.Events[obs.EvFileLockTimeout] == 0 || r.snap.LockWaits[obs.LockFile].Waits == 0) {
		return nil, errors.New("the file lock was taken over without a counted timeout and file wait")
	}
	return r, nil
}

// writeBack pwrites data over the start of the file at p.
func writeBack(c fsapi.Client, p, data string) error {
	fd, err := c.Open(p, fsapi.ORdwr, 0)
	if err != nil {
		return err
	}
	defer c.Close(fd)
	_, err = c.Pwrite(fd, []byte(data), 0)
	return err
}

// heldLines reads the busy bits of every directory of the trees.
func heldLines(fs *FS, c fsapi.Client, tr fsTree) []heldLine {
	dirs := []string{"/"}
	for p, n := range tr {
		if fsapi.IsDir(n.mode) {
			dirs = append(dirs, p)
		}
	}
	slices.Sort(dirs)
	var held []heldLine
	for _, dir := range dirs {
		ino, err := c.(*Client).resolve(dir, true)
		if err != nil || !fsapi.IsDir(fs.inoMode(ino)) {
			continue
		}
		busy := fs.dev.AtomicLoad64(uint64(fs.inoData(ino)) + dirBusyOff)
		for line := 0; line < NLines; line++ {
			if busy&(1<<uint(line)) != 0 {
				held = append(held, heldLine{dir, line})
			}
		}
	}
	return held
}

// sibling returns a path in h's directory, on h's line, that tr lacks.
func sibling(h heldLine, tr fsTree) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("sib%d", i)
		p := path.Join(h.dir, name)
		if _, taken := tr[p]; !taken && lineOf(fnv32(name)) == h.line {
			return p
		}
	}
}

// nameOnLine returns a name other than avoid whose line is (or, with
// same false, is not) the line of name.
func nameOnLine(name string, same bool, avoid ...string) string {
	for i := 0; ; i++ {
		cand := fmt.Sprintf("%s%d", name, i)
		if (lineOf(fnv32(cand)) == lineOf(fnv32(name))) == same && !slices.Contains(avoid, cand) {
			return cand
		}
	}
}

// pattern is n deterministic bytes, different for each seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

func writeFile(c fsapi.Client, p string, data []byte) error {
	fd, err := c.Create(p, 0o644)
	if err != nil {
		return err
	}
	defer c.Close(fd)
	_, err = c.Write(fd, data)
	return err
}

// openWith writes the file and returns it opened with flags.
func openWith(c fsapi.Client, p string, data []byte, flags fsapi.OpenFlag) (fsapi.FD, error) {
	if err := writeFile(c, p, data); err != nil {
		return 0, err
	}
	return c.Open(p, flags, 0)
}

// Names the setups use: a and b share a line, a and c do not.
var (
	nameB = nameOnLine("a", true)
	nameC = nameOnLine("a", false)
)

var crashOps = []crashOp{
	{name: "create", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { _, err := c.Create("/f", 0o644); return err }, nil
	}},
	{name: "create-full-line", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		// The line of f is full in the directory's only block: the create
		// extends the chain.
		var names []string
		for len(names) < SlotsPerLine {
			names = append(names, nameOnLine("f", true, names...))
		}
		for _, n := range names {
			if err := writeFile(c, "/"+n, nil); err != nil {
				return nil, err
			}
		}
		return func(c fsapi.Client) error { _, err := c.Create("/f", 0o644); return err }, nil
	}},
	{name: "mkdir", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Mkdir("/d", 0o755) }, nil
	}},
	{name: "mkdir-exists", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error {
			if err := c.Mkdir("/d", 0o755); !errors.Is(err, fsapi.ErrExist) {
				return fmt.Errorf("mkdir of an existing name: %v", err)
			}
			return nil
		}, c.Mkdir("/d", 0o755)
	}},
	{name: "symlink", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Symlink("/target", "/l") }, nil
	}},
	{name: "link", linked: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Link("/f", "/g") }, writeFile(c, "/f", pattern(100, 1))
	}},
	{name: "unlink", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Unlink("/f") }, writeFile(c, "/f", pattern(64*BlockSize, 1))
	}},
	{name: "rmdir", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Rmdir("/d") }, c.Mkdir("/d", 0o755)
	}},
	{name: "rename-one-line", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Rename("/a", "/"+nameB) }, writeFile(c, "/a", pattern(300, 1))
	}},
	{name: "rename", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		return func(c fsapi.Client) error { return c.Rename("/a", "/"+nameC) }, writeFile(c, "/a", pattern(300, 1))
	}},
	{name: "rename-replace", replaced: "/" + nameC, prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		if err := writeFile(c, "/"+nameC, pattern(200, 2)); err != nil {
			return nil, err
		}
		return func(c fsapi.Client) error { return c.Rename("/a", "/"+nameC) }, writeFile(c, "/a", pattern(300, 1))
	}},
	{name: "xrename", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		for _, d := range []string{"/s", "/d"} {
			if err := c.Mkdir(d, 0o755); err != nil {
				return nil, err
			}
		}
		return func(c fsapi.Client) error { return c.Rename("/s/f", "/d/f") }, writeFile(c, "/s/f", pattern(300, 1))
	}},
	{name: "xrename-replace", replaced: "/d/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		for _, d := range []string{"/s", "/d"} {
			if err := c.Mkdir(d, 0o755); err != nil {
				return nil, err
			}
		}
		if err := writeFile(c, "/d/f", pattern(200, 2)); err != nil {
			return nil, err
		}
		return func(c fsapi.Client) error { return c.Rename("/s/f", "/d/f") }, writeFile(c, "/s/f", pattern(300, 1))
	}},
	{name: "close-unlinked", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(8*BlockSize, 1), fsapi.ORdonly)
		if err != nil {
			return nil, err
		}
		return func(c fsapi.Client) error { return c.Close(fd) }, c.Unlink("/f")
	}},
	{name: "pwrite", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(3*BlockSize, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error {
			_, err := c.Pwrite(fd, pattern(2*BlockSize, 2), 2*BlockSize+100) // overwrite and extend
			return err
		}, err
	}},
	{name: "pwrite past EOF with a hole", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		// The hole lands on blocks a freed file left full of its bytes.
		if err := writeFile(c, "/old", pattern(8*BlockSize, 3)); err != nil {
			return nil, err
		}
		if err := c.Unlink("/old"); err != nil {
			return nil, err
		}
		fd, err := openWith(c, "/f", pattern(100, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error {
			_, err := c.Pwrite(fd, pattern(100, 2), 5*BlockSize+10)
			return err
		}, err
	}},
	{name: "pwrite past the zero mark", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		// A grown file over a freed file's blocks: the write stores the
		// zeroes below it and drops the mark before the size grows.
		if err := writeFile(c, "/old", pattern(8*BlockSize, 3)); err != nil {
			return nil, err
		}
		if err := c.Unlink("/old"); err != nil {
			return nil, err
		}
		fd, err := openWith(c, "/f", pattern(100, 1), fsapi.ORdwr)
		if err != nil {
			return nil, err
		}
		return func(c fsapi.Client) error {
			_, err := c.Pwrite(fd, pattern(2*BlockSize, 2), 2*BlockSize+10)
			return err
		}, c.Ftruncate(fd, 3*BlockSize)
	}},
	{name: "append", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(5000, 1), fsapi.OWronly|fsapi.OAppend)
		return func(c fsapi.Client) error { _, err := c.Write(fd, pattern(6000, 2)); return err }, err
	}},
	{name: "ftruncate-shrink", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(3*BlockSize+100, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error { return c.Ftruncate(fd, BlockSize+50) }, err
	}},
	{name: "ftruncate-grow", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(BlockSize+50, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error { return c.Ftruncate(fd, 3*BlockSize+100) }, err
	}},
	{name: "fallocate", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(100, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error { return c.Fallocate(fd, 5*BlockSize) }, err
	}},
	// The two growths again, over bytes the file must not show: the tail a
	// shrink left in its last block, and a freed file's blocks.
	{name: "ftruncate-grow over a shrunk block", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		fd, err := openWith(c, "/f", pattern(2*BlockSize, 1), fsapi.ORdwr)
		if err != nil {
			return nil, err
		}
		return func(c fsapi.Client) error { return c.Ftruncate(fd, 3*BlockSize) }, c.Ftruncate(fd, BlockSize+50)
	}},
	{name: "fallocate over freed blocks", data: "/f", prep: func(c fsapi.Client) (func(fsapi.Client) error, error) {
		if err := writeFile(c, "/old", pattern(8*BlockSize, 3)); err != nil {
			return nil, err
		}
		if err := c.Unlink("/old"); err != nil {
			return nil, err
		}
		fd, err := openWith(c, "/f", pattern(100, 1), fsapi.ORdwr)
		return func(c fsapi.Client) error { return c.Fallocate(fd, 5*BlockSize) }, err
	}},
}

// crashClaims, by name, are the recovery branches particular fences must
// reach. The named crash points they replace keep their names.
var crashClaims = map[string]crashClaim{
	"create.after-inode": {"create", "newEntry#1", power, absentReclaimed("/f")},
	"create.after-entry": {"create", "createEntry#1", power, absentReclaimed("/f")},
	"create.before-slot": {"create", "createEntry#1", power, func(r *crashCase) error {
		if err := absentReclaimed("/f")(r); err != nil {
			return err
		}
		return takesCreateAndUnlink(r.c, "/f")
	}},
	"create.after-slot": {"create", "createEntry#2", power, func(r *crashCase) error {
		if r.stats.FixedCreates == 0 || !maps.Equal(r.tree, r.after) {
			return fmt.Errorf("want the create completed, FixedCreates %d", r.stats.FixedCreates)
		}
		fd, err := r.c.Open("/f", fsapi.OWronly, 0)
		if err == nil {
			_, err = r.c.Write(fd, []byte("works"))
		}
		return err
	}},
	"create.after-slot, death": {"create", "createEntry#2", death, func(r *crashCase) error {
		if r.held == 0 || !maps.Equal(r.tree, r.after) {
			return fmt.Errorf("want the next accessor to complete the create on the held line, %d held", r.held)
		}
		return nil
	}},
	"delete.after-invalidate": {"unlink", "zeroEntry#1", power, func(r *crashCase) error {
		if r.stats.FixedSlots == 0 || !maps.Equal(r.tree, r.after) {
			return fmt.Errorf("want the delete completed, FixedSlots %d", r.stats.FixedSlots)
		}
		return takesCreateAndUnlink(r.c, "/f")
	}},
	"delete.after-entry-zero": {"unlink", "removeEntry#2", power, func(r *crashCase) error {
		if r.stats.FixedSlots == 0 || !maps.Equal(r.tree, r.after) {
			return fmt.Errorf("want the delete completed, FixedSlots %d", r.stats.FixedSlots)
		}
		return nil
	}},
	"unlink.after-remove": {"unlink", "freeInode#1", power, func(r *crashCase) error {
		if r.stats.Reclaimed == 0 || !maps.Equal(r.tree, r.after) || r.fs.FreeBlocks() != r.freeAfter {
			return fmt.Errorf("want the orphan reclaimed with its blocks: Reclaimed %d, %d free blocks, %d after a clean unlink",
				r.stats.Reclaimed, r.fs.FreeBlocks(), r.freeAfter)
		}
		return nil
	}},
	"rename.after-shadow": {"rename", "renameSameDir#1", power, is("before", 0, nil)},
	"rename.after-swap":   {"rename", "renameSameDir#2", power, is("after", 1, func(s *RecoveryStats) uint64 { return s.FixedRenames })},
	// The old line is recovered first: its repair must take the new line
	// over from the same dead holder.
	"rename.after-swap, death": {"rename", "renameSameDir#2", reversed, holds(2)},
	"rename.after-place":       {"rename", "renameSameDir#4", power, is("after", 1, func(s *RecoveryStats) uint64 { return s.FixedRenames })},
	"xrename.after-log":        {"xrename", "renameCrossDir#3", power, is("before", 1, func(s *RecoveryStats) uint64 { return s.FixedLogs })},
	"xrename.after-insert": {"xrename", "renameCrossDir#4", power, func(r *crashCase) error {
		if err := is("after", 1, func(s *RecoveryStats) uint64 { return s.FixedLogs })(r); err != nil {
			return err
		}
		if r.snap.Events[obs.EvRenameLogRecovered] == 0 || r.snap.Events[obs.EvMountRecovery] == 0 {
			return errors.New("the log's and the mount's recovery are not counted")
		}
		return nil
	}},
	"xrename.before-log-clear": {"xrename", "clearRenameLog#1", power, is("after", 1, func(s *RecoveryStats) uint64 { return s.FixedLogs })},
	"dir.extend":               {"create-full-line", "extendChain#2", power, absentReclaimed("/f")},
	"write.before-fence": {"pwrite", "writeAt#1", torn, func(r *crashCase) error {
		if got, old := r.tree["/f"].size, r.before["/f"].size; got != old {
			return fmt.Errorf("size %d before the data fence, want %d", got, old)
		}
		return nil
	}},
	"link.count-restored": {"link", "newEntry#1", power, is("before", 1, func(s *RecoveryStats) uint64 { return s.FixedLinks })},
	"link.count-after-death": {"link", "newEntry#1", death, func(r *crashCase) error {
		if _, ok := r.tree["/g"]; ok || r.tree["/f"].nlink != 2 {
			return fmt.Errorf("want /f alone with its raised link count, got %v", r.tree)
		}
		return nil
	}},
}

// absentReclaimed: the file never existed, and its objects were reclaimed.
func absentReclaimed(p string) func(r *crashCase) error {
	return func(r *crashCase) error {
		if _, ok := r.tree[p]; ok || r.stats.Reclaimed == 0 {
			return fmt.Errorf("want %s absent and its objects reclaimed, Reclaimed %d", p, r.stats.Reclaimed)
		}
		return nil
	}
}

// is: the tree is the one before or after the operation, and the fix
// counter reads at least min.
func is(which string, min uint64, fixed func(*RecoveryStats) uint64) func(r *crashCase) error {
	return func(r *crashCase) error {
		want := r.before
		if which == "after" {
			want = r.after
		}
		if !maps.Equal(r.tree, want) {
			return fmt.Errorf("want the tree %s the operation: %s", which, treeDiff(r.tree, r.before, r.after))
		}
		if fixed != nil && fixed(r.stats) < min {
			return fmt.Errorf("fix counter %d, want at least %d: %+v", fixed(r.stats), min, *r.stats)
		}
		return nil
	}
}

// holds: the dead process held n lines, which the survivor recovered.
func holds(n int) func(r *crashCase) error {
	return func(r *crashCase) error {
		if r.held != n {
			return fmt.Errorf("%d lines held, want %d", r.held, n)
		}
		return nil
	}
}

// requireClaim enumerates the claim's operation if no test has yet and
// fails unless the claim held.
func requireClaim(t *testing.T, name string) {
	t.Helper()
	cl, ok := crashClaims[name]
	if !ok {
		t.Fatalf("no claim %q", name)
	}
	if err := enumerated(t, cl.op).claims[name]; err != nil {
		t.Fatalf("claim %s: %v", name, err)
	}
}

func TestCrashEnumerator(t *testing.T) {
	for i := range crashOps {
		op := &crashOps[i]
		t.Run(op.name, func(t *testing.T) {
			rep := enumerate(t, op)
			crashReports.Store(op.name, rep)
			for name, err := range rep.claims {
				if err != nil {
					t.Errorf("claim %s: %v", name, err)
				}
			}
		})
	}
}

// The crash tests below each named a hook on the product path; each is now
// the claim of the fence that hook stood for.

func TestCrashDuringCreateBeforeSlot(t *testing.T) { requireClaim(t, "create.before-slot") }
func TestCrashDuringCreateAfterSlot(t *testing.T)  { requireClaim(t, "create.after-slot") }
func TestCrashDuringCreateRecoveredByNextAccessor(t *testing.T) {
	requireClaim(t, "create.after-slot, death")
}
func TestCrashDuringDeleteCompletedOnAccess(t *testing.T) { requireClaim(t, "delete.after-invalidate") }
func TestCrashDuringDeleteAfterEntryZero(t *testing.T)    { requireClaim(t, "delete.after-entry-zero") }
func TestCrashDuringUnlinkLeaksNoBlocks(t *testing.T)     { requireClaim(t, "unlink.after-remove") }
func TestCrashDuringRenameAfterShadow(t *testing.T)       { requireClaim(t, "rename.after-shadow") }
func TestCrashDuringRenameAfterSwap(t *testing.T)         { requireClaim(t, "rename.after-swap") }
func TestCrashDuringRenameAfterPlace(t *testing.T)        { requireClaim(t, "rename.after-place") }
func TestCrashDuringCrossDirRenameAfterLog(t *testing.T)  { requireClaim(t, "xrename.after-log") }
func TestCrashDuringCrossDirRenameAfterInsert(t *testing.T) {
	requireClaim(t, "xrename.after-insert")
}
func TestCrashDuringCrossDirRenameBeforeLogClear(t *testing.T) {
	requireClaim(t, "xrename.before-log-clear")
}
