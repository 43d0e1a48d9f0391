package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
)

// target is what one benchmark client drives: the fsapi surface every rung
// offers, plus the explicit-batch Submit of the networked clients. The core
// and wire rungs get adapters with the same shape (rungs.go).
type target interface {
	fsapi.Client
	Submit(reqs []wire.Request) ([]wire.Response, error)
}

// workload is one of the four fixed op mixes.
type workload interface {
	name() string
	// batch is the number of ops one client call carries on this workload
	// (32 on the three batch workloads, 1 on varmail).
	batch() int
	// populate creates the part of the data set whose paths own() accepts,
	// directly on a volume, before any server starts.
	populate(c fsapi.Client, owns func(path string) bool, clients int) error
	// newClient prepares client i of clients on t. batch overrides the ops
	// per call (1 = one fsapi call per round trip).
	newClient(i, clients int, t target, batch int) (worker, error)
	// verify checks the volume's final state through a fresh attach against
	// the model and the clients' records of acknowledged operations, and
	// returns the bytes of user data the volume holds.
	verify(t target, clients []worker) (live uint64, err error)
}

// worker is one closed-loop load generator.
type worker interface {
	// step issues one client call and reports how many operations it
	// attempted and how many of them failed.
	step() (attempted, failed int)
	// settled reports whether the client may stop here without leaving the
	// data set mid-cycle.
	settled() bool
	// tally reports the client's totals.
	tally() clientTally
	// release closes what newClient opened.
	release()
}

// clientTally is what a client accumulates beyond attempted/failed.
type clientTally struct {
	mismatches uint64   // outputs that differed from the model
	enoent     uint64   // varmail: open/unlink that met a file mid-recreate
	hash       uint64   // hash of the first hashedOps generated operations
	failures   []string // what the first few failed operations were
}

// noteFailure keeps a description of the first few failed operations.
func (t *clientTally) noteFailure(format string, args ...any) {
	if len(t.failures) < 3 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// hashedOps is how many generated operations per client enter the op hash.
const hashedOps = 4096

func newWorkload(name string, m *model) (workload, error) {
	switch name {
	case "stat":
		return &statWorkload{m: m}, nil
	case "read4k":
		return &dataWorkload{m: m, write: false}, nil
	case "write4k":
		return &dataWorkload{m: m, write: true}, nil
	case "varmail":
		return &mailWorkload{m: m}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stat, read4k, write4k or varmail)", name)
}

var workloadNames = []string{"stat", "read4k", "write4k", "varmail"}

// mkdirAll creates each directory of dirs that does not exist yet.
func mkdirAll(c fsapi.Client, dirs ...string) error {
	for _, d := range dirs {
		if err := c.Mkdir(d, 0o755); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return fmt.Errorf("mkdir %s: %w", d, err)
		}
	}
	return nil
}

// --- stat ------------------------------------------------------------------

type statWorkload struct{ m *model }

func (w *statWorkload) name() string { return "stat" }
func (w *statWorkload) batch() int   { return batchSize }

func (w *statWorkload) populate(c fsapi.Client, owns func(string) bool, _ int) error {
	m := w.m
	for i, p := range m.statPaths {
		if !owns(p) {
			continue
		}
		if i%m.sc.StatFiles == 0 {
			top := topDir(i / m.sc.StatFiles)
			if err := mkdirAll(c, top, top+"/sub"); err != nil {
				return err
			}
		}
		fd, err := c.Create(p, m.statPerm[i])
		if err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
		if n := int(m.statSize[i]); n > 0 {
			if _, err := c.Write(fd, m.window(uint32(i % keySlots))[:n]); err != nil {
				return fmt.Errorf("write %s: %w", p, err)
			}
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

type statClient struct {
	m     *model
	t     target
	r     rng
	reqs  []wire.Request
	idx   []int
	tl    clientTally
	oh    opHash
	nHash int
}

func (w *statWorkload) newClient(i, _ int, t target, batch int) (worker, error) {
	return &statClient{m: w.m, t: t, r: rng{s: mix(w.m.seed ^ uint64(i+1)<<32)},
		reqs: make([]wire.Request, batch), idx: make([]int, batch)}, nil
}

func (c *statClient) pick() int {
	i := c.r.intn(len(c.m.statPaths))
	if c.nHash < hashedOps {
		c.oh.add(uint8(wire.OpStat), uint64(i), 0)
		c.nHash++
	}
	return i
}

func (c *statClient) matches(i int, st *fsapi.Stat) bool {
	return st.Size == uint64(c.m.statSize[i]) && st.Mode == fsapi.ModeRegular|c.m.statPerm[i]
}

func (c *statClient) step() (int, int) {
	if len(c.reqs) == 1 {
		i := c.pick()
		st, err := c.t.Stat(c.m.statPaths[i])
		if err != nil {
			return 1, 1
		}
		if !c.matches(i, &st) {
			c.tl.mismatches++
		}
		return 1, 0
	}
	for j := range c.reqs {
		c.idx[j] = c.pick()
		c.reqs[j] = wire.Request{Op: wire.OpStat, Path: c.m.statPaths[c.idx[j]]}
	}
	resps, err := c.t.Submit(c.reqs)
	if err != nil || len(resps) != len(c.reqs) {
		return len(c.reqs), len(c.reqs)
	}
	failed := 0
	for j := range resps {
		if resps[j].Code != wire.CodeOK {
			failed++
		} else if !c.matches(c.idx[j], &resps[j].Stat) {
			c.tl.mismatches++
		}
	}
	return len(c.reqs), failed
}

func (c *statClient) settled() bool { return true }
func (c *statClient) tally() clientTally {
	c.tl.hash = c.oh.h
	return c.tl
}
func (c *statClient) release() {}

func (w *statWorkload) verify(t target, _ []worker) (uint64, error) {
	m := w.m
	var live uint64
	for i, p := range m.statPaths {
		st, err := t.Stat(p)
		if err != nil {
			return 0, fmt.Errorf("stat %s: %w", p, err)
		}
		if st.Size != uint64(m.statSize[i]) || st.Mode != fsapi.ModeRegular|m.statPerm[i] {
			return 0, fmt.Errorf("stat %s: size %d mode %o, model says size %d mode %o",
				p, st.Size, st.Mode, m.statSize[i], fsapi.ModeRegular|m.statPerm[i])
		}
		live += st.Size
	}
	return live, nil
}

// --- read4k / write4k --------------------------------------------------------

// dataWorkload is random aligned 4 KiB I/O on one preallocated private file
// per client; write selects pwrite over pread.
type dataWorkload struct {
	m     *model
	write bool
}

func (w *dataWorkload) name() string {
	if w.write {
		return "write4k"
	}
	return "read4k"
}
func (w *dataWorkload) batch() int { return batchSize }

func (w *dataWorkload) populate(c fsapi.Client, owns func(string) bool, clients int) error {
	m := w.m
	blocks := m.dataBlocks(clients)
	const chunkBlocks = 256
	chunk := make([]byte, 0, chunkBlocks*blockSize)
	for i := 0; i < clients; i++ {
		p := dataPath(i)
		if !owns(p) {
			continue
		}
		fd, err := c.Create(p, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
		if err := c.Fallocate(fd, blocks*blockSize); err != nil {
			return fmt.Errorf("fallocate %s: %w", p, err)
		}
		for b := uint64(0); b < blocks; {
			chunk = chunk[:0]
			first := b
			for ; b < blocks && b-first < chunkBlocks; b++ {
				chunk = append(chunk, m.window(m.fillKey(i, b))...)
			}
			if _, err := c.Pwrite(fd, chunk, first*blockSize); err != nil {
				return fmt.Errorf("fill %s: %w", p, err)
			}
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// unknownKey marks a block whose last write was not acknowledged.
const unknownKey = math.MaxUint32

type dataClient struct {
	m      *model
	t      target
	write  bool
	id     int
	blocks uint64
	fd     fsapi.FD
	r      rng
	reqs   []wire.Request
	blk    []uint64
	key    []uint32
	rbuf   []byte
	nOps   uint64
	checks uint64
	// last[b] is 1 + the key of the last acknowledged write to block b, 0 if
	// the block still holds its fill, unknownKey after a failed write.
	last  []uint32
	tl    clientTally
	oh    opHash
	nHash int
}

func (w *dataWorkload) newClient(i, clients int, t target, batch int) (worker, error) {
	c := &dataClient{m: w.m, t: t, write: w.write, id: i, blocks: w.m.dataBlocks(clients),
		r:    rng{s: mix(w.m.seed ^ uint64(i+1)<<32)},
		reqs: make([]wire.Request, batch), blk: make([]uint64, batch), key: make([]uint32, batch)}
	fd, err := t.Open(dataPath(i), fsapi.ORdwr, 0)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dataPath(i), err)
	}
	c.fd = fd
	if w.write {
		c.last = make([]uint32, c.blocks)
	} else {
		c.rbuf = make([]byte, blockSize)
	}
	return c, nil
}

func (c *dataClient) pick(j int) {
	b := c.r.next() % c.blocks
	c.blk[j] = b
	op := wire.OpPread
	if c.write {
		c.key[j] = c.m.writeKey(c.id, c.nOps)
		op = wire.OpPwrite
	}
	c.nOps++
	if c.nHash < hashedOps {
		c.oh.add(uint8(op), b, uint64(c.key[j]))
		c.nHash++
	}
}

// checkRead compares one read in 256 against the fill pattern.
func (c *dataClient) checkRead(j int, data []byte) {
	c.checks++
	if c.checks&255 == 0 && !bytes.Equal(data, c.m.window(c.m.fillKey(c.id, c.blk[j]))) {
		c.tl.mismatches++
	}
}

func (c *dataClient) noteWrite(j int, ok bool) {
	if ok {
		c.last[c.blk[j]] = c.key[j] + 1
	} else {
		c.last[c.blk[j]] = unknownKey
	}
}

func (c *dataClient) step() (int, int) {
	if len(c.reqs) == 1 {
		c.pick(0)
		off := c.blk[0] * blockSize
		if c.write {
			n, err := c.t.Pwrite(c.fd, c.m.window(c.key[0]), off)
			ok := err == nil && n == blockSize
			c.noteWrite(0, ok)
			return 1, b2i(!ok)
		}
		n, err := c.t.Pread(c.fd, c.rbuf, off)
		if err != nil || n != blockSize {
			return 1, 1
		}
		c.checkRead(0, c.rbuf)
		return 1, 0
	}
	for j := range c.reqs {
		c.pick(j)
		if c.write {
			c.reqs[j] = wire.Request{Op: wire.OpPwrite, FD: c.fd, Off: c.blk[j] * blockSize, Data: c.m.window(c.key[j])}
		} else {
			c.reqs[j] = wire.Request{Op: wire.OpPread, FD: c.fd, Off: c.blk[j] * blockSize, Size: blockSize}
		}
	}
	resps, err := c.t.Submit(c.reqs)
	if err != nil || len(resps) != len(c.reqs) {
		if c.write {
			for j := range c.reqs {
				c.noteWrite(j, false)
			}
		}
		return len(c.reqs), len(c.reqs)
	}
	failed := 0
	for j := range resps {
		switch {
		case c.write:
			ok := resps[j].Code == wire.CodeOK && resps[j].N == blockSize
			c.noteWrite(j, ok)
			failed += b2i(!ok)
		case resps[j].Code != wire.CodeOK || len(resps[j].Data) != blockSize:
			failed++
		default:
			c.checkRead(j, resps[j].Data)
		}
	}
	return len(c.reqs), failed
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (c *dataClient) settled() bool { return true }
func (c *dataClient) tally() clientTally {
	c.tl.hash = c.oh.h
	return c.tl
}
func (c *dataClient) release() { c.t.Close(c.fd) }

// verify reads the data files back, 32 blocks per call. After write4k every
// touched block must hold the last acknowledged payload and a sample of the
// others their fill; after read4k a sample of blocks must still hold the fill.
func (w *dataWorkload) verify(t target, clients []worker) (uint64, error) {
	m := w.m
	reqs := make([]wire.Request, 0, batchSize)
	want := make([][]byte, 0, batchSize)
	for _, cl := range clients {
		c := cl.(*dataClient)
		p := dataPath(c.id)
		fd, err := t.Open(p, fsapi.ORdonly, 0)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", p, err)
		}
		flush := func() error {
			if len(reqs) == 0 {
				return nil
			}
			resps, err := t.Submit(reqs)
			if err != nil || len(resps) != len(reqs) {
				return fmt.Errorf("pread %s: %d responses to %d requests: %v", p, len(resps), len(reqs), err)
			}
			for i := range resps {
				if resps[i].Code != wire.CodeOK || !bytes.Equal(resps[i].Data, want[i]) {
					return fmt.Errorf("%s block %d does not hold the last acknowledged payload (code %d)",
						p, reqs[i].Off/blockSize, resps[i].Code)
				}
			}
			reqs, want = reqs[:0], want[:0]
			return nil
		}
		for b := uint64(0); b < c.blocks && err == nil; b++ {
			expect := m.window(m.fillKey(c.id, b))
			switch k := uint32(0); {
			case w.write && c.last[b] == unknownKey:
				continue
			case w.write && c.last[b] != k:
				expect = m.window(c.last[b] - 1)
			case b%61 != 0:
				continue // never written: sample the fill
			}
			reqs = append(reqs, wire.Request{Op: wire.OpPread, FD: fd, Off: b * blockSize, Size: blockSize})
			want = append(want, expect)
			if len(reqs) == batchSize {
				err = flush()
			}
		}
		if err == nil {
			err = flush()
		}
		if cerr := t.Close(fd); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return m.sc.DataBytes, nil
}

// --- varmail -----------------------------------------------------------------

// mailWorkload is the Filebench varmail cycle, one fsapi call per client
// call: unlink f1; create f1, write 16 KiB, fsync, close; open f2 for append,
// read it, append 4 KiB, fsync, close; open f3, read it, close. Every client
// works in the same 64 directories, so directory lines, allocators and the
// primary's namespace-op order are shared; the files themselves are dealt out
// to the clients (file f belongs to client f mod C). Sharing the files too
// trips the create/unlink/open races of ROADMAP item 0 in core — O_CREAT
// answering ErrNotExist, and at a 64-file set an append landing in another
// file through a recycled inode — and a ruler may not fail on its own.
type mailWorkload struct{ m *model }

func (w *mailWorkload) name() string { return "varmail" }
func (w *mailWorkload) batch() int   { return 1 }

func (w *mailWorkload) populate(c fsapi.Client, owns func(string) bool, _ int) error {
	m := w.m
	body := make([]byte, 0, mailFileBytes)
	for f, p := range m.mailPaths {
		if !owns(p) {
			continue
		}
		top := topDir(f % m.sc.StatDirs)
		if err := mkdirAll(c, top, top+"/mail"); err != nil {
			return err
		}
		body = mailBody(body[:0], m.mailBlock(f))
		fd, err := c.Create(p, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
		if _, err := c.Write(fd, body); err != nil {
			return fmt.Errorf("write %s: %w", p, err)
		}
		if err := c.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

func mailBody(dst, block []byte) []byte {
	for len(dst) < mailFileBytes {
		dst = append(dst, block...)
	}
	return dst
}

// The thirteen calls of one cycle, in order.
const (
	mailUnlink = iota
	mailCreate
	mailWrite
	mailFsync1
	mailClose1
	mailOpenAppend
	mailRead2
	mailAppend
	mailFsync2
	mailClose2
	mailOpenRead
	mailRead3
	mailClose3
	mailSteps
)

type mailClient struct {
	m       *model
	t       target
	r       rng
	id, of  int // this client's index and the client count
	state   int
	f       [3]int
	fd      fsapi.FD
	body    []byte
	rbuf    []byte
	reads   uint64
	present []bool  // by file: false between an acknowledged unlink and the create
	appends []int32 // by file: acknowledged appends since the last acknowledged rewrite
	tl      clientTally
	oh      opHash
	nHash   int
}

func (w *mailWorkload) newClient(i, clients int, t target, _ int) (worker, error) {
	n := len(w.m.mailPaths)
	if n < clients {
		return nil, fmt.Errorf("varmail: %d files for %d clients", n, clients)
	}
	c := &mailClient{m: w.m, t: t, r: rng{s: mix(w.m.seed ^ uint64(i+1)<<32)}, id: i, of: clients,
		body: make([]byte, 0, mailFileBytes), rbuf: make([]byte, mailReadBuf),
		present: make([]bool, n), appends: make([]int32, n)}
	for f := range c.present {
		c.present[f] = true
	}
	return c, nil
}

// pick draws one of this client's files.
func (c *mailClient) pick() int {
	n := len(c.m.mailPaths)
	owned := (n - c.id + c.of - 1) / c.of
	return c.r.intn(owned)*c.of + c.id
}

// checkRead compares what a whole-file read returned, on one read in 16.
func (c *mailClient) checkRead(f, n int) {
	c.reads++
	if c.reads&15 != 0 {
		return
	}
	blk := c.m.mailBlock(f)
	want := min(mailFileBytes+int(c.appends[f])*blockSize, len(c.rbuf))
	if n != want {
		c.tl.mismatches++
		return
	}
	for o := 0; o < n; o += blockSize {
		if !bytes.Equal(c.rbuf[o:o+blockSize], blk) {
			c.tl.mismatches++
			return
		}
	}
}

func (c *mailClient) step() (int, int) {
	m, t := c.m, c.t
	if c.state == mailUnlink {
		for j := range c.f {
			c.f[j] = c.pick()
			if c.nHash < hashedOps {
				c.oh.add(uint8(j), uint64(c.f[j]), 0)
				c.nHash++
			}
		}
	}
	f := c.f[0]
	switch {
	case c.state >= mailOpenRead:
		f = c.f[2]
	case c.state >= mailOpenAppend:
		f = c.f[1]
	}
	p := m.mailPaths[f]
	var err error
	var n, want int
	switch c.state {
	case mailUnlink:
		if err = t.Unlink(p); err == nil {
			c.present[f] = false
		}
	case mailCreate:
		if c.fd, err = t.Create(p, 0o644); err == nil {
			c.present[f] = true
		}
	case mailWrite:
		c.body = mailBody(c.body[:0], m.mailBlock(f))
		want = len(c.body)
		if n, err = t.Write(c.fd, c.body); err == nil && n == want {
			c.appends[f] = 0
		}
	case mailFsync1, mailFsync2:
		err = t.Fsync(c.fd)
	case mailClose1, mailClose2, mailClose3:
		err = t.Close(c.fd)
	case mailOpenAppend:
		c.fd, err = t.Open(p, fsapi.ORdwr|fsapi.OAppend, 0)
	case mailOpenRead:
		c.fd, err = t.Open(p, fsapi.ORdonly, 0)
	case mailRead2, mailRead3:
		if n, err = t.Read(c.fd, c.rbuf); err == nil || errors.Is(err, io.EOF) {
			err = nil
			want = n
			c.checkRead(f, n)
		}
	case mailAppend:
		want = blockSize
		if n, err = t.Write(c.fd, m.mailBlock(f)); err == nil && n == want {
			c.appends[f]++
		}
	}
	step := c.state
	c.state = (c.state + 1) % mailSteps
	if err == nil && n == want {
		return 1, 0
	}
	c.tl.noteFailure("varmail call %d on %s: n=%d, want %d: %v", step, p, n, want, err)
	// A failed create or open leaves no descriptor: skip the calls that need it.
	switch step {
	case mailCreate:
		c.state = mailOpenAppend
	case mailOpenAppend:
		c.state = mailOpenRead
	case mailOpenRead:
		c.state = mailUnlink
	}
	return 1, 1
}

func (c *mailClient) settled() bool { return c.state == mailUnlink }
func (c *mailClient) tally() clientTally {
	c.tl.hash = c.oh.h
	return c.tl
}
func (c *mailClient) release() {}

// verify walks the tree against the clients' records of acknowledged calls:
// the directories hold exactly the files whose last acknowledged namespace
// call was not an unlink, and each is 16 KiB plus 4 KiB per append
// acknowledged since its last acknowledged rewrite, every block its own.
func (w *mailWorkload) verify(t target, clients []worker) (uint64, error) {
	m := w.m
	n := len(m.mailPaths)
	owner := func(f int) *mailClient { return clients[f%len(clients)].(*mailClient) }
	want := 0
	for f := 0; f < n; f++ {
		want += b2i(owner(f).present[f])
	}
	seen := 0
	for d := 0; d < m.sc.StatDirs && d < n; d++ {
		dir := topDir(d) + "/mail"
		ents, err := t.ReadDir(dir)
		if err != nil {
			return 0, fmt.Errorf("readdir %s: %w", dir, err)
		}
		seen += len(ents)
	}
	if seen != want {
		return 0, fmt.Errorf("varmail: %d mail files in the tree, the clients' records say %d", seen, want)
	}
	var live uint64
	buf := make([]byte, blockSize)
	for f, p := range m.mailPaths {
		c := owner(f)
		st, err := t.Stat(p)
		if !c.present[f] {
			if !errors.Is(err, fsapi.ErrNotExist) {
				return 0, fmt.Errorf("%s: its unlink was acknowledged, stat says %v", p, err)
			}
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("stat %s: %w", p, err)
		}
		if size := uint64(mailFileBytes + int(c.appends[f])*blockSize); st.Size != size {
			return 0, fmt.Errorf("%s: size %d, want %d (16 KiB and %d acknowledged appends)", p, st.Size, size, c.appends[f])
		}
		fd, err := t.Open(p, fsapi.ORdonly, 0)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", p, err)
		}
		blk := m.mailBlock(f)
		for off := uint64(0); off < st.Size; off += blockSize {
			if n, err := t.Pread(fd, buf, off); err != nil || n != blockSize || !bytes.Equal(buf, blk) {
				t.Close(fd)
				return 0, fmt.Errorf("%s: block at %d differs from the file's pattern (n=%d err=%v)", p, off, n, err)
			}
		}
		if err := t.Close(fd); err != nil {
			return 0, err
		}
		live += st.Size
	}
	return live, nil
}
