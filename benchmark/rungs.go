package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// The ladder, bottom to top. "pmem" has no file system and is measured by
// rawDevicePoint; every other rung is built by buildRig.
var rungNames = []string{"core", "wire", "server", "replica.q1", "replica.q2", "router.s1", "router.s2"}

const (
	rungLocal   = "core"
	rungCluster = "router.s2"
)

// volume is one node's storage: an emulated NVMM arena and the file system
// formatted on it.
type volume struct {
	dev *pmem.Device
	fs  *core.FS
}

var coreOptions = core.Options{LineLockTimeout: 10 * time.Second}

// newVolume is the one volume factory of the benchmark: every primary on
// every rung is made here, with the Optane latency model charged through the
// benchmark's own calibrated spin and no cost.Model.
func newVolume(size uint64) (*volume, error) {
	dev := pmem.New(size)
	dev.Prefault()
	dev.SetLatency(pmem.OptaneLatency(), spinNs)
	fs, err := core.Format(dev, fsapi.Root, coreOptions)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	return &volume{dev: dev, fs: fs}, nil
}

// restoreVolume is the backup half of the factory: the same latency model on
// an arena restored from the primary's snapshot.
func restoreVolume(img []byte) (*volume, error) {
	dev, err := pmem.ReadImage(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	dev.SetLatency(pmem.OptaneLatency(), spinNs)
	fs, _, err := core.Mount(dev, coreOptions)
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	return &volume{dev: dev, fs: fs}, nil
}

// usedBytes is the space the volume's block allocator has handed out.
func (v *volume) usedBytes() uint64 {
	total := v.dev.Size()/core.BlockSize - 1
	return (total - v.fs.FreeBlocks()) * core.BlockSize
}

// group is one served volume: a standalone server, or a primary with its
// backups.
type group struct {
	primary *volume
	srv     *server.Server
	node    *replica.Node
	addr    string

	mu          sync.Mutex
	backups     []*volume
	backupNodes []*replica.Node
}

// rig is one built rung: its volumes, servers and the client-side handle
// clients attach through.
type rig struct {
	rung   string
	shards int
	groups []*group // networked rungs
	local  *volume  // core and wire rungs
	remote *client.Remote
	router *client.Router

	lns     []net.Listener
	targets []target
}

// rungShape decodes a rung name into what buildRig must start.
func rungShape(rung string) (networked, replicated, sharded bool, shards, backups int, err error) {
	switch rung {
	case "core", "wire":
		return false, false, false, 1, 0, nil
	case "server":
		return true, false, false, 1, 0, nil
	case "replica.q1":
		return true, true, false, 1, 1, nil
	case "replica.q2":
		return true, true, false, 1, 2, nil
	case "router.s1":
		return true, true, true, 1, 1, nil
	case "router.s2":
		return true, true, true, 2, 1, nil
	}
	return false, false, false, 0, 0, fmt.Errorf("unknown rung %q (want one of %s)", rung, strings.Join(rungNames, ", "))
}

// buildRig formats, populates and starts one rung for w with the given
// client count. tr, when non-nil, installs the span decorators.
func buildRig(rung string, sc scale, w workload, clients int, tr *tracer) (r *rig, err error) {
	networked, replicated, sharded, shards, backups, err := rungShape(rung)
	if err != nil {
		return nil, err
	}
	r = &rig{rung: rung, shards: shards}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	rm := routeMap(shards)
	populate := func(v *volume, shardID int) error {
		c, err := v.fs.Attach(fsapi.Root)
		if err != nil {
			return err
		}
		defer c.Detach()
		owns := func(p string) bool { return shards == 1 || rm.Route(p).ID == uint32(shardID) }
		if err := w.populate(c, owns, clients); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		if tr != nil {
			v.dev.SetFenceObserver(tr.fenceObserver())
		}
		return nil
	}
	if !networked {
		if r.local, err = newVolume(sc.VolumeBytes); err != nil {
			return r, err
		}
		return r, populate(r.local, 0)
	}

	// Listeners first: a shard map needs every group's address.
	sm := &shard.Map{Epoch: 1}
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, err
		}
		r.lns = append(r.lns, ln)
		sh := rm.Shards[i]
		sh.Addrs = []string{ln.Addr().String()}
		sm.Shards = append(sm.Shards, sh)
	}
	// The groups start side by side, each on its own goroutine: format,
	// populate, serve, then the backups join over loopback.
	r.groups = make([]*group, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i, ln := range r.lns {
		g := &group{addr: ln.Addr().String()}
		r.groups[i] = g
		wg.Add(1)
		go func(i int, ln net.Listener) {
			defer wg.Done()
			errs[i] = g.start(ln, sc, populate, i, backups, replicated, sharded, sm, tr)
		}(i, ln)
	}
	wg.Wait()
	if err = errors.Join(errs...); err != nil {
		return r, err
	}
	if sharded {
		r.router, err = client.DialRouter(r.groups[0].addr, client.RouterOptions{})
	} else {
		r.remote, err = client.Dial(r.groups[0].addr, client.Options{})
	}
	return r, err
}

// start brings one group up: its primary volume, its server and, on
// replicated rungs, its backups, joined and following at the primary's epoch.
func (g *group) start(ln net.Listener, sc scale, populate func(*volume, int) error, shardID, backups int,
	replicated, sharded bool, sm *shard.Map, tr *tracer) error {
	var err error
	if g.primary, err = newVolume(sc.VolumeBytes); err != nil {
		return err
	}
	if err = populate(g.primary, shardID); err != nil {
		return err
	}
	quiet := func(string, ...any) {}
	cfg := server.Config{FS: g.primary.fs}
	if tr != nil {
		cfg.FS = tr.wrapFS(g.primary.fs)
		ln = tr.wrapListener(ln)
	}
	if replicated {
		dev := g.primary.dev
		g.node = replica.NewPrimary(g.primary.fs, replica.Config{
			Quorum: backups,
			Logf:   quiet,
			Snapshot: func(w io.Writer) error {
				_, err := dev.WriteTo(w)
				return err
			},
		})
		cfg.Replica = g.node
		if tr != nil {
			cfg.Replica = tr.wrapReplica(g.node)
		}
	}
	if sharded {
		auth, err := shard.NewAuthority(sm, g.addr, nil)
		if err != nil {
			return err
		}
		cfg.Sharding = auth
	}
	if g.srv, err = server.New(cfg); err != nil {
		return err
	}
	go g.srv.Serve(ln)
	for b := 0; b < backups; b++ {
		g.backupNodes = append(g.backupNodes, replica.NewBackup(replica.Config{
			PrimaryAddr: g.addr,
			Logf:        quiet,
			Restore: func(img []byte) (fsapi.FileSystem, error) {
				v, err := restoreVolume(img)
				if err != nil {
					return nil, err
				}
				g.mu.Lock()
				g.backups = append(g.backups, v)
				g.mu.Unlock()
				return v.fs, nil
			},
		}))
	}
	return g.awaitJoined(backups)
}

// awaitJoined waits until every backup has restored the snapshot and follows
// the primary at its epoch.
func (g *group) awaitJoined(backups int) error {
	if g.node == nil {
		return nil
	}
	joined := func() bool {
		if g.node.Backups() < backups {
			return false
		}
		for _, b := range g.backupNodes {
			if b.Epoch() != g.node.Epoch() {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(60 * time.Second); !joined(); {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d backups joined %s", g.node.Backups(), backups, g.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// attach opens the next client's handle on the rung. Routed sessions attach
// to a shard on first use; attach touches every shard so that happens here,
// during set-up, in client order.
func (r *rig) attach() (target, error) {
	var t target
	switch {
	case r.local != nil:
		c, err := r.local.fs.Attach(fsapi.Root)
		if err != nil {
			return nil, err
		}
		if r.rung == "wire" {
			t = &codecTarget{Client: c}
		} else {
			t = newCoreTarget(c)
		}
	case r.router != nil:
		c, err := r.router.Attach(fsapi.Root)
		if err != nil {
			return nil, err
		}
		rs := c.(*client.RoutedSession)
		for s := 0; s < r.shards; s++ {
			rs.Stat(pathOnShard("/attach-probe-", r.shards, s)) // ErrNotExist; the point is the shard session
		}
		t = rs
	default:
		c, err := r.remote.Attach(fsapi.Root)
		if err != nil {
			return nil, err
		}
		t = c.(*client.Session)
	}
	r.targets = append(r.targets, t)
	return t, nil
}

// primaries lists the volumes clients' operations execute on.
func (r *rig) primaries() []*volume {
	if r.local != nil {
		return []*volume{r.local}
	}
	vs := make([]*volume, len(r.groups))
	for i, g := range r.groups {
		vs[i] = g.primary
	}
	return vs
}

// settle waits until every backup has applied the whole log, so counters and
// verification see a quiescent cluster.
func (r *rig) settle() error {
	for _, g := range r.groups {
		if g.node == nil {
			continue
		}
		for deadline := time.Now().Add(30 * time.Second); g.node.CommitFloor() != g.node.Seq(); {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: commit floor %d never reached seq %d", g.addr, g.node.CommitFloor(), g.node.Seq())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (r *rig) close() {
	for _, t := range r.targets {
		t.Detach()
	}
	r.targets = nil
	if r.router != nil {
		r.router.Close()
	}
	if r.remote != nil {
		r.remote.Close()
	}
	for _, g := range r.groups {
		// Replication first: a link's writer notices a dead peer only at its
		// next heartbeat, and the server's drain would wait for it.
		for _, b := range g.backupNodes {
			b.Close()
		}
		if g.node != nil {
			g.node.Close()
		}
		if g.srv != nil {
			g.srv.Shutdown()
		}
	}
	for _, ln := range r.lns {
		ln.Close() // a no-op for the ones a server took over and closed
	}
}

// --- core rung adapter -------------------------------------------------------

// coreTarget drives an in-process core client: Submit is a loop of direct
// fsapi calls, what a local application does with a batch of work. It also
// times one op in 64 for core.op_p50_ns / core.op_p99_ns.
type coreTarget struct {
	fsapi.Client
	resps []wire.Response
	rbuf  []byte
	n     uint64
	opNs  []uint32
}

func newCoreTarget(c fsapi.Client) *coreTarget {
	return &coreTarget{Client: c, resps: make([]wire.Response, batchSize),
		rbuf: make([]byte, batchSize*blockSize), opNs: make([]uint32, 0, 1<<16)}
}

func (c *coreTarget) Submit(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) > len(c.resps) {
		return nil, fmt.Errorf("core target: batch of %d exceeds %d", len(reqs), len(c.resps))
	}
	resps := c.resps[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		out := &resps[i]
		*out = wire.Response{Op: req.Op}
		var t0 time.Time
		c.n++
		sampled := c.n&63 == 0
		if sampled {
			t0 = time.Now()
		}
		var err error
		switch req.Op {
		case wire.OpStat:
			out.Stat, err = c.Client.Stat(req.Path)
		case wire.OpPread:
			buf := c.rbuf[i*blockSize : i*blockSize+int(req.Size)]
			var n int
			n, err = c.Client.Pread(req.FD, buf, req.Off)
			out.Data = buf[:n]
		case wire.OpPwrite:
			var n int
			n, err = c.Client.Pwrite(req.FD, req.Data, req.Off)
			out.N = uint32(n)
		default:
			err = fsapi.ErrInval
		}
		if sampled {
			c.opNs = append(c.opNs, uint32(time.Since(t0)))
		}
		if err != nil {
			out.Code = wire.CodeOf(err)
		}
	}
	return resps, nil
}

// --- wire rung adapter ---------------------------------------------------------

// codecTarget runs every call through the wire codec with no socket: encode
// the requests, decode them as the server would, execute each against the
// core client, encode the responses, decode them as the client would.
type codecTarget struct {
	fsapi.Client // the executing core client; also serves the calls set-up makes

	reqBuf, respBuf []byte
	reqs            []wire.Request
	resps           []wire.Response
	scratch         []byte
	one             [1]wire.Request

	ops, reqBytes, respBytes uint64
}

// roundTrip pushes reqs through the codec. dst, when non-nil, receives the
// first response's read data, as Session.Read arranges.
func (c *codecTarget) roundTrip(reqs []wire.Request, dst []byte) ([]wire.Response, error) {
	c.reqBuf = c.reqBuf[:0]
	for i := range reqs {
		reqs[i].ID = uint32(i + 1)
		c.reqBuf = wire.AppendRequest(c.reqBuf, &reqs[i])
	}
	var err error
	c.reqs, err = wire.DecodeBatchInto(c.reqs[:0], c.reqBuf)
	if err != nil {
		return nil, err
	}
	if c.scratch == nil {
		c.scratch = make([]byte, 0) // non-nil: ExecuteInto then reuses it
	}
	c.respBuf = c.respBuf[:0]
	for i := range c.reqs {
		var resp wire.Response
		resp, c.scratch = wire.ExecuteInto(c.Client, &c.reqs[i], c.scratch)
		c.respBuf = wire.AppendResponse(c.respBuf, &resp)
	}
	if cap(c.resps) < len(reqs) {
		c.resps = make([]wire.Response, len(reqs))
	}
	resps := c.resps[:len(reqs)]
	rest := c.respBuf
	for i := range resps {
		resps[i], rest, err = wire.DecodeResponseInto(rest, dst)
		if err != nil {
			return nil, err
		}
		dst = nil
	}
	c.ops += uint64(len(reqs))
	c.reqBytes += uint64(len(c.reqBuf))
	c.respBytes += uint64(len(c.respBuf))
	return resps, nil
}

func (c *codecTarget) Submit(reqs []wire.Request) ([]wire.Response, error) {
	return c.roundTrip(reqs, nil)
}

func (c *codecTarget) call(req wire.Request, dst []byte) (wire.Response, error) {
	c.one[0] = req
	resps, err := c.roundTrip(c.one[:], dst)
	if err != nil {
		return wire.Response{}, err
	}
	return resps[0], resps[0].Err()
}

func (c *codecTarget) Stat(path string) (fsapi.Stat, error) {
	resp, err := c.call(wire.Request{Op: wire.OpStat, Path: path}, nil)
	return resp.Stat, err
}

func (c *codecTarget) Create(path string, perm uint32) (fsapi.FD, error) {
	resp, err := c.call(wire.Request{Op: wire.OpCreate, Path: path, Perm: perm}, nil)
	if err != nil {
		return -1, err
	}
	return resp.FD, nil
}

func (c *codecTarget) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	resp, err := c.call(wire.Request{Op: wire.OpOpen, Path: path, Flags: uint32(flags), Perm: perm}, nil)
	if err != nil {
		return -1, err
	}
	return resp.FD, nil
}

func (c *codecTarget) Close(fd fsapi.FD) error {
	_, err := c.call(wire.Request{Op: wire.OpClose, FD: fd}, nil)
	return err
}

func (c *codecTarget) Fsync(fd fsapi.FD) error {
	_, err := c.call(wire.Request{Op: wire.OpFsync, FD: fd}, nil)
	return err
}

func (c *codecTarget) Unlink(path string) error {
	_, err := c.call(wire.Request{Op: wire.OpUnlink, Path: path}, nil)
	return err
}

func (c *codecTarget) Read(fd fsapi.FD, p []byte) (int, error) {
	resp, err := c.call(wire.Request{Op: wire.OpRead, FD: fd, Size: uint32(len(p))}, p)
	return copyRead(p, resp.Data), err
}

func (c *codecTarget) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	resp, err := c.call(wire.Request{Op: wire.OpPread, FD: fd, Size: uint32(len(p)), Off: off}, p)
	return copyRead(p, resp.Data), err
}

// copyRead finishes a read whose data the decoder may already have landed in p.
func copyRead(p, data []byte) int {
	if len(data) > 0 && &data[0] != &p[0] {
		copy(p, data)
	}
	return len(data)
}

func (c *codecTarget) Write(fd fsapi.FD, p []byte) (int, error) {
	resp, err := c.call(wire.Request{Op: wire.OpWrite, FD: fd, Data: p}, nil)
	return int(resp.N), err
}

func (c *codecTarget) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	resp, err := c.call(wire.Request{Op: wire.OpPwrite, FD: fd, Data: p, Off: off}, nil)
	return int(resp.N), err
}

// nopClient answers every call the workloads make without doing anything,
// for wire.codec_ns_per_op and bench.generator_ns_per_op.
type nopClient struct {
	fsapi.Client // nil: any call the workloads do not make panics
}

func (n *nopClient) Stat(string) (fsapi.Stat, error)                       { return fsapi.Stat{}, nil }
func (n *nopClient) Create(string, uint32) (fsapi.FD, error)               { return 3, nil }
func (n *nopClient) Open(string, fsapi.OpenFlag, uint32) (fsapi.FD, error) { return 3, nil }
func (n *nopClient) Close(fsapi.FD) error                                  { return nil }
func (n *nopClient) Fsync(fsapi.FD) error                                  { return nil }
func (n *nopClient) Unlink(string) error                                   { return nil }
func (n *nopClient) Detach() error                                         { return nil }
func (n *nopClient) Write(_ fsapi.FD, p []byte) (int, error)               { return len(p), nil }
func (n *nopClient) Pwrite(_ fsapi.FD, p []byte, _ uint64) (int, error)    { return len(p), nil }
func (n *nopClient) Read(_ fsapi.FD, p []byte) (int, error)                { return min(len(p), mailFileBytes), nil }
func (n *nopClient) Pread(_ fsapi.FD, p []byte, _ uint64) (int, error)     { return len(p), nil }

// nopTarget is the generator's no-op sink: Submit answers from a fixed slice.
type nopTarget struct {
	nopClient
	resps []wire.Response
}

func newNopTarget() *nopTarget {
	n := &nopTarget{resps: make([]wire.Response, batchSize)}
	data := make([]byte, blockSize)
	for i := range n.resps {
		n.resps[i] = wire.Response{Data: data, N: blockSize}
	}
	return n
}

func (n *nopTarget) Submit(reqs []wire.Request) ([]wire.Response, error) {
	return n.resps[:len(reqs)], nil
}
