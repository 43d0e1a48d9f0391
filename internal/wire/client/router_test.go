package client_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/fstest"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// newVolume formats a fresh in-memory volume for one test node.
func newVolume(t testing.TB) (*pmem.Device, *core.FS) {
	t.Helper()
	dev := pmem.New(64 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dev, vol
}

// serveCluster starts one single-node server per entry of prefixes, each
// owning the shard named by its prefix ("" = a hash shard), and returns a
// router over them. No replication — this is the topology for
// routing/conformance tests.
func serveCluster(t testing.TB, prefixes []string) (*client.Router, *shard.Map) {
	t.Helper()
	rt, m, _ := serveClusterVols(t, prefixes)
	return rt, m
}

// serveClusterVols is serveCluster that also hands back the nodes' volumes.
func serveClusterVols(t testing.TB, prefixes []string) (*client.Router, *shard.Map, []*core.FS) {
	t.Helper()
	n := len(prefixes)
	vols := make([]*core.FS, n)
	lns := make([]net.Listener, n)
	m := &shard.Map{Epoch: 1}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		m.Shards = append(m.Shards, shard.Shard{
			ID: uint32(i), Prefix: prefixes[i], Addrs: []string{ln.Addr().String()},
		})
	}
	for i := 0; i < n; i++ {
		_, vol := newVolume(t)
		vols[i] = vol
		auth, err := shard.NewAuthority(m, lns[i].Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{FS: vol, Sharding: auth, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i])
		t.Cleanup(srv.Shutdown)
	}
	rt, err := client.DialRouter(lns[0].Addr().String(), client.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, m, vols
}

// serveHashCluster is serveCluster with n pure hash shards.
func serveHashCluster(t testing.TB, n int) (*client.Router, *shard.Map) {
	t.Helper()
	return serveCluster(t, make([]string, n))
}

// pathOnShard probes root-level names matching prefix until one hashes to
// the wanted shard.
func pathOnShard(t testing.TB, m *shard.Map, prefix string, want uint32) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("/%s%d", prefix, i)
		if m.Route(p).ID == want {
			return p
		}
	}
	t.Fatalf("no root name with prefix %q routes to shard %d", prefix, want)
	return ""
}

// TestRouterConformance runs the full file-system battery through a router
// over a two-node cluster split by prefix: node 0 serves "/" and node 1
// serves the "/d2" subtree, so every operation crosses the wire AND the
// routing layer, the RenameCrossDir case is a genuine cross-shard rename,
// and root listings merge entries from both nodes. The split is by prefix
// rather than hash because POSIX hard links need their two sibling names on
// one shard (cross-shard Link is EXDEV, like link(2) across mounts).
func TestRouterConformance(t *testing.T) {
	fstest.RunConformance(t, func() fsapi.FileSystem {
		rt, _ := serveCluster(t, []string{"/", "/d2"})
		return rt
	})
}

// TestCrossShardRename exercises the copy+unlink rename path for files,
// symlinks, and directories whose old and new names hash to different
// shards.
func TestCrossShardRename(t *testing.T) {
	rt, m := serveHashCluster(t, 2)
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	src := pathOnShard(t, m, "src", 0)
	dst := pathOnShard(t, m, "dst", 1)

	// Regular file: contents and replace semantics survive the copy.
	fd, err := c.Create(src, 0o640)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	if err := c.Rename(src, dst); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if _, err := c.Stat(src); err != fsapi.ErrNotExist {
		t.Fatalf("source survives rename: %v", err)
	}
	st, err := c.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode&fsapi.ModePermMask != 0o640 {
		t.Errorf("mode %o after cross-shard rename, want 640", st.Mode&fsapi.ModePermMask)
	}
	fd, err = c.Open(dst, fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	c.Close(fd)
	if !bytes.Equal(buf[:n], []byte("payload")) {
		t.Errorf("content %q after cross-shard rename", buf[:n])
	}

	// Directory: the tree moves recursively.
	dsrc := pathOnShard(t, m, "dirs", 0)
	ddst := pathOnShard(t, m, "dird", 1)
	if err := c.Mkdir(dsrc, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir(dsrc+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, err = c.Create(dsrc+"/sub/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(fd, []byte("deep"))
	c.Close(fd)
	if err := c.Rename(dsrc, ddst); err != nil {
		t.Fatalf("cross-shard dir rename: %v", err)
	}
	if _, err := c.Stat(dsrc); err != fsapi.ErrNotExist {
		t.Fatalf("source dir survives rename: %v", err)
	}
	fd, err = c.Open(ddst+"/sub/f", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatalf("moved tree content missing: %v", err)
	}
	n, _ = c.Read(fd, buf)
	c.Close(fd)
	if !bytes.Equal(buf[:n], []byte("deep")) {
		t.Errorf("tree content %q after cross-shard rename", buf[:n])
	}

	// Symlink: moves as a link, not as its target.
	lsrc := pathOnShard(t, m, "lns", 0)
	ldst := pathOnShard(t, m, "lnd", 1)
	if err := c.Symlink("/somewhere", lsrc); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(lsrc, ldst); err != nil {
		t.Fatalf("cross-shard symlink rename: %v", err)
	}
	if target, err := c.Readlink(ldst); err != nil || target != "/somewhere" {
		t.Errorf("Readlink after rename = %q, %v", target, err)
	}

	// Cross-shard hard links cannot exist (two volumes, one inode).
	hsrc := pathOnShard(t, m, "hls", 0)
	hdst := pathOnShard(t, m, "hld", 1)
	fd, err = c.Create(hsrc, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	if err := c.Link(hsrc, hdst); err != fsapi.ErrCrossDir {
		t.Errorf("cross-shard Link = %v, want ErrCrossDir", err)
	}

	if st := rt.Stats(); st.CrossRenames < 3 {
		t.Errorf("CrossRenames = %d, want >= 3", st.CrossRenames)
	}
}

// TestRouterReadDirMerge checks the root listing is the union of every
// shard's root directory, deduplicated and sorted.
func TestRouterReadDirMerge(t *testing.T) {
	rt, m := serveHashCluster(t, 2)
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	a := pathOnShard(t, m, "ma", 0)
	b := pathOnShard(t, m, "mb", 1)
	for _, p := range []string{a, b} {
		fd, err := c.Create(p, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		c.Close(fd)
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for i, e := range ents {
		found[e.Name] = true
		if i > 0 && ents[i-1].Name > e.Name {
			t.Errorf("merged listing out of order: %q before %q", ents[i-1].Name, e.Name)
		}
	}
	if !found[strings.TrimPrefix(a, "/")] || !found[strings.TrimPrefix(b, "/")] {
		t.Errorf("merged root listing missing shard entries: %v", found)
	}
}

// TestMovedPingPong pins the bounded-redirect guarantee: two nodes whose
// same-epoch maps each name the other as the shard's owner would bounce a
// client forever; the router must give up after MaxMovedHops, within the
// hops' summed backoff.
func TestMovedPingPong(t *testing.T) {
	lnX, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnY, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrX, addrY := lnX.Addr().String(), lnY.Addr().String()

	serveWith := func(ln net.Listener, self string, m *shard.Map) {
		_, vol := newVolume(t)
		auth, err := shard.NewAuthority(m, self, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{FS: vol, Sharding: auth})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Shutdown)
	}
	// X believes Y owns the shard; Y believes X does. Same epoch, so no
	// refresh can break the tie.
	serveWith(lnX, addrX, &shard.Map{Epoch: 2, Shards: []shard.Shard{{ID: 0, Prefix: "/", Addrs: []string{addrY}}}})
	serveWith(lnY, addrY, &shard.Map{Epoch: 2, Shards: []shard.Shard{{ID: 0, Prefix: "/", Addrs: []string{addrX}}}})

	// The router starts from a stale epoch-1 map pointing at X.
	rt, err := client.NewRouter(
		&shard.Map{Epoch: 1, Shards: []shard.Shard{{ID: 0, Prefix: "/", Addrs: []string{addrX}}}},
		nil,
		client.RouterOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	start := time.Now()
	c, err := rt.Attach(fsapi.Root)
	if err == nil {
		_, err = c.Stat("/f")
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping-pong routing converged; want bounded-hops error")
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("error = %v, want moved-hops bound", err)
	}
	if st := rt.Stats(); st.Moves < client.MaxMovedHops {
		t.Errorf("Moves = %d, want >= %d", st.Moves, client.MaxMovedHops)
	}
	// The backoffs between the hops sum to under a second (5 ms doubling,
	// capped at 250 ms); the rest of the bound is room for a loaded host.
	if elapsed > 10*time.Second {
		t.Errorf("giving up took %v", elapsed)
	}
}

// migrCluster is the live-migration topology: node A is the primary of a
// 2-hash-shard map (owning both shards), node B joined it as a replication
// backup. Migrating shard 1 to B exercises the full cutover.
type migrCluster struct {
	addrA, addrB string
	m            *shard.Map
}

func startMigrCluster(t testing.TB) *migrCluster {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	m := &shard.Map{Epoch: 1, Shards: []shard.Shard{
		{ID: 0, Addrs: []string{addrA}},
		{ID: 1, Addrs: []string{addrA}},
	}}
	quiet := func(string, ...any) {}

	devA, volA := newVolume(t)
	nodeA := replica.NewPrimary(volA, replica.Config{
		Advertise: addrA,
		Quorum:    1,
		Logf:      quiet,
		Snapshot: func(w io.Writer) error {
			_, err := devA.WriteTo(w)
			return err
		},
	})
	t.Cleanup(func() { nodeA.Close() })
	authA, err := shard.NewAuthority(m, addrA, func(lost []uint32, next *shard.Map) error {
		seen := map[string]bool{}
		var addrs []string
		for _, id := range lost {
			if sh := next.ByID(id); sh != nil {
				for _, a := range sh.Addrs {
					if !seen[a] {
						seen[a] = true
						addrs = append(addrs, a)
					}
				}
			}
		}
		return nodeA.MigrationDrain(addrs, 30*time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := server.New(server.Config{FS: volA, Replica: nodeA, Sharding: authA})
	if err != nil {
		t.Fatal(err)
	}
	go srvA.Serve(lnA)
	t.Cleanup(srvA.Shutdown)

	nodeB := replica.NewBackup(replica.Config{
		Advertise:   addrB,
		PrimaryAddr: addrA,
		Logf:        quiet,
		Restore: func(img []byte) (fsapi.FileSystem, error) {
			d, err := pmem.ReadImage(bytes.NewReader(img))
			if err != nil {
				return nil, err
			}
			fs, _, err := core.Mount(d, core.Options{})
			return fs, err
		},
	})
	t.Cleanup(func() { nodeB.Close() })
	authB, err := shard.NewAuthority(m, addrB, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := server.New(server.Config{Replica: nodeB, Sharding: authB})
	if err != nil {
		t.Fatal(err)
	}
	go srvB.Serve(lnB)
	t.Cleanup(srvB.Shutdown)

	// Generous, like the replica package's waitFor: the join moves a 64 MiB
	// snapshot, and on a host whose page faults are slow this hour that alone
	// has taken more than half a minute under -race.
	for deadline := time.Now().Add(90 * time.Second); ; {
		if nodeA.Backups() >= 1 && nodeB.Epoch() == nodeA.Epoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup did not join")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return &migrCluster{addrA: addrA, addrB: addrB, m: m}
}

// TestLiveMigrationZeroLoss drives acknowledged writes through the router
// to files on both shards, migrates shard 1 from A to B mid-load, and then
// verifies every acknowledged record is readable — the PR's zero-loss
// acceptance, in-process.
func TestLiveMigrationZeroLoss(t *testing.T) {
	cl := startMigrCluster(t)
	rt, err := client.DialRouter(cl.addrA, client.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const workers = 4
	type result struct {
		path  string
		acked uint64
		err   error
	}
	results := make([]result, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		// Even workers write shard-0 files, odd workers shard-1 files, so
		// the migrating shard carries live load through the cutover.
		results[wi].path = pathOnShard(t, cl.m, fmt.Sprintf("w%d-", wi), uint32(wi%2))
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			res := &results[wi]
			c, err := rt.Attach(fsapi.Root)
			if err != nil {
				res.err = err
				return
			}
			defer c.Detach()
			fd, err := c.Open(res.path, fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				res.err = err
				return
			}
			var rec [8]byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				binary.LittleEndian.PutUint64(rec[:], res.acked)
				if _, err := c.Pwrite(fd, rec[:], res.acked*8); err != nil {
					res.err = fmt.Errorf("write %d: %w", res.acked, err)
					return
				}
				res.acked++
			}
		}(wi)
	}

	time.Sleep(150 * time.Millisecond) // let pre-migration writes accumulate
	m2, err := shard.Migrate([]string{cl.addrA}, 1, []string{cl.addrB}, shard.MigrateOptions{})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if sh := m2.ByID(1); len(sh.Addrs) != 1 || sh.Addrs[0] != cl.addrB {
		t.Fatalf("shard 1 owner after migrate: %v", sh.Addrs)
	}
	time.Sleep(150 * time.Millisecond) // and post-migration writes
	close(stop)
	wg.Wait()

	// The new owner must be serving the shard directly.
	mB, err := shard.FetchMap(cl.addrB, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mB.Epoch != m2.Epoch {
		t.Errorf("target map epoch %d, want %d", mB.Epoch, m2.Epoch)
	}

	verify, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Detach()
	var totalAcked uint64
	for wi := range results {
		res := &results[wi]
		if res.err != nil {
			t.Fatalf("worker %d: %v", wi, res.err)
		}
		if res.acked == 0 {
			t.Fatalf("worker %d acked nothing", wi)
		}
		totalAcked += res.acked
		fd, err := verify.Open(res.path, fsapi.ORdonly, 0)
		if err != nil {
			t.Fatalf("verify open %s: %v", res.path, err)
		}
		buf := make([]byte, res.acked*8)
		n, err := verify.Pread(fd, buf, 0)
		if err != nil {
			t.Fatalf("verify read %s: %v", res.path, err)
		}
		for rec := uint64(0); rec < res.acked; rec++ {
			if uint64(n) < (rec+1)*8 || binary.LittleEndian.Uint64(buf[rec*8:]) != rec {
				t.Fatalf("worker %d: acked record %d lost (read %d bytes)", wi, rec, n)
			}
		}
		verify.Close(fd)
	}
	st := rt.Stats()
	if st.Epoch != m2.Epoch {
		t.Errorf("router epoch %d after migration, want %d", st.Epoch, m2.Epoch)
	}
	t.Logf("acked=%d moves=%d refreshes=%d (epoch %d)", totalAcked, st.Moves, st.MapRefreshes, st.Epoch)
}

// TestRouterConformanceAfterMigration runs a compact end-to-end pass over a
// cluster that has already completed a live migration: shard 1's files now
// live on node B, shard 0 stays on A, and everything — creates, listings,
// cross-shard renames — must behave as before the move.
func TestRouterConformanceAfterMigration(t *testing.T) {
	cl := startMigrCluster(t)
	rt, err := client.DialRouter(cl.addrA, client.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	pre := pathOnShard(t, cl.m, "pre", 1)
	fd, err := c.Create(pre, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(fd, []byte("before"))
	c.Close(fd)

	if _, err := shard.Migrate([]string{cl.addrA}, 1, []string{cl.addrB}, shard.MigrateOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// Pre-migration data is served by the new owner.
	fd, err = c.Open(pre, fsapi.ORdonly, 0)
	if err != nil {
		t.Fatalf("open pre-migration file: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	c.Close(fd)
	if !bytes.Equal(buf[:n], []byte("before")) {
		t.Fatalf("pre-migration content %q", buf[:n])
	}

	// Fresh namespace work on both shards, including a cross-shard rename
	// whose shard-1 side now lives on B.
	src := pathOnShard(t, cl.m, "post", 0)
	dst := pathOnShard(t, cl.m, "moved", 1)
	fd, err = c.Create(src, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(fd, []byte("across"))
	c.Close(fd)
	if err := c.Rename(src, dst); err != nil {
		t.Fatalf("cross-shard rename after migration: %v", err)
	}
	fd, err = c.Open(dst, fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = c.Read(fd, buf)
	c.Close(fd)
	if !bytes.Equal(buf[:n], []byte("across")) {
		t.Fatalf("renamed content %q", buf[:n])
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range ents {
		found[e.Name] = true
	}
	for _, p := range []string{pre, dst} {
		if !found[strings.TrimPrefix(p, "/")] {
			t.Errorf("root listing missing %s after migration", p)
		}
	}
}

// blackhole is a TCP proxy whose backend→client direction can be switched
// off: requests keep reaching the server, replies stop coming back.
type blackhole struct {
	*chaosProxy
	swallow atomic.Bool
}

func startBlackhole(t *testing.T, backend string) *blackhole {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &blackhole{chaosProxy: &chaosProxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", backend)
			if err != nil {
				in.Close()
				continue
			}
			b.mu.Lock()
			b.conns[in], b.conns[out] = struct{}{}, struct{}{}
			b.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() {
				buf := make([]byte, 32<<10)
				for {
					n, err := out.Read(buf)
					if n > 0 && !b.swallow.Load() {
						in.Write(buf[:n])
					}
					if err != nil {
						in.Close()
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(b.close)
	return b
}

// TestRoutedSubmitShardDiesMidGather splits a 32-op batch over two shards and
// kills one shard's session while the router is gathering: the other part
// has been answered, this one is registered, written and waiting. Submit must
// return the error, leave nothing registered on either session, and give
// every pooled request buffer back.
func TestRoutedSubmitShardDiesMidGather(t *testing.T) {
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	hole := startBlackhole(t, lns[1].Addr().String())
	m := &shard.Map{Epoch: 1, Shards: []shard.Shard{
		{ID: 0, Addrs: []string{lns[0].Addr().String()}},
		{ID: 1, Addrs: []string{hole.addr()}},
	}}
	for i, ln := range lns {
		_, vol := newVolume(t)
		auth, err := shard.NewAuthority(m, m.Shards[i].Addrs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{FS: vol, Sharding: auth, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Shutdown)
	}
	opts := client.RouterOptions{}
	opts.FailoverTimeout = 300 * time.Millisecond
	rt, err := client.NewRouter(m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	rs := c.(*client.RoutedSession)

	reqs := make([]wire.Request, 32)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpStat, Path: pathOnShard(t, m, fmt.Sprintf("f%d-", i), uint32(i%2))}
	}
	// Both shard sessions attach, and the whole path works, before the fault.
	if _, err := rs.Submit(reqs); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}

	hole.swallow.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := rs.Submit(reqs)
		done <- err
	}()
	// Mid-gather: shard 0 has answered, shard 1's 16 calls are all that is
	// still registered.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if calls, _ := rs.InFlight(); calls == 16 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d calls pending, want shard 1's 16", calls)
		}
		time.Sleep(time.Millisecond)
	}
	hole.close() // the transport dies and no redial can succeed
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("Submit = %v, want shard 1's failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Submit never returned after its shard died")
	}
	// Both payloads were written long ago, so the writers' references are
	// gone; what is left to count is Submit's own.
	if calls, buffers := rs.InFlight(); calls != 0 || buffers != 0 {
		t.Errorf("after the failed submit: %d calls still registered, %d request buffers not released", calls, buffers)
	}
}

// TestMapInstallRacesSubmits swaps the map under four submitting sessions,
// on the router and on both servers at once. Every epoch describes the same
// placement with the shards listed in the opposite order, so a table
// compiled from one epoch read beside per-shard state of another — on
// either side of the wire — answers Moved; a whole epoch, old or new, never
// does.
func TestMapInstallRacesSubmits(t *testing.T) {
	rt, m := serveHashCluster(t, 2)
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpStat, Path: pathOnShard(t, m, fmt.Sprintf("f%d-", i), uint32(i%2))}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c, err := rt.Attach(fsapi.Root)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Detach()
		rs := c.(*client.RoutedSession)
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := append([]wire.Request(nil), reqs...)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resps, err := rs.Submit(batch)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				for i, r := range resps {
					if err := r.Err(); !errors.Is(err, fsapi.ErrNotExist) {
						t.Errorf("stat %s = %v, want ErrNotExist from its owner", batch[i].Path, err)
						return
					}
				}
				if _, err := rs.Stat(batch[0].Path); !errors.Is(err, fsapi.ErrNotExist) {
					t.Errorf("stat %s = %v, want ErrNotExist", batch[0].Path, err)
					return
				}
			}
		}()
	}
	next := m.Clone()
	for epoch := uint64(2); epoch <= 40; epoch++ {
		next = next.Clone()
		next.Epoch = epoch
		next.Shards[0], next.Shards[1] = next.Shards[1], next.Shards[0]
		for _, sh := range next.Shards {
			if err := shard.PushMap(sh.Addrs[0], next.Encode(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if !rt.Refresh() {
			t.Fatalf("router did not pick up epoch %d", epoch)
		}
	}
	close(stop)
	wg.Wait()
	if st := rt.Stats(); st.Epoch != 40 || st.Moves != 0 {
		t.Errorf("router at epoch %d after %d moves, want epoch 40 and none", st.Epoch, st.Moves)
	}
}

// BenchmarkRoutedSubmitStat is the routed fan-out's steady state: 32 stats
// per call, split over two in-process groups. bench-smoke gates it at the one
// allocation a call cannot avoid — the []wire.Response it returns.
func BenchmarkRoutedSubmitStat(b *testing.B) {
	rt, m, vols := serveClusterVols(b, make([]string, 2))
	for _, vol := range vols {
		// A volume deep-samples one operation in 32 and allocates that
		// sample's window; 32 stats a call would make it one a call. It is the
		// volume's allocation, and BenchmarkResolve* gates the volume.
		vol.Obs().SetSamplePeriod(1 << 30)
	}
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Detach()
	rs := c.(*client.RoutedSession)
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		p := pathOnShard(b, m, fmt.Sprintf("f%d-", i), uint32(i%2))
		fd, err := rs.Create(p, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		rs.Close(fd)
		reqs[i] = wire.Request{Op: wire.OpStat, Path: p}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := rs.Submit(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if resps[31].Code != wire.CodeOK {
			b.Fatalf("stat: %v", resps[31].Err())
		}
	}
}
