package replica_test

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
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

// The node must satisfy the server's replication hook surface. The
// assertion lives in a test so the replica package itself never imports
// the server.
var _ server.Replica = (*replica.Node)(nil)

// member is one group node under test: its replica state, wire server,
// and listen address.
type member struct {
	n    *replica.Node
	srv  *server.Server
	addr string
	vol  *core.FS // a primary's volume; nil on a backup
}

func repConfig() replica.Config {
	return replica.Config{
		Quorum:            1,
		HeartbeatInterval: 25 * time.Millisecond,
		FailoverGrace:     300 * time.Millisecond,
	}
}

// startPrimary formats a fresh volume and serves it as a founding primary.
// The device is small on purpose: each join snapshots the whole of it under
// the log lock, and under -race on one CPU a large cut starves heartbeats
// long enough to flap every established link.
func startPrimary(t *testing.T, cfg replica.Config) *member {
	t.Helper()
	return startPrimarySized(t, cfg, 16<<20)
}

// startPrimarySized is startPrimary on a device of the given size.
func startPrimarySized(t *testing.T, cfg replica.Config, size uint64) *member {
	t.Helper()
	dev := pmem.New(size)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Advertise = ln.Addr().String()
	cfg.Snapshot = func(w io.Writer) error {
		_, err := dev.WriteTo(w)
		return err
	}
	n := replica.NewPrimary(vol, cfg)
	srv, err := server.New(server.Config{FS: vol, Replica: n})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	m := &member{n: n, srv: srv, addr: ln.Addr().String(), vol: vol}
	t.Cleanup(func() { m.srv.Abort(); m.n.Close() })
	return m
}

// startBackup serves a backup that joins primaryAddr.
func startBackup(t *testing.T, cfg replica.Config, primaryAddr string) *member {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startBackupOn(t, cfg, primaryAddr, ln)
}

// startBackupOn is startBackup on a listener the caller made, so a client can
// be given the backup's address before the backup exists.
func startBackupOn(t *testing.T, cfg replica.Config, primaryAddr string, ln net.Listener) *member {
	t.Helper()
	cfg.Advertise = ln.Addr().String()
	cfg.PrimaryAddr = primaryAddr
	if cfg.Restore == nil {
		cfg.Restore = func(img []byte) (fsapi.FileSystem, error) { return mountImage(img) }
	}
	n := replica.NewBackup(cfg)
	srv, err := server.New(server.Config{Replica: n})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	m := &member{n: n, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() { m.srv.Abort(); m.n.Close() })
	return m
}

// mountImage is a backup's Restore: the snapshot, mounted.
func mountImage(img []byte) (*core.FS, error) {
	d, err := pmem.ReadImage(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	fs, _, err := core.Mount(d, core.Options{})
	return fs, err
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	// Generous: under -race on one CPU a concurrent pair of snapshot joins
	// alone can take tens of seconds.
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writeFile(t *testing.T, c fsapi.Client, path, content string) {
	t.Helper()
	fd, err := c.Create(path, 0o644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := c.Write(fd, []byte(content)); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, c fsapi.Client, path string) string {
	t.Helper()
	fd, err := c.Open(path, fsapi.ORdonly, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer c.Close(fd)
	buf := make([]byte, 1<<16)
	n, err := c.Pread(fd, buf, 0)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(buf[:n])
}

// TestJoinReplayPromote walks the full backup lifecycle: snapshot install
// (state written before the join), live log replay (state written after),
// explicit promotion over the wire, and serving the merged state.
func TestJoinReplayPromote(t *testing.T) {
	p := startPrimary(t, repConfig())

	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, c, "/pre", "before the backup joined")

	b := startBackup(t, repConfig(), p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	writeFile(t, c, "/post", "after the backup joined")
	waitFor(t, "backup to catch up", func() bool { return b.n.Seq() == p.n.Seq() })
	c.Detach()

	epoch, err := shard.PromoteNode(b.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if b.n.Role() != replica.RolePrimary {
		t.Fatalf("backup role after promote = %v", b.n.Role())
	}
	if b.n.Health() != "serving" {
		t.Fatalf("promoted health = %q", b.n.Health())
	}

	// The promoted node serves both the snapshot and the replayed state.
	remote2, err := client.Dial(b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	c2, err := remote2.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	if got := readFile(t, c2, "/pre"); got != "before the backup joined" {
		t.Fatalf("/pre = %q", got)
	}
	if got := readFile(t, c2, "/post"); got != "after the backup joined" {
		t.Fatalf("/post = %q", got)
	}
	writeFile(t, c2, "/after-promote", "writable")
}

// TestBackupRedirects verifies a client that dials the backup is
// redirected to the primary transparently.
func TestBackupRedirects(t *testing.T) {
	p := startPrimary(t, repConfig())
	b := startBackup(t, repConfig(), p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	if b.n.Health() != "backup" {
		t.Fatalf("backup health = %q", b.n.Health())
	}

	remote, err := client.Dial(b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatalf("attach via backup: %v", err)
	}
	defer c.Detach()
	writeFile(t, c, "/via-redirect", "landed on the primary")
	if remote.Stats().Redirects == 0 {
		t.Fatal("no redirect counted")
	}
	// The write really happened on the primary's volume.
	waitFor(t, "redirect write to replicate", func() bool { return b.n.Seq() == p.n.Seq() })
}

// TestAutoPromote kills the primary outright and expects the backup to
// notice the silence, promote itself, and serve the replicated state.
func TestAutoPromote(t *testing.T) {
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)

	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, c, "/survivor", "must outlive the primary")

	b := startBackup(t, cfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })
	waitFor(t, "backup to catch up", func() bool { return b.n.Seq() == p.n.Seq() })
	remote.Close()

	p.srv.Abort()
	p.n.Close()

	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })
	if b.n.Epoch() != 2 {
		t.Fatalf("epoch after auto promote = %d, want 2", b.n.Epoch())
	}

	remote2, err := client.Dial(b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	c2, err := remote2.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	if got := readFile(t, c2, "/survivor"); got != "must outlive the primary" {
		t.Fatalf("/survivor = %q", got)
	}
}

// TestApplyDedup drives the replay cache directly: a duplicate request ID
// (a client replaying after failover) must not re-execute, and must get
// the original response and sequence back — including for failed
// operations, which are cached but never logged.
func TestApplyDedup(t *testing.T) {
	dev := pmem.New(64 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := replica.NewPrimary(vol, replica.Config{})
	defer n.Close()

	c, sessID, _, err := n.AttachClient(fsapi.Root, 0xcafe)
	if err != nil {
		t.Fatal(err)
	}

	execs := 0
	req := wire.Request{ID: 5, Op: wire.OpMkdir, Path: "/d", Perm: 0o755}
	exec := func() wire.Response {
		execs++
		return wire.Execute(c, &req)
	}
	resp1, seq1 := n.Apply(sessID, &req, 0, exec)
	if resp1.Code != 0 {
		t.Fatalf("mkdir failed: %v", resp1.Code)
	}
	if seq1 == 0 {
		t.Fatal("successful mutation got no sequence")
	}
	resp2, seq2 := n.Apply(sessID, &req, 0, exec)
	if execs != 1 {
		t.Fatalf("duplicate request executed %d times", execs)
	}
	if resp2.Code != resp1.Code || seq2 != seq1 {
		t.Fatalf("replay answer = (%v, %d), want (%v, %d)", resp2.Code, seq2, resp1.Code, seq1)
	}

	// A failing op mutates nothing and must not consume a sequence, but
	// its replay still answers from cache.
	failReq := wire.Request{ID: 6, Op: wire.OpMkdir, Path: "/d", Perm: 0o755}
	failExec := func() wire.Response {
		execs++
		return wire.Execute(c, &failReq)
	}
	resp3, seq3 := n.Apply(sessID, &failReq, 0, failExec)
	if resp3.Code == 0 || seq3 != 0 {
		t.Fatalf("second mkdir = (%v, %d), want error with no sequence", resp3.Code, seq3)
	}
	before := execs
	resp4, _ := n.Apply(sessID, &failReq, 0, failExec)
	if execs != before || resp4.Code != resp3.Code {
		t.Fatalf("failed-op replay re-executed (execs %d→%d, code %v)", before, execs, resp4.Code)
	}
}

// TestAttachResume verifies session resumption by client ID: same ID and
// credentials resumes the session; same ID with different credentials is
// refused.
func TestAttachResume(t *testing.T) {
	dev := pmem.New(64 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := replica.NewPrimary(vol, replica.Config{})
	defer n.Close()

	_, sess1, _, err := n.AttachClient(fsapi.Cred{UID: 1000, GID: 1000}, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	_, sess2, _, err := n.AttachClient(fsapi.Cred{UID: 1000, GID: 1000}, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	if sess1 != sess2 {
		t.Fatalf("resume allocated a new session: %d vs %d", sess1, sess2)
	}
	if _, _, _, err := n.AttachClient(fsapi.Cred{UID: 1001, GID: 1001}, 0xbeef); err == nil {
		t.Fatal("credential mismatch on resume was accepted")
	}
}

// TestMetricsOutput checks the exported gauge/counter names the CI smoke
// job greps for.
func TestMetricsOutput(t *testing.T) {
	p := startPrimary(t, repConfig())
	b := startBackup(t, repConfig(), p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	var buf bytes.Buffer
	p.n.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"simurgh_replica_role", "simurgh_replica_epoch", "simurgh_replica_seq",
		"simurgh_replica_lag_ops", "simurgh_replica_lag_bytes", "simurgh_replica_backups 1",
		"simurgh_replica_ack_window", "simurgh_replica_ship_lag_entries",
		"simurgh_replica_frames_shipped_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("primary metrics missing %q", want)
		}
	}
	buf.Reset()
	b.n.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), `role="backup"`) {
		t.Errorf("backup metrics missing backup role label:\n%s", buf.String())
	}
}
