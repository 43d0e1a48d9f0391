package replica_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/fstest"
	"simurgh/internal/replica"
	"simurgh/internal/wire/client"
)

// prefixFS gives each conformance case a private namespace on the shared
// replicated volume: every path is rewritten under a per-case directory,
// so cases that reuse names ("/f") do not collide.
type prefixFS struct {
	remote *client.Remote
	pre    string
}

func (p *prefixFS) Name() string { return p.remote.Name() }

func (p *prefixFS) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	c, err := p.remote.Attach(cred)
	if err != nil {
		return nil, err
	}
	return &prefixClient{Client: c, pre: p.pre}, nil
}

type prefixClient struct {
	fsapi.Client
	pre string
}

func (p *prefixClient) path(s string) string {
	if s == "/" {
		return p.pre
	}
	return p.pre + s
}

func (p *prefixClient) Create(path string, perm uint32) (fsapi.FD, error) {
	return p.Client.Create(p.path(path), perm)
}
func (p *prefixClient) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	return p.Client.Open(p.path(path), flags, perm)
}
func (p *prefixClient) Stat(path string) (fsapi.Stat, error)  { return p.Client.Stat(p.path(path)) }
func (p *prefixClient) Lstat(path string) (fsapi.Stat, error) { return p.Client.Lstat(p.path(path)) }
func (p *prefixClient) Mkdir(path string, perm uint32) error {
	return p.Client.Mkdir(p.path(path), perm)
}
func (p *prefixClient) Rmdir(path string) error  { return p.Client.Rmdir(p.path(path)) }
func (p *prefixClient) Unlink(path string) error { return p.Client.Unlink(p.path(path)) }
func (p *prefixClient) Rename(o, n string) error {
	return p.Client.Rename(p.path(o), p.path(n))
}
func (p *prefixClient) Symlink(target, link string) error {
	return p.Client.Symlink(p.path(target), p.path(link))
}
func (p *prefixClient) Link(o, n string) error { return p.Client.Link(p.path(o), p.path(n)) }
func (p *prefixClient) Readlink(path string) (string, error) {
	tgt, err := p.Client.Readlink(p.path(path))
	if err != nil {
		return tgt, err
	}
	if trimmed := strings.TrimPrefix(tgt, p.pre); trimmed != "" {
		return trimmed, nil
	}
	return "/", nil
}
func (p *prefixClient) ReadDir(path string) ([]fsapi.DirEntry, error) {
	return p.Client.ReadDir(p.path(path))
}
func (p *prefixClient) Chmod(path string, perm uint32) error {
	return p.Client.Chmod(p.path(path), perm)
}
func (p *prefixClient) Utimes(path string, at, mt int64) error {
	return p.Client.Utimes(p.path(path), at, mt)
}

// TestFailoverConformance runs the full conformance battery against a
// 1-primary/1-backup group through a failover-enabled client, and
// hard-kills the primary partway through. The backup must auto-promote
// and the remaining cases — plus a write acknowledged just before the
// kill — must complete against it with nothing lost.
func TestFailoverConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("failover suite is slow")
	}
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)
	b := startBackup(t, cfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	remote, err := client.Dial(p.addr+","+b.addr, client.Options{
		FailoverTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	const killAt = 8 // cases into the 22-case battery
	const marker = "acknowledged before the primary died"
	var caseNo atomic.Int32
	fstest.RunConformance(t, func() fsapi.FileSystem {
		i := caseNo.Add(1) - 1
		root, err := remote.Attach(fsapi.Root)
		if err != nil {
			t.Fatalf("case %d attach: %v", i, err)
		}
		defer root.Detach()
		if i == killAt {
			// This write is acknowledged (quorum=1: the backup applied
			// it) before the primary is cut mid-everything.
			writeFile(t, root, "/marker", marker)
			p.srv.Abort()
			p.n.Close()
		}
		pre := fmt.Sprintf("/case%02d", i)
		if err := root.Mkdir(pre, 0o777); err != nil {
			t.Fatalf("case %d mkdir: %v", i, err)
		}
		return &prefixFS{remote: remote, pre: pre}
	})

	if got := int(caseNo.Load()); got <= killAt {
		t.Fatalf("battery ran %d cases; the kill at %d never happened", got, killAt)
	}
	if b.n.Role() != replica.RolePrimary {
		t.Fatalf("backup never promoted (role %v)", b.n.Role())
	}
	st := remote.Stats()
	if st.Failovers == 0 {
		t.Error("client never failed over")
	}

	// The acknowledged write survived the unclean failover.
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if got := readFile(t, c, "/marker"); got != marker {
		t.Fatalf("acknowledged write lost: %q", got)
	}
}

// TestFDSurvivesFailover pins the virtual-descriptor guarantee directly: a
// descriptor opened before the failover keeps working after it, on the
// promoted backup, with its offset intact.
func TestFDSurvivesFailover(t *testing.T) {
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)
	b := startBackup(t, cfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	remote, err := client.Dial(p.addr+","+b.addr, client.Options{
		FailoverTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	fd, err := c.Create("/journal", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("first half, ")); err != nil {
		t.Fatal(err)
	}

	p.srv.Abort()
	p.n.Close()
	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })

	// Same descriptor, same session, new primary: the positional write
	// must land where the pre-failover offset left it.
	if _, err := c.Write(fd, []byte("second half")); err != nil {
		t.Fatalf("write on resumed fd: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("close resumed fd: %v", err)
	}
	if got := readFile(t, c, "/journal"); got != "first half, second half" {
		t.Fatalf("journal = %q", got)
	}
	if remote.Stats().Replays == 0 {
		t.Log("note: failover completed without replaying any request")
	}
}

// TestJoinCarriesDescriptors joins a backup while a session holds open
// descriptors, then fails over to it. The join manifest carries the
// session's open table, so the promoted backup serves every descriptor at
// its number, and a new open gets a number the session was never handed.
func TestJoinCarriesDescriptors(t *testing.T) {
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := client.Dial(p.addr+","+bln.Addr().String(), client.Options{FailoverTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	contents := map[fsapi.FD]string{}
	var highest fsapi.FD
	for i := range 4 {
		fd, err := c.Open(fmt.Sprintf("/f%d", i), fsapi.ORdwr|fsapi.OCreate, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		contents[fd] = fmt.Sprintf("file %d, before the join", i)
		if _, err := c.Pwrite(fd, []byte(contents[fd]), 0); err != nil {
			t.Fatal(err)
		}
		highest = max(highest, fd)
	}
	// The last one closes: its number is spent, not open.
	if err := c.Close(highest); err != nil {
		t.Fatal(err)
	}
	delete(contents, highest)

	b := startBackupOn(t, cfg, p.addr, bln)
	waitFor(t, "backup to join", func() bool {
		return p.n.Backups() == 1 && b.n.Epoch() == p.n.Epoch()
	})
	// A write after the join reaches the backup through the log, on a
	// descriptor it only knows from the manifest.
	for fd := range contents {
		contents[fd] += ", after"
		if _, err := c.Pwrite(fd, []byte(contents[fd]), 0); err != nil {
			t.Fatal(err)
		}
		break
	}

	p.srv.Abort()
	p.n.Close()
	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })

	for fd, want := range contents {
		buf := make([]byte, 64)
		n, err := c.Pread(fd, buf, 0)
		if err != nil && err != io.EOF {
			t.Fatalf("pread descriptor %d on the promoted backup: %v", fd, err)
		}
		if string(buf[:n]) != want {
			t.Fatalf("descriptor %d reads %q, want %q", fd, buf[:n], want)
		}
	}
	fd, err := c.Create("/after", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if fd <= highest {
		t.Fatalf("a new create got descriptor %d; the session was handed up to %d", fd, highest)
	}
	if remote.Stats().Failovers == 0 {
		t.Error("client never failed over")
	}
	for _, m := range []string{"simurgh_replica_replay_skipped_total", "simurgh_replica_replay_errors_total"} {
		if v := metricValue(t, b.n, m); v != 0 {
			t.Errorf("%s = %d on the promoted backup", m, v)
		}
	}
}
