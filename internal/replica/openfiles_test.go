package replica_test

// The replication log carries which descriptors exist and nothing about where
// they stand: positions are the client process's. These tests hold failover
// to that — a position continues across it without ever having been shipped,
// and the one entry a client does not wait for, a close, may be lost without
// the session noticing.

import (
	"bytes"
	"io"
	"net"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/replica"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// TestReadPositionSurvivesFailover reads half a file, kills the primary and
// reads the rest: the bytes continue where they left off, on a backup whose
// log never held a read or a seek.
func TestReadPositionSurvivesFailover(t *testing.T) {
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)
	var mu sync.Mutex
	logged := make(map[wire.Op]int)
	bcfg := cfg
	bcfg.ApplyHook = func(e *wire.Entry) {
		if e.Kind != wire.EntryAttach {
			mu.Lock()
			logged[e.Req.Op]++
			mu.Unlock()
		}
	}
	b := startBackup(t, bcfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	remote, err := client.Dial(p.addr+","+b.addr, client.Options{FailoverTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i*131 ^ i>>9)
	}
	fd, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(fd, want); err != nil || n != len(want) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if fd, err = c.Open("/f", fsapi.ORdonly, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	half := len(want) / 2
	for off := 0; off < half; off += 4096 {
		if n, err := c.Read(fd, got[off:off+4096]); err != nil || n != 4096 {
			t.Fatalf("read at %d = %d, %v", off, n, err)
		}
	}
	if pos, err := c.Seek(fd, -4096, fsapi.SeekCur); err != nil || pos != int64(half-4096) {
		t.Fatalf("seek = %d, %v", pos, err)
	}

	p.srv.Abort()
	p.n.Close()
	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })

	for off := half - 4096; off < len(want); off += 4096 {
		if n, err := c.Read(fd, got[off:off+4096]); err != nil || n != 4096 {
			t.Fatalf("read at %d on the promoted backup = %d, %v", off, n, err)
		}
	}
	if n, err := c.Read(fd, make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read past the end = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the bytes read across the failover are not the file's")
	}
	if remote.Stats().Failovers == 0 {
		t.Error("client never failed over")
	}
	mu.Lock()
	defer mu.Unlock()
	if logged[wire.OpRead]+logged[wire.OpSeek]+logged[wire.OpFsync]+logged[wire.OpPread] != 0 {
		t.Errorf("positions travelled the log: %v", logged)
	}
	if logged[wire.OpCreate] != 1 || logged[wire.OpOpen] != 1 || logged[wire.OpClose] != 1 || logged[wire.OpPwrite] != 1 {
		t.Errorf("log entries by op: %v; want one create, one pwrite, one close, one open", logged)
	}
}

var quorumWaitsRE = regexp.MustCompile(`(?m)^simurgh_server_quorum_wait_ns_count (\d+)$`)

// quorumWaits is how many reply flushes of m's server waited for the quorum.
func quorumWaits(t *testing.T, m *member) uint64 {
	t.Helper()
	var buf bytes.Buffer
	m.srv.WriteMetrics(&buf)
	match := quorumWaitsRE.FindSubmatch(buf.Bytes())
	if match == nil {
		t.Fatal("no simurgh_server_quorum_wait_ns_count in the server's metrics")
	}
	n, err := strconv.ParseUint(string(match[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestVarmailCycleLogAndQuorumCounts runs the thirteen calls of one varmail
// cycle against a replicated pair and counts what they cost the group. Nine
// make a log entry — everything that changes the volume or which descriptors
// exist — and six of those make the client wait for the quorum: the three
// closes are acknowledged ahead of it, and the two whole-file reads and the
// two fsyncs are no business of the log. (Eleven and eleven, while positions
// lived on the server.)
func TestVarmailCycleLogAndQuorumCounts(t *testing.T) {
	cfg := repConfig()
	p := startPrimary(t, cfg)
	b := startBackup(t, cfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })
	remote, err := client.Dial(p.addr+","+b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	writeFile(t, c, "/mail", "the message the cycle replaces")

	body, block, rbuf := make([]byte, 16<<10), make([]byte, 4<<10), make([]byte, 64<<10)
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		seq0, waits0 := p.n.Seq(), quorumWaits(t, p)
		must("unlink", c.Unlink("/mail"))
		fd, err := c.Create("/mail", 0o644)
		must("create", err)
		_, err = c.Write(fd, body)
		must("write", err)
		must("fsync", c.Fsync(fd))
		must("close", c.Close(fd))
		fd, err = c.Open("/mail", fsapi.ORdwr|fsapi.OAppend, 0)
		must("open for append", err)
		if n, err := c.Read(fd, rbuf); err != nil || n != len(body) {
			t.Fatalf("read = %d, %v", n, err)
		}
		_, err = c.Write(fd, block)
		must("append", err)
		must("fsync", c.Fsync(fd))
		must("close", c.Close(fd))
		fd, err = c.Open("/mail", fsapi.ORdonly, 0)
		must("open", err)
		if n, err := c.Read(fd, rbuf); err != nil || n != len(body)+len(block) {
			t.Fatalf("read = %d, %v", n, err)
		}
		must("close", c.Close(fd))
		if entries, waits := p.n.Seq()-seq0, quorumWaits(t, p)-waits0; entries != 9 || waits != 6 {
			t.Errorf("cycle %d: %d log entries and %d quorum waits for 13 calls, want 9 and 6", cycle, entries, waits)
		}
	}
}

// cutLink forwards a backup's replication connection and can stop delivering
// what the primary ships: bytes sent after cut vanish, as they do when a
// primary dies between executing an operation and shipping it.
type cutLink struct {
	ln      net.Listener
	backend string
	cut     atomic.Bool
}

func startCutLink(t *testing.T, backend string) *cutLink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &cutLink{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close() })
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
			go func() { // backup → primary: joins, acks, heartbeat echoes
				io.Copy(out, in)
				out.Close()
			}()
			go func() { // primary → backup: snapshot, log, heartbeats
				defer in.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := out.Read(buf)
					if err != nil {
						return
					}
					if l.cut.Load() {
						continue
					}
					if _, err := in.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l
}

// TestLostCloseLeavesSessionServing kills the primary between a close's reply
// and its shipment. A close is acknowledged when the primary has executed it,
// not when the quorum has it, so this entry is the one a failover may lose:
// the promoted backup keeps the descriptor open in the session's shadow, goes
// on serving every later call of the session, and lets go of the descriptor
// when the session detaches.
func TestLostCloseLeavesSessionServing(t *testing.T) {
	cfg := repConfig()
	cfg.AutoPromote = true
	p := startPrimary(t, cfg)
	link := startCutLink(t, p.addr)
	var vol atomic.Pointer[core.FS]
	bcfg := cfg
	bcfg.Restore = func(img []byte) (fsapi.FileSystem, error) {
		fs, err := mountImage(img)
		if err == nil {
			vol.Store(fs)
		}
		return fs, err
	}
	b := startBackup(t, bcfg, link.ln.Addr().String())
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	remote, err := client.Dial(p.addr+","+b.addr, client.Options{FailoverTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}

	// A megabyte that only a descriptor keeps alive: its blocks come back
	// when the last descriptor on it closes, on every node that closes it.
	const pinned = 1 << 20
	free0 := vol.Load().FreeBlocks()
	fd, err := c.Create("/pinned", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, make([]byte, pinned)); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/pinned"); err != nil {
		t.Fatal(err)
	}
	held := free0 - vol.Load().FreeBlocks() // acknowledged, so applied here
	if held < pinned/core.BlockSize {
		t.Fatalf("the backup holds %d blocks for a %d-byte file", held, pinned)
	}

	link.cut.Store(true)
	if err := c.Close(fd); err != nil {
		t.Fatalf("close with the replication link cut: %v", err)
	}
	p.srv.Abort()
	p.n.Close()
	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })

	// The session goes on as if nothing was lost.
	if err := c.Fsync(fd); err != fsapi.ErrBadFD {
		t.Fatalf("fsync on the closed descriptor: %v", err)
	}
	writeFile(t, c, "/after", "served by the promoted backup")
	if got := readFile(t, c, "/after"); got != "served by the promoted backup" {
		t.Fatalf("read back %q", got)
	}
	if remote.Stats().Failovers == 0 {
		t.Error("client never failed over")
	}
	if now := free0 - vol.Load().FreeBlocks(); now < held {
		t.Fatalf("the promoted backup holds %d blocks, %d before the close: the close was not lost and the test shows nothing", now, held)
	}
	if err := c.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if now := free0 - vol.Load().FreeBlocks(); now+pinned/core.BlockSize > held+8 {
		t.Fatalf("after detach the promoted backup still holds %d of %d blocks: the leftover descriptor was not released", now, held)
	}
}
