package replica_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/replica"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// metricValue scrapes one series value out of a node's metrics exposition.
func metricValue(t *testing.T, n *replica.Node, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	n.WriteMetrics(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// TestPipelinedQuorum2 drives writes through a quorum=2 group and reads
// them back: both backups' cumulative acks must cover each write before its
// reply.
func TestPipelinedQuorum2(t *testing.T) {
	// Pipelined shipping is the only mode; the subtest keeps its name.
	t.Run("pipelined", func(t *testing.T) {
		cfg := repConfig()
		cfg.Quorum = 2
		// Two backups mean a second snapshot cut can stall heartbeats
		// to the first link; more grace keeps the links from flapping
		// on slow (-race) runs.
		cfg.FailoverGrace = 2 * time.Second
		p := startPrimary(t, cfg)
		b1 := startBackup(t, cfg, p.addr)
		b2 := startBackup(t, cfg, p.addr)
		// Completed joins, not just registered links: a backup's epoch
		// leaves zero once its snapshot is restored.
		waitFor(t, "both backups", func() bool {
			return p.n.Backups() == 2 &&
				b1.n.Epoch() == p.n.Epoch() && b2.n.Epoch() == p.n.Epoch()
		})

		remote, err := client.Dial(p.addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		c, err := remote.Attach(fsapi.Root)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Detach()
		writeFile(t, c, "/q2", "covered by two acks")
		if got := readFile(t, c, "/q2"); got != "covered by two acks" {
			t.Fatalf("got %q", got)
		}
	})
}

// TestSlowBackupDoesNotStall pins the sliding window's point: with
// quorum=1 and two backups, a backup stuck mid-apply must not stall
// writes the other backup is acking. A floor computed as the minimum ack
// (the pre-window behavior this guards against) deadlocks this test.
func TestSlowBackupDoesNotStall(t *testing.T) {
	cfg := repConfig()
	cfg.FailoverGrace = 2 * time.Second // two-backup group; see TestPipelinedQuorum2
	p := startPrimary(t, cfg)
	fast := startBackup(t, cfg, p.addr)

	gate := make(chan struct{})
	var slowApplied atomic.Uint64
	slowCfg := cfg
	slowCfg.ApplyHook = func(e *wire.Entry) {
		if slowApplied.Add(1) > 2 {
			<-gate // wedge the slow backup after its first couple of entries
		}
	}
	slow := startBackup(t, slowCfg, p.addr)
	waitFor(t, "both backups", func() bool {
		return p.n.Backups() == 2 &&
			fast.n.Epoch() == p.n.Epoch() && slow.n.Epoch() == p.n.Epoch()
	})

	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	const writes = 200
	fd, err := c.Create("/unstalled", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("not gated on the slow backup")
	for i := 0; i < writes; i++ {
		if _, err := c.Pwrite(fd, payload, uint64(i*len(payload))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if applied := slowApplied.Load(); applied > 3 {
		t.Fatalf("slow backup applied %d entries while wedged", applied)
	}
	if win := metricValue(t, p.n, "simurgh_replica_ack_window"); win != 0 {
		t.Logf("ack window %d entries behind the wedged backup (informational)", win)
	}

	// Unwedge; the slow backup must drain the backlog and converge.
	close(gate)
	waitFor(t, "slow backup catch-up", func() bool { return slow.n.Seq() == p.n.Seq() })
	if got := readFile(t, c, "/unstalled"); len(got) != writes*len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), writes*len(payload))
	}
}

// TestParallelApplyConsistency hammers a backup configured with a worker
// pool: interleaved pwrites across many files must replay to byte-identical
// content even when runs of them apply concurrently. The backup is then
// promoted and read directly, so the check sees the replayed volume, not
// the primary's.
func TestParallelApplyConsistency(t *testing.T) {
	cfg := repConfig()
	p := startPrimary(t, cfg)
	bCfg := cfg
	bCfg.ApplyWorkers = 4
	b := startBackup(t, bCfg, p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })

	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.(*client.Session)

	const nfiles = 8
	const rounds = 120
	const batch = 64
	fds := make([]fsapi.FD, nfiles)
	want := make([][]byte, nfiles)
	for i := range fds {
		if fds[i], err = c.Create(fmt.Sprintf("/par%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, 32<<10)
	}
	reqs := make([]wire.Request, batch)
	var n uint64
	for r := 0; r < rounds; r++ {
		for j := range reqs {
			f := int(n) % nfiles
			off := (n * 977) % uint64(32<<10-16)
			var data [16]byte
			binary.LittleEndian.PutUint64(data[:], n)
			binary.LittleEndian.PutUint64(data[8:], ^n)
			copy(want[f][off:], data[:])
			reqs[j] = wire.Request{ID: uint32(1000 + n), Op: wire.OpPwrite,
				FD: fds[f], Off: off, Data: data[:]}
			n++
		}
		resps, err := sess.Submit(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range resps {
			if resps[i].Code != wire.CodeOK {
				t.Fatalf("round %d resp %d: %s", r, i, resps[i].Msg)
			}
		}
	}
	for i := range fds {
		if err := c.Close(fds[i]); err != nil {
			t.Fatal(err)
		}
	}
	c.Detach()

	waitFor(t, "backup catch-up", func() bool { return b.n.Seq() == p.n.Seq() })
	if par := metricValue(t, b.n, "simurgh_replica_apply_parallel_total"); par == 0 {
		t.Error("no entries took the parallel apply path; the test exercised nothing")
	}

	// Read the replayed bytes off the backup itself.
	if _, err := b.n.Promote(); err != nil {
		t.Fatal(err)
	}
	bremote, err := client.Dial(b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bremote.Close()
	bc, err := bremote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Detach()
	for i := range want {
		got := readFile(t, bc, fmt.Sprintf("/par%02d", i))
		if !bytes.Equal([]byte(got), want[i][:len(got)]) || len(got) == 0 {
			t.Fatalf("file %d: replayed content diverged (len %d)", i, len(got))
		}
	}
}

// TestKillMidWindow hard-kills the primary while a stream of acknowledged
// pwrites keeps the ack window busy. Pipelining must not weaken the
// guarantee failover is built on: after the backup promotes, every write
// that was acknowledged before or across the kill is present.
func TestKillMidWindow(t *testing.T) {
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
	fd, err := c.Create("/window", 0o644)
	if err != nil {
		t.Fatal(err)
	}

	var acked atomic.Uint64
	writerDone := make(chan error, 1)
	go func() {
		var rec [8]byte
		for i := uint64(0); i < 4000; i++ {
			binary.LittleEndian.PutUint64(rec[:], i)
			if _, err := c.Pwrite(fd, rec[:], i*8); err != nil {
				writerDone <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			acked.Add(1)
		}
		writerDone <- nil
	}()

	// Cut the primary once the stream is in full flight, with entries in
	// every stage of the pipeline: executed-unshipped, shipped-unacked,
	// and acked.
	waitFor(t, "stream in flight", func() bool { return acked.Load() > 500 })
	p.srv.Abort()
	p.n.Close()

	if err := <-writerDone; err != nil {
		t.Logf("writer stopped at the kill: %v (acked writes must still hold)", err)
	}
	waitFor(t, "auto promotion", func() bool { return b.n.Role() == replica.RolePrimary })
	if remote.Stats().Failovers == 0 {
		t.Error("client never failed over")
	}

	total := acked.Load()
	if total < 500 {
		t.Fatalf("only %d writes acked before the kill", total)
	}
	got := readFile(t, c, "/window")
	for i := uint64(0); i < total; i++ {
		if uint64(len(got)) < (i+1)*8 || binary.LittleEndian.Uint64([]byte(got[i*8:])) != i {
			t.Fatalf("acked write %d lost after failover (%d acked, %d bytes present)",
				i, total, len(got))
		}
	}
}
