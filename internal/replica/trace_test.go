package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/wire/client"
)

// tracedGroup is a one-primary one-backup group with per-node registries
// wired through every layer (server, replica, client), tracing every span.
type tracedGroup struct {
	p, b       *member
	clientReg  *obs.Registry
	primaryReg *obs.Registry
	backupReg  *obs.Registry
	c          fsapi.Client
	remote     *client.Remote
}

func startTracedGroup(t *testing.T) *tracedGroup {
	t.Helper()
	g := &tracedGroup{
		clientReg:  obs.NewRegistry(),
		primaryReg: obs.NewRegistry(),
		backupReg:  obs.NewRegistry(),
	}
	for name, reg := range map[string]*obs.Registry{
		"client": g.clientReg, "primary": g.primaryReg, "backup": g.backupReg,
	} {
		reg.SetNode(name)
		reg.EnableTrace(4096)
	}

	// Primary.
	dev := pmem.New(16 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pcfg := repConfig()
	pcfg.Advertise = pln.Addr().String()
	pcfg.Obs = g.primaryReg
	pcfg.Snapshot = func(w io.Writer) error {
		_, err := dev.WriteTo(w)
		return err
	}
	pn := replica.NewPrimary(vol, pcfg)
	psrv, err := server.New(server.Config{FS: vol, Replica: pn, Obs: g.primaryReg})
	if err != nil {
		t.Fatal(err)
	}
	go psrv.Serve(pln)
	g.p = &member{n: pn, srv: psrv, addr: pln.Addr().String()}
	t.Cleanup(func() { g.p.srv.Abort(); g.p.n.Close() })

	// Backup.
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bcfg := repConfig()
	bcfg.Advertise = bln.Addr().String()
	bcfg.PrimaryAddr = g.p.addr
	bcfg.Obs = g.backupReg
	bcfg.Restore = func(img []byte) (fsapi.FileSystem, error) {
		d, err := pmem.ReadImage(bytes.NewReader(img))
		if err != nil {
			return nil, err
		}
		fs, _, err := core.Mount(d, core.Options{})
		return fs, err
	}
	bn := replica.NewBackup(bcfg)
	bsrv, err := server.New(server.Config{Replica: bn, Obs: g.backupReg})
	if err != nil {
		t.Fatal(err)
	}
	go bsrv.Serve(bln)
	g.b = &member{n: bn, srv: bsrv, addr: bln.Addr().String()}
	t.Cleanup(func() { g.b.srv.Abort(); g.b.n.Close() })
	waitFor(t, "backup to join", func() bool { return g.p.n.Backups() == 1 })

	// Client: every submission carries a trace context.
	g.remote, err = client.Dial(g.p.addr, client.Options{Obs: g.clientReg, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.remote.Close() })
	g.c, err = g.remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.c.Detach() })
	return g
}

// traceSets collects, per registry, the set of distributed trace IDs seen
// for each span kind.
func traceSets(reg *obs.Registry) map[obs.SpanKind]map[uint64]bool {
	out := map[obs.SpanKind]map[uint64]bool{}
	for _, e := range reg.Trace() {
		if e.Trace == 0 {
			continue
		}
		if out[e.Kind] == nil {
			out[e.Kind] = map[uint64]bool{}
		}
		out[e.Kind][e.Trace] = true
	}
	return out
}

// TestDistributedTraceLinksAcrossNodes follows one sampled replicated
// pwrite from the client through the primary to the backup's ack: every
// layer must emit spans carrying the same trace ID, and the merged Chrome
// dump of all three registries must be one valid timeline containing them.
func TestDistributedTraceLinksAcrossNodes(t *testing.T) {
	g := startTracedGroup(t)

	fd, err := g.c.Create("/traced", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.c.Pwrite(fd, []byte("follow this write"), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.c.Close(fd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "backup to catch up", func() bool { return g.b.n.Seq() == g.p.n.Seq() })

	// The rep-ack span is emitted by the backup's async acker after the
	// ack hits the socket; quorum acknowledgment (which the client waits
	// on) implies the ack was sent, but the span write can trail it.
	waitFor(t, "backup rep-ack span", func() bool {
		return len(traceSets(g.backupReg)[obs.SpanRepAck]) > 0
	})

	cli := traceSets(g.clientReg)
	pri := traceSets(g.primaryReg)
	bak := traceSets(g.backupReg)
	for _, probe := range []struct {
		where string
		sets  map[obs.SpanKind]map[uint64]bool
		kind  obs.SpanKind
	}{
		{"client", cli, obs.SpanClientEnqueue},
		{"client", cli, obs.SpanClientSend},
		{"client", cli, obs.SpanClientAwait},
		{"primary", pri, obs.SpanSrvExec},
		{"primary", pri, obs.SpanSrvQuorum},
		{"primary", pri, obs.SpanRepCommit},
		{"primary", pri, obs.SpanRepShip},
		{"backup", bak, obs.SpanRepApply},
		{"backup", bak, obs.SpanRepAck},
	} {
		if len(probe.sets[probe.kind]) == 0 {
			t.Errorf("%s recorded no %v spans", probe.where, probe.kind)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// At least one trace ID must traverse the whole chain: client send →
	// primary execute → backup apply → backup ack.
	var linked uint64
	for id := range cli[obs.SpanClientSend] {
		if pri[obs.SpanSrvExec][id] && pri[obs.SpanRepShip][id] &&
			bak[obs.SpanRepApply][id] && bak[obs.SpanRepAck][id] {
			linked = id
			break
		}
	}
	if linked == 0 {
		t.Fatalf("no trace ID spans the full chain; client send IDs: %d, backup apply IDs: %d",
			len(cli[obs.SpanClientSend]), len(bak[obs.SpanRepApply]))
	}

	// Merge the three nodes' dumps into one timeline and verify it is
	// valid Chrome trace JSON containing the linked trace on distinct
	// process groups.
	var cdump, pdump, bdump bytes.Buffer
	for _, d := range []struct {
		reg *obs.Registry
		buf *bytes.Buffer
	}{{g.clientReg, &cdump}, {g.primaryReg, &pdump}, {g.backupReg, &bdump}} {
		if err := d.reg.WriteChromeTrace(d.buf); err != nil {
			t.Fatal(err)
		}
	}
	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, cdump.Bytes(), pdump.Bytes(), bdump.Bytes()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(merged.Bytes(), &events); err != nil {
		t.Fatalf("merged dump is not valid JSON: %v", err)
	}
	hex := fmt.Sprintf("%016x", linked)
	pids := map[float64]bool{}
	for _, e := range events {
		args, _ := e["args"].(map[string]any)
		if args == nil || args["trace"] != hex {
			continue
		}
		if pid, ok := e["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if len(pids) < 3 {
		t.Fatalf("linked trace %s spans %d process groups in the merged dump, want 3", hex, len(pids))
	}
	if !strings.Contains(merged.String(), `"process_name"`) {
		t.Fatal("merged dump lost the process_name metadata")
	}
}

// TestClusterJSON pins the cluster health document behind /cluster.json:
// a primary with one backup reports its role, epoch, durability floor, and
// a per-backup row, and the value survives its JSON encoding.
func TestClusterJSON(t *testing.T) {
	g := startTracedGroup(t)
	writeFile(t, g.c, "/f", "content")
	waitFor(t, "backup to catch up", func() bool { return g.b.n.Seq() == g.p.n.Seq() })

	b, err := json.Marshal(g.p.n.ClusterHealth())
	if err != nil {
		t.Fatal(err)
	}
	var doc replica.ClusterHealth
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("cluster.json invalid: %v\n%s", err, b)
	}
	if doc.Role != "primary" || doc.Epoch != 1 || doc.Quorum != 1 {
		t.Fatalf("role/epoch/quorum = %s/%d/%d", doc.Role, doc.Epoch, doc.Quorum)
	}
	if doc.Seq == 0 {
		t.Fatal("primary reports zero seq after writes")
	}
	if len(doc.Backups) != 1 {
		t.Fatalf("backups rows = %d, want 1", len(doc.Backups))
	}
	if doc.Backups[0].Addr == "" {
		t.Fatal("backup row missing address")
	}
	if strings.Contains(string(b), "shard") {
		t.Fatalf("an unsharded node's document carries a shard table: %s", b)
	}
	// Quorum 1 with one live backup: acknowledged writes are quorum-covered,
	// so the floor tracks the backup's cumulative ack.
	waitFor(t, "commit floor to reach seq", func() bool {
		h := g.p.n.ClusterHealth()
		return h.CommitFloor == h.Seq
	})

	// The backup's document reports its own applied position as the floor.
	if h := g.b.n.ClusterHealth(); h.Role != "backup" || h.CommitFloor != h.Seq || len(h.Backups) != 0 {
		t.Fatalf("backup role/floor/seq/rows = %s/%d/%d/%d", h.Role, h.CommitFloor, h.Seq, len(h.Backups))
	}
}
