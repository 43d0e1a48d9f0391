package server_test

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.FS == nil {
		dev := pmem.New(64 << 20)
		fs, err := core.Format(dev, fsapi.Root, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.FS = fs
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// TestConnLimit verifies the MaxConns'th+1 connection is refused with an
// overload error frame while admitted ones keep working.
func TestConnLimit(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxConns: 2})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	c1, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Detach()
	c2, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()

	if _, err := remote.Attach(fsapi.Root); !errors.Is(err, wire.ErrOverload) {
		t.Fatalf("third attach = %v, want ErrOverload", err)
	}
	// Admitted sessions still serve.
	if _, err := c1.Stat("/"); err != nil {
		t.Fatalf("Stat on admitted conn after refusal: %v", err)
	}
}

// TestBadHandshakeRejected verifies a non-attach first frame gets an error
// frame and a closed connection, not a hang.
func TestBadHandshakeRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A batch before attach is a protocol violation.
	req := wire.Request{ID: 1, Op: wire.OpStat, Path: "/"}
	if err := wire.WriteFrame(conn, wire.KindBatch, wire.AppendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := wire.NewFrameReader(conn)
	kind, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if kind != wire.KindErr {
		t.Fatalf("got kind %d, want KindErr", kind)
	}
	if e := wire.ParseErrFrame(payload); e == nil {
		t.Fatal("error frame decoded to nil error")
	}
}

// TestBadMagicRejected verifies a garbage handshake is answered with an
// error frame.
func TestBadMagicRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.KindAttach, []byte("XXXX\x01garbage..")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := wire.NewFrameReader(conn)
	kind, _, err := fr.Next()
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if kind != wire.KindErr {
		t.Fatalf("got kind %d, want KindErr", kind)
	}
}

// TestGracefulShutdown verifies Shutdown lets an in-flight session finish,
// then refuses new connections.
func TestGracefulShutdown(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	if _, err := remote.Attach(fsapi.Root); err == nil {
		t.Fatal("attach after shutdown succeeded")
	}
}

// TestMetricsOutput drives traffic and checks that batching is counted as
// one batch frame carrying many requests. Which series are exported, and
// who reads each, is pinned by internal/export's inventory test.
func TestMetricsOutput(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Stat("/"); err != nil {
			t.Fatal(err)
		}
	}

	// Batching is one crossing per batch: a Submit of 16 stats is one
	// batch frame and 16 executed requests, whatever the host's speed.
	counter := func(name string) uint64 {
		var sb strings.Builder
		srv.WriteMetrics(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("metrics output missing %s", name)
		return 0
	}
	batches0, requests0 := counter("simurgh_wire_batches_total"), counter("simurgh_server_requests_total")
	reqs := make([]wire.Request, 16)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpStat, Path: "/"}
	}
	resps, err := c.(*client.Session).Submit(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if resps[i].Code != wire.CodeOK {
			t.Fatalf("stat %d: %v", i, resps[i].Err())
		}
	}
	if d := counter("simurgh_wire_batches_total") - batches0; d != 1 {
		t.Errorf("a 16-stat Submit added %d batches, want 1", d)
	}
	if d := counter("simurgh_server_requests_total") - requests0; d != 16 {
		t.Errorf("a 16-stat Submit added %d requests, want 16", d)
	}
	c.Detach()
}

// TestLargeBatchReplySplits verifies a batch whose responses exceed one
// frame (five MaxIO preads: >5 MiB of reply against a 4 MiB MaxFrame) is
// answered across multiple reply frames instead of killing the session.
func TestLargeBatchReplySplits(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := cl.(*client.Session)
	defer sess.Detach()

	data := make([]byte, wire.MaxIO)
	for i := range data {
		data[i] = byte(i)
	}
	wfd, err := sess.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Pwrite(wfd, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(wfd); err != nil {
		t.Fatal(err)
	}
	fd, err := sess.Open("/big", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]wire.Request, 5)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpPread, FD: fd, Size: wire.MaxIO}
	}
	resps, err := sess.Submit(reqs)
	if err != nil {
		t.Fatalf("Submit of %d MaxIO preads: %v", len(reqs), err)
	}
	for i, r := range resps {
		if r.Code != wire.CodeOK {
			t.Fatalf("pread %d failed: %v", i, r.Err())
		}
		if len(r.Data) != wire.MaxIO || r.Data[wire.MaxIO-1] != data[wire.MaxIO-1] {
			t.Fatalf("pread %d returned %d bytes, want %d", i, len(r.Data), wire.MaxIO)
		}
	}
	// The session must still be live after the multi-frame reply.
	if err := sess.Close(fd); err != nil {
		t.Fatalf("session dead after split reply: %v", err)
	}
}

// TestSequentialBatchSemantics checks a dependent create→write→close→stat
// chain works inside one batch frame (in-order execution).
func TestSequentialBatchSemantics(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cl, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := cl.(*client.Session)
	defer sess.Detach()

	resps, err := sess.Submit([]wire.Request{
		{Op: wire.OpCreate, Path: "/chain", Perm: 0o644},
	})
	if err != nil || resps[0].Code != wire.CodeOK {
		t.Fatalf("create: %v / %v", err, resps[0].Err())
	}
	fd := resps[0].FD
	resps, err = sess.Submit([]wire.Request{
		{Op: wire.OpWrite, FD: fd, Data: []byte("abc")},
		{Op: wire.OpWrite, FD: fd, Data: []byte("def")},
		{Op: wire.OpClose, FD: fd},
		{Op: wire.OpStat, Path: "/chain"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Code != wire.CodeOK {
			t.Fatalf("batch op %d failed: %v", i, r.Err())
		}
	}
	if got := resps[3].Stat.Size; got != 6 {
		t.Fatalf("size after batched writes = %d, want 6", got)
	}
}
