package server_test

import (
	"net"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire"
)

// gatedFS holds every Mkdir of "/gate" until release is closed, so a test
// can keep a batch executing for as long as it needs.
type gatedFS struct {
	fsapi.FileSystem
	entered chan struct{}
	release chan struct{}
}

type gatedClient struct {
	fsapi.Client
	fs *gatedFS
}

func (g *gatedFS) Attach(c fsapi.Cred) (fsapi.Client, error) {
	cl, err := g.FileSystem.Attach(c)
	return gatedClient{cl, g}, err
}

func (c gatedClient) Mkdir(p string, mode uint32) error {
	if p == "/gate" {
		c.fs.entered <- struct{}{}
		<-c.fs.release
	}
	return c.Client.Mkdir(p, mode)
}

// rawSession is an attached wire connection that sends batches and reads
// their replies frame by frame, with no client in between.
type rawSession struct {
	conn net.Conn
	fr   *wire.FrameReader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	s := &rawSession{conn: conn, fr: wire.NewFrameReader(conn)}
	if err := wire.WriteFrame(conn, wire.KindAttach, wire.AppendAttach(nil, fsapi.Root, 0, nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if kind, _, err := s.fr.Next(); err != nil || kind != wire.KindAttachOK {
		t.Fatalf("attach: kind %d, %v", kind, err)
	}
	return s
}

// send writes one batch frame carrying reqs.
func (s *rawSession) send(t *testing.T, reqs ...wire.Request) {
	t.Helper()
	var payload []byte
	for i := range reqs {
		payload = wire.AppendRequest(payload, &reqs[i])
	}
	if err := wire.WriteFrame(s.conn, wire.KindBatch, payload); err != nil {
		t.Fatal(err)
	}
}

// reply reads the next reply frame and returns its responses.
func (s *rawSession) reply(t *testing.T) []wire.Response {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, b, err := s.fr.Next()
	if err != nil || kind != wire.KindReply {
		t.Fatalf("reply: kind %d, %v", kind, err)
	}
	var resps []wire.Response
	for len(b) > 0 {
		var resp wire.Response
		if resp, b, err = wire.DecodeResponseInto(b, nil); err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	return resps
}

// TestBatchesRunInArrivalOrder pins a connection's batches to the order they
// arrived in: a read-only batch sent while a write batch is still executing
// is answered after it, never ahead of it.
func TestBatchesRunInArrivalOrder(t *testing.T) {
	dev := pmem.New(64 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedFS{FileSystem: fs, entered: make(chan struct{}), release: make(chan struct{})}
	_, addr := startServer(t, server.Config{FS: gate})

	s := dialRaw(t, addr)
	s.send(t, wire.Request{ID: 1, Op: wire.OpMkdir, Path: "/gate", Perm: 0o755})
	<-gate.entered // batch A is executing
	s.send(t, wire.Request{ID: 2, Op: wire.OpStat, Path: "/"})
	time.Sleep(200 * time.Millisecond)
	close(gate.release)

	first := s.reply(t)
	if len(first) != 1 {
		t.Fatalf("first reply carries %d responses, want 1", len(first))
	}
	if first[0].ID != 1 {
		t.Fatalf("first reply is request %d, want 1 (the batch sent first)", first[0].ID)
	}
	if first[0].Code != wire.CodeOK {
		t.Fatalf("mkdir: %v", first[0].Err())
	}
	second := s.reply(t)
	if len(second) != 1 || second[0].ID != 2 || second[0].Code != wire.CodeOK {
		t.Fatalf("second reply = %+v, want request 2 answered OK", second)
	}
}
