package server_test

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire"
)

// gatedFS holds every Mkdir of "/gate" until release is closed, so a test
// can occupy the server's only worker for as long as it needs.
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
// their replies frame by frame, with no client-side retries in between.
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

// batch sends one batch frame of mkdirs under dir and returns the codes of
// its n responses.
func (s *rawSession) batch(dir string, n int) ([]wire.ErrCode, error) {
	var payload []byte
	for i := 0; i < n; i++ {
		p := dir
		if i > 0 {
			p = dir + "/" + string(rune('a'+i))
		}
		payload = wire.AppendRequest(payload, &wire.Request{ID: uint32(i + 1), Op: wire.OpMkdir, Path: p, Perm: 0o755})
	}
	if err := wire.WriteFrame(s.conn, wire.KindBatch, payload); err != nil {
		return nil, err
	}
	var codes []wire.ErrCode
	s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for len(codes) < n {
		_, b, err := s.fr.Next()
		if err != nil {
			return nil, err
		}
		for len(b) > 0 {
			var resp wire.Response
			if resp, b, err = wire.DecodeResponseAlias(b); err != nil {
				return nil, err
			}
			codes = append(codes, resp.Code)
		}
	}
	return codes, nil
}

// TestBatchSizeCountsRefusedBatches pins simurgh_wire_batch_size_sum to the
// operations received, not the requests answered: with one worker busy and
// the one queue slot taken, a third batch waits RequestTimeout in submit's
// timed path and is refused CodeOverload, yet its four operations were
// received and count.
func TestBatchSizeCountsRefusedBatches(t *testing.T) {
	dev := pmem.New(64 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedFS{FileSystem: fs, entered: make(chan struct{}), release: make(chan struct{})}
	srv, addr := startServer(t, server.Config{FS: gate, Workers: 1, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})

	first := dialRaw(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := first.batch("/gate", 4)
		done <- err
	}()
	<-gate.entered // the only worker now holds the first batch

	var wg sync.WaitGroup
	codes := make([][]wire.ErrCode, 2)
	errs := make([]error, 2)
	answered := make(chan struct{}, 2)
	for i, dir := range []string{"/q1", "/q2"} {
		s := dialRaw(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], errs[i] = s.batch(dir, 4)
			answered <- struct{}{}
		}()
	}
	// One of the two takes the queue slot and cannot be answered while the
	// worker is held; the other is refused once its timed wait runs out.
	// Release the worker only after that answer.
	<-answered
	close(gate.release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i := range codes {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if codes[i][0] == wire.CodeOverload {
			refused++
			for _, c := range codes[i] {
				if c != wire.CodeOverload {
					t.Errorf("refused batch answered %v, want CodeOverload for every op", codes[i])
				}
			}
		}
	}
	if refused != 1 {
		t.Fatalf("%d batches refused, want 1: %v", refused, codes)
	}

	var sb strings.Builder
	srv.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"simurgh_wire_batch_size_count 3\n",
		"simurgh_wire_batch_size_sum 12\n",
		"simurgh_server_requests_total 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
