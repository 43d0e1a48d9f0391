package server

// White-box steady-state tests: they drive the server's batch execution
// path (decode → execute → encode → vectored flush) directly on the calling
// goroutine against a constant-answer client and a discarding connection,
// isolating the server's own allocation behavior from the file system and
// the kernel. This is the path every connection runs.

import (
	"io"
	"net"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/wire"
)

// nullClient answers every operation from constants.
type nullClient struct{}

func (nullClient) Create(string, uint32) (fsapi.FD, error) { return 3, nil }
func (nullClient) Open(string, fsapi.OpenFlag, uint32) (fsapi.FD, error) {
	return 3, nil
}
func (nullClient) Close(fsapi.FD) error { return nil }
func (nullClient) Read(fd fsapi.FD, p []byte) (int, error) {
	return len(p), nil
}
func (nullClient) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	return len(p), nil
}
func (nullClient) Write(fd fsapi.FD, p []byte) (int, error) { return len(p), nil }
func (nullClient) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	return len(p), nil
}
func (nullClient) Seek(fsapi.FD, int64, int) (int64, error) { return 0, nil }
func (nullClient) Fsync(fsapi.FD) error                     { return nil }
func (nullClient) Ftruncate(fsapi.FD, uint64) error         { return nil }
func (nullClient) Fallocate(fsapi.FD, uint64) error         { return nil }
func (nullClient) Fstat(fsapi.FD) (fsapi.Stat, error)       { return fsapi.Stat{Size: 1}, nil }
func (nullClient) Stat(string) (fsapi.Stat, error)          { return fsapi.Stat{Size: 1}, nil }
func (nullClient) Lstat(string) (fsapi.Stat, error)         { return fsapi.Stat{Size: 1}, nil }
func (nullClient) Mkdir(string, uint32) error               { return nil }
func (nullClient) Rmdir(string) error                       { return nil }
func (nullClient) Unlink(string) error                      { return nil }
func (nullClient) Rename(string, string) error              { return nil }
func (nullClient) Symlink(string, string) error             { return nil }
func (nullClient) Link(string, string) error                { return nil }
func (nullClient) Readlink(string) (string, error)          { return "", nil }
func (nullClient) ReadDir(string) ([]fsapi.DirEntry, error) { return nil, nil }
func (nullClient) Chmod(string, uint32) error               { return nil }
func (nullClient) Utimes(string, int64, int64) error        { return nil }
func (nullClient) Detach() error                            { return nil }

// discardConn is a net.Conn that swallows writes.
type discardConn struct{}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

func (discardConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// steadyState builds the harness: a server shell (no listener — execBatch
// runs on this goroutine exactly as it does on a connection's), a session
// over a discarding connection, and the pre-encoded batch frame.
func steadyState(tb testing.TB, reqs []wire.Request) (*Server, *session, []byte) {
	tb.Helper()
	cfg := Config{}
	cfg.fillDefaults()
	s := &Server{cfg: cfg}
	sess := &session{srv: s, conn: discardConn{}, client: nullClient{}, bufw: newBufWriter(io.Discard)}
	var payload []byte
	for i := range reqs {
		payload = wire.AppendRequest(payload, &reqs[i])
	}
	return s, sess, payload
}

// steadyBatches are the request mixes the steady-state tests drive.
func statBatch(n int) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint32(i + 1), Op: wire.OpStat, Path: "/bench/f000"}
	}
	return reqs
}

func preadBatch(n, size int) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint32(i + 1), Op: wire.OpPread, FD: 3,
			Size: uint32(size), Off: uint64(i * size)}
	}
	return reqs
}

// runSteady performs one full server round: decode the batch frame into the
// connection scratch, execute it, flush the staged reply.
func runSteady(s *Server, sess *session, cs *connState, payload []byte) error {
	var err error
	cs.reqs, err = wire.DecodeBatchInto(cs.reqs[:0], payload)
	if err != nil {
		return err
	}
	s.execBatch(sess, cs.reqs, &cs.rs, 0)
	cs.rs.shrink()
	return nil
}

func benchSteady(b *testing.B, reqs []wire.Request) {
	s, sess, payload := steadyState(b, reqs)
	var cs connState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSteady(s, sess, &cs, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func pwriteBatch(n, size int) []wire.Request {
	data := make([]byte, size)
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint32(i + 1), Op: wire.OpPwrite, FD: 3,
			Off: uint64(i * size), Data: data}
	}
	return reqs
}

// tracedRegistry arms the flight recorder (and slow log) the way a traced
// production node runs, so the benchmarks below measure the instrumented —
// but unsampled — request path.
func tracedRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.SetNode("bench")
	r.EnableTrace(1024)
	return r
}

func BenchmarkServerStatBatch32(b *testing.B)   { benchSteady(b, statBatch(32)) }
func BenchmarkServerPread4KBatch8(b *testing.B) { benchSteady(b, preadBatch(8, 4096)) }

// BenchmarkServerPwriteTracedUnsampled pins the tracing tax on untraced
// traffic: the registry has its flight recorder enabled, but the batch
// carries no trace context (trace 0), which is what all but 1/TraceSample
// of requests look like on a node running with -trace. bench-smoke gates
// this at 0 allocs/op like every other BenchmarkServer* steady-state path.
func BenchmarkServerPwriteTracedUnsampled(b *testing.B) {
	reqs := pwriteBatch(8, 4096)
	s, sess, payload := steadyState(b, reqs)
	s.cfg.Obs = tracedRegistry()
	var cs connState
	b.SetBytes(int64(8 * 4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSteady(s, sess, &cs, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPreadLarge exercises the large-IO reply path — MaxIO reads
// whose responses split across several staged frames: the file system reads
// into the reply payload, which is sized once from the request sizes, capped
// at the staging budget and so kept for the next batch, and the reply is
// written vectored, never re-staged.
func BenchmarkServerPreadLarge(b *testing.B) {
	reqs := preadBatch(8, wire.MaxIO)
	s, sess, payload := steadyState(b, reqs)
	var cs connState
	b.SetBytes(int64(8 * wire.MaxIO))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSteady(s, sess, &cs, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerSteadyStateZeroAlloc pins the whole server request path —
// decode, execute, encode, vectored flush — at zero allocations per batch
// once buffers are warm. CI's bench-smoke step enforces the same bound.
func TestServerSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	for _, tc := range []struct {
		name string
		reqs []wire.Request
		obs  *obs.Registry
	}{
		{"stat32", statBatch(32), nil},
		{"pread4k8", preadBatch(8, 4096), nil},
		{"pwrite4k8-traced-unsampled", pwriteBatch(8, 4096), tracedRegistry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sess, payload := steadyState(t, tc.reqs)
			s.cfg.Obs = tc.obs
			var cs connState
			round := func() {
				if err := runSteady(s, sess, &cs, payload); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the scratch buffers and pools beyond AllocsPerRun's own
			// single warm-up call.
			for i := 0; i < 4; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(100, round); avg != 0 {
				t.Errorf("steady state: %.1f allocs/batch, want 0", avg)
			}
		})
	}
}
