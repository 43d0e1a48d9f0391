package client_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/wire/client"
)

// startReplicatedServer serves a fresh volume as a founding primary, which
// is what gives the server durable sessions: a failed-over client can
// re-attach by client ID and replay unanswered requests.
func startReplicatedServer(t *testing.T) string {
	t.Helper()
	dev := pmem.New(64 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := replica.Config{
		Quorum:            1,
		HeartbeatInterval: 25 * time.Millisecond,
		FailoverGrace:     300 * time.Millisecond,
		Advertise:         ln.Addr().String(),
		Snapshot: func(w io.Writer) error {
			_, err := dev.WriteTo(w)
			return err
		},
	}
	n := replica.NewPrimary(vol, cfg)
	srv, err := server.New(server.Config{FS: vol, Replica: n})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Abort(); n.Close() })
	return ln.Addr().String()
}

// chaosProxy forwards TCP connections to a backend and, on demand, tears
// down every live connection at once — the client sees a transport loss
// while the server (and its retained sessions) stay up.
type chaosProxy struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func startChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) acceptLoop() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		p.conns[in] = struct{}{}
		p.conns[out] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go pipe(in, out)
		go pipe(out, in)
	}
}

// killAll severs every proxied connection currently alive.
func (p *chaosProxy) killAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *chaosProxy) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.killAll()
}

// TestReplayReusedBuffersUnderReconnect aims -race at the retransmission
// path: pooled request segments and pending-call records must stay valid
// while the connect loop replays them over a fresh connection. The
// chaos proxy repeatedly severs the client's transport mid-flight; every
// read still has to return the right bytes, and by the end the session
// must have actually exercised failover replays.
func TestReplayReusedBuffersUnderReconnect(t *testing.T) {
	backend := startReplicatedServer(t)
	proxy := startChaosProxy(t, backend)

	remote, err := client.Dial(proxy.addr(), client.Options{
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

	// A patterned file so replayed reads are verifiable byte-for-byte.
	const fileSize = 128 << 10
	pat := func(off int) byte { return byte(off*167 ^ off>>9) }
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = pat(i)
	}
	fd, err := c.Create("/replay", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pwrite(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	// Reopen read-write: readers and the mutating worker share this fd.
	fd, err = c.Open("/replay", fsapi.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Killer: sever all proxied connections every 60ms until told to stop.
	stopKill := make(chan struct{})
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		tick := time.NewTicker(60 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopKill:
				return
			case <-tick.C:
				proxy.killAll()
			}
		}
	}()

	// Workers keep the wire busy so kills land on in-flight requests.
	stopWork := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 16<<10)
			for it := 0; ; it++ {
				select {
				case <-stopWork:
					return
				default:
				}
				off := ((g*37 + it*11) * 512) % (fileSize - len(buf))
				n, err := c.Pread(fd, buf, uint64(off))
				if err != nil {
					errs <- err
					return
				}
				for k := 0; k < n; k += 509 {
					if buf[k] != pat(off+k) {
						t.Errorf("replayed read at %d: byte %d = %#x, want %#x",
							off, k, buf[k], pat(off+k))
						return
					}
				}
			}
		}(g)
	}
	// One mutating worker so replicated (deduplicated) ops replay too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; ; it++ {
			select {
			case <-stopWork:
				return
			default:
			}
			off := (it * 4096) % (fileSize - 4096)
			if _, err := c.Pwrite(fd, data[off:off+4096], uint64(off)); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Run until the session has demonstrably failed over and replayed
	// in-flight requests, or give up.
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		st := remote.Stats()
		if st.Failovers > 0 && st.Replays > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stopKill)
	killWG.Wait()
	close(stopWork)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := remote.Stats()
	if st.Failovers == 0 {
		t.Fatal("chaos proxy never induced a failover")
	}
	if st.Replays == 0 {
		t.Fatal("no requests were replayed across reconnects")
	}
	t.Logf("failovers=%d replays=%d dials=%d", st.Failovers, st.Replays, st.Dials)
}
