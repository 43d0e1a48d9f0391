package client_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/fstest"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// serve starts a wire server over a fresh Simurgh volume and returns the
// connected Remote; everything is torn down at test cleanup.
func serve(t testing.TB) *client.Remote {
	t.Helper()
	remote, _ := serveSized(t, 128<<20)
	return remote
}

// serveSized is serve over a volume of the given size that also hands back
// the server, for its metrics. A test that needs no room asks for little: an
// arena is zeroed when it is made, and under -race that is most of this
// package's time.
func serveSized(t testing.TB, size uint64) (*client.Remote, *server.Server) {
	t.Helper()
	dev := pmem.New(size)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	remote, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		remote.Close()
		srv.Shutdown()
	})
	return remote, srv
}

// TestRemoteConformance runs the full file-system conformance suite through
// a live TCP server: every fsapi call crosses the wire, so this exercises
// the codec, batching, session FD tables, and error round-tripping at once.
func TestRemoteConformance(t *testing.T) {
	fstest.RunConformance(t, func() fsapi.FileSystem {
		return serve(t)
	})
}

// TestRemoteErrorsKeepIdentity verifies errors survive the network with
// errors.Is identity intact, including wrapped sentinels with detail text.
func TestRemoteErrorsKeepIdentity(t *testing.T) {
	remote := serve(t)
	c, err := remote.Attach(fsapi.Cred{UID: 7, GID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	if _, err := c.Stat("/nope"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Stat(/nope) = %v, want ErrNotExist", err)
	}
	// A permission failure carries CheckPerm's decorated message; identity
	// must survive alongside it.
	root, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Detach()
	if err := root.Mkdir("/private", 0o700); err != nil {
		t.Fatal(err)
	}
	_, err = c.Create("/private/f", 0o644)
	if !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("Create in 0700 root dir = %v, want ErrPerm", err)
	}
}

// TestRemoteConcurrentCalls drives one session from many goroutines so
// calls coalesce into shared batch frames and replies dispatch by ID.
func TestRemoteConcurrentCalls(t *testing.T) {
	remote := serve(t)
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := "/d/f" + string(rune('a'+g))
				fd, err := c.Create(name, 0o644)
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Write(fd, []byte("data")); err != nil {
					errs <- err
					return
				}
				if err := c.Close(fd); err != nil {
					errs <- err
					return
				}
				if _, err := c.Stat(name); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSubmitExplicitBatch sends a dependent op sequence as one batch frame
// and checks in-order execution and per-op responses.
func TestSubmitExplicitBatch(t *testing.T) {
	remote := serve(t)
	cl, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := cl.(*client.Session)
	defer sess.Detach()

	reqs := []wire.Request{
		{Op: wire.OpMkdir, Path: "/b", Perm: 0o755},
		{Op: wire.OpCreate, Path: "/b/f", Perm: 0o644},
		{Op: wire.OpStat, Path: "/b/f"},
		{Op: wire.OpStat, Path: "/b/missing"},
	}
	resps, err := sess.Submit(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(resps), len(reqs))
	}
	for i := 0; i < 3; i++ {
		if resps[i].Code != wire.CodeOK {
			t.Fatalf("op %d (%v) failed: %v", i, reqs[i].Op, resps[i].Err())
		}
	}
	if !errors.Is(resps[3].Err(), fsapi.ErrNotExist) {
		t.Fatalf("batched Stat(missing) = %v, want ErrNotExist", resps[3].Err())
	}
	if resps[2].Stat.Mode&fsapi.ModeTypeMask != fsapi.ModeRegular {
		t.Fatalf("batched Stat returned mode %o", resps[2].Stat.Mode)
	}
}

// TestLargeIOChunks moves a payload beyond wire.MaxIO through the chunking
// read/write paths.
func TestLargeIOChunks(t *testing.T) {
	remote := serve(t)
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()

	big := make([]byte, wire.MaxIO+wire.MaxIO/2)
	for i := range big {
		big[i] = byte(i * 31)
	}
	fd, err := c.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(fd, big); err != nil || n != len(big) {
		t.Fatalf("Write = (%d, %v), want (%d, nil)", n, err, len(big))
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = c.Open("/big", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if n, err := c.Pread(fd, got, 0); err != nil || n != len(big) {
		t.Fatalf("Pread = (%d, %v), want (%d, nil)", n, err, len(big))
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], big[i])
		}
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedPathRejectedLocally verifies paths beyond wire.MaxPath are
// refused client-side with ErrNameTooLong — the server's decoder would
// treat them as a protocol error and tear down the whole connection — and
// that the session stays usable afterwards.
func TestOversizedPathRejectedLocally(t *testing.T) {
	remote := serve(t)
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	// Just over the protocol limit, and beyond what a u16 length can even
	// encode: both must fail locally without touching the connection.
	for _, n := range []int{wire.MaxPath + 1, 1 << 17} {
		path := "/" + strings.Repeat("x", n)
		if _, err := c.Stat(path); !errors.Is(err, fsapi.ErrNameTooLong) {
			t.Fatalf("Stat(len %d) = %v, want ErrNameTooLong", len(path), err)
		}
		if err := c.Rename("/ok", path); !errors.Is(err, fsapi.ErrNameTooLong) {
			t.Fatalf("Rename to len %d = %v, want ErrNameTooLong", len(path), err)
		}
	}
	if _, err := c.Stat("/"); err != nil {
		t.Fatalf("session dead after local rejection: %v", err)
	}
}

// TestDetachEndsSession verifies calls after Detach fail with ErrClosed.
func TestDetachEndsSession(t *testing.T) {
	remote := serve(t)
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Stat after Detach = %v, want ErrClosed", err)
	}
}
