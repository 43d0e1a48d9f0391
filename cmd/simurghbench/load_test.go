package main

import (
	"net"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire/client"
)

// TestLoadVerifierCountsLoss drives load's writers against an in-process
// server, checks the verify pass finds nothing lost, then corrupts one
// acknowledged record behind the writers' backs: the verifier must count
// exactly that record and fail.
func TestLoadVerifierCountsLoss(t *testing.T) {
	vol, err := core.Format(pmem.New(64<<20), fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{FS: vol})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	remote, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	paths := loadPaths(false)
	acked, err := driveLoad(remote, paths, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if acked[0] == 0 {
		t.Fatalf("writer 0 acknowledged nothing: %v", acked)
	}
	if lost, err := verifyLoad(remote, paths, acked); lost != 0 || err != nil {
		t.Fatalf("clean run: lost=%d err=%v, want 0 and nil", lost, err)
	}

	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Open(paths[0], fsapi.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pwrite(fd, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0); err != nil {
		t.Fatal(err)
	}
	c.Detach()
	lost, err := verifyLoad(remote, paths, acked)
	if lost != 1 || err == nil {
		t.Fatalf("after overwriting record 0: lost=%d err=%v, want 1 and an error", lost, err)
	}
}
