package replica

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
)

// fakePrimary poses as a primary on a bare listener: it answers one join
// with jo and chunks, then either hangs up (hangUp) or waits for the backup
// to.
func fakePrimary(t *testing.T, jo wire.JoinOK, chunks []wire.SnapChunk, hangUp bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if kind, _, err := wire.NewFrameReader(conn).Next(); err != nil || kind != wire.KindJoin {
			return
		}
		wire.WriteFrame(conn, wire.KindJoinOK, wire.AppendJoinOK(nil, &jo))
		for i := range chunks {
			wire.WriteFrame(conn, wire.KindSnapChunk, wire.AppendSnapChunk(nil, &chunks[i]))
		}
		if !hangUp {
			io.Copy(io.Discard, conn)
		}
	}()
	return ln.Addr().String()
}

// joinFake runs one followPrimary against addr with a Restore that fails
// the test if it is ever reached.
func joinFake(t *testing.T, addr string) error {
	t.Helper()
	cfg := Config{PrimaryAddr: addr, Restore: func([]byte) (fsapi.FileSystem, error) {
		t.Error("a malformed snapshot reached Restore")
		return nil, errors.New("unreachable")
	}}
	cfg.fillDefaults()
	n := newNode(cfg)
	var lastContact time.Time
	return n.followPrimary(&lastContact)
}

// TestJoinRejectsHugeSnapSize: a SnapSize past the address space must not
// size an allocation. The backup waits for chunks that never come and
// returns the hang-up as an error.
func TestJoinRejectsHugeSnapSize(t *testing.T) {
	addr := fakePrimary(t, wire.JoinOK{Epoch: 1, SnapSize: 1 << 62}, nil, true)
	if err := joinFake(t, addr); err == nil {
		t.Fatal("join with a 2^62-byte snapshot and no chunks succeeded")
	}
}

// TestJoinRejectsOverlongChunk: a chunk that carries the image past
// SnapSize is a protocol error, answered before anything is restored.
func TestJoinRejectsOverlongChunk(t *testing.T) {
	chunks := []wire.SnapChunk{
		{Off: 0, Data: make([]byte, 60)},
		{Off: 60, Data: make([]byte, 60)},
	}
	addr := fakePrimary(t, wire.JoinOK{Epoch: 1, SnapSize: 100}, chunks, false)
	if err := joinFake(t, addr); !errors.Is(err, wire.ErrBadMessage) {
		t.Fatalf("over-long chunk: err = %v, want ErrBadMessage", err)
	}
}
