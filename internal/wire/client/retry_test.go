package client_test

import (
	"net"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// overloadServer speaks just enough of the wire protocol to answer every
// request in the first `refuse` batches with CodeOverload, then succeed.
func overloadServer(t *testing.T, refuse int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				fr := wire.NewFrameReader(conn)
				if k, _, err := fr.Next(); err != nil || k != wire.KindAttach {
					return
				}
				if err := wire.WriteFrame(conn, wire.KindAttachOK, []byte("stub")); err != nil {
					return
				}
				batches := 0
				for {
					k, payload, err := fr.Next()
					if err != nil || k != wire.KindBatch {
						return
					}
					reqs, err := wire.DecodeBatchInto(nil, payload)
					if err != nil {
						return
					}
					var out []byte
					for _, req := range reqs {
						resp := wire.Response{ID: req.ID, Op: req.Op}
						if batches < refuse {
							resp.Code = wire.CodeOverload
						}
						out = wire.AppendResponse(out, &resp)
					}
					batches++
					if err := wire.WriteFrame(conn, wire.KindReply, out); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestOverloadRetry: a call refused with CodeOverload is retried with
// backoff until the server accepts, invisibly to the caller.
func TestOverloadRetry(t *testing.T) {
	addr := overloadServer(t, 2)
	remote, err := client.Dial(addr, client.Options{
		OverloadBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/"); err != nil {
		t.Fatalf("stat after transient overload: %v", err)
	}
	if got := remote.Stats().OverloadRetries; got != 2 {
		t.Fatalf("OverloadRetries = %d, want 2", got)
	}
}

// TestOverloadRetryGivesUp: retries are bounded; a persistently overloaded
// server surfaces ErrOverload to the caller.
func TestOverloadRetryGivesUp(t *testing.T) {
	addr := overloadServer(t, 1<<30)
	remote, err := client.Dial(addr, client.Options{
		OverloadRetries: 2,
		OverloadBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Stat("/")
	if err == nil {
		t.Fatal("persistently overloaded call succeeded")
	}
	if got := remote.Stats().OverloadRetries; got != 2 {
		t.Fatalf("OverloadRetries = %d, want 2", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// serveWarm starts a real server and dials it with a warm pool and a
// short idle timeout.
func serveWarm(t *testing.T, warm int, idle time.Duration) *client.Remote {
	t.Helper()
	addr := overloadServer(t, 0)
	remote, err := client.Dial(addr, client.Options{Warm: warm, IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

// TestIdlePoolReaped: pre-dialed connections that sit unused past
// IdleTimeout are closed by the reaper and the pool shrinks.
func TestIdlePoolReaped(t *testing.T) {
	remote := serveWarm(t, 3, 40*time.Millisecond)
	if got := remote.PoolSize(); got != 3 {
		t.Fatalf("pool after warm dial = %d, want 3", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for remote.PoolSize() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never shrank (still %d)", remote.PoolSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := remote.Stats().IdleReaped; got != 3 {
		t.Fatalf("IdleReaped = %d, want 3", got)
	}
}
