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
	remote, err := client.Dial(addr, client.Options{})
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
	remote, err := client.Dial(addr, client.Options{})
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
	if got := remote.Stats().OverloadRetries; got != client.OverloadRetries {
		t.Fatalf("OverloadRetries = %d, want %d", got, client.OverloadRetries)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}
