package replica

import (
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/wire"
)

// cacheRig drives one session's replicated requests through a node the way
// its role receives them: a primary through Apply, a backup through the
// shipped log.
type cacheRig struct {
	n    *Node
	sess uint64
	do   func(req wire.Request) wire.Response
}

func newCacheRig(t *testing.T, role Role) *cacheRig {
	t.Helper()
	vol, err := core.Format(pmem.New(16<<20), fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nextID := uint32(0)
	if role == RolePrimary {
		n := NewPrimary(vol, Config{})
		t.Cleanup(func() { n.Close() })
		c, sess, _, err := n.AttachClient(fsapi.Root, 0xcafe)
		if err != nil {
			t.Fatal(err)
		}
		return &cacheRig{n: n, sess: sess, do: func(req wire.Request) wire.Response {
			nextID++
			req.ID = nextID
			resp, _ := n.Apply(sess, &req, 0, func() wire.Response { return wire.Execute(c, &req) })
			return resp
		}}
	}
	cfg := Config{}
	cfg.fillDefaults()
	n := newNode(cfg)
	n.fs = vol
	n.role.Store(int32(RoleBackup))
	const sess = 7
	seq := uint64(0)
	ship := func(e wire.Entry) {
		seq++
		e.Seq, e.Sess = seq, sess
		if err := n.applyEntries([]wire.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	ship(wire.Entry{Kind: wire.EntryAttach, Cred: fsapi.Root})
	return &cacheRig{n: n, sess: sess, do: func(req wire.Request) wire.Response {
		nextID++
		req.ID = nextID
		e := wire.Entry{Kind: wire.EntryOp, Req: req}
		if req.Op == wire.OpOpen {
			e.ResFD = 3 // the virtual descriptor the primary handed out
		}
		ship(e)
		return wire.Response{FD: e.ResFD}
	}}
}

// retained sums what the session's replay cache keeps alive and checks the
// cache's own account of it.
func (r *cacheRig) retained(t *testing.T) int {
	t.Helper()
	r.n.mu.Lock()
	sess := r.n.sessions[r.sess]
	r.n.mu.Unlock()
	sess.dmu.Lock()
	defer sess.dmu.Unlock()
	sum := 0
	for _, c := range sess.dedup {
		sum += cap(c.resp.Data)
	}
	if sum != sess.dedupBytes {
		t.Fatalf("cache retains %d bytes but accounts %d", sum, sess.dedupBytes)
	}
	return sum
}

// TestReplayCacheRetainsWhatItAccounts pins the replay cache's byte bound to
// the memory it actually keeps alive. A replicated read's response used to be
// a slice of a buffer as large as the client asked for: 4096 reads of MaxIO
// at end of file pinned 4 GiB per session while the cache accounted zero
// bytes, and varmail's 16 KiB reads into 64 KiB buffers quadrupled the bound.
func TestReplayCacheRetainsWhatItAccounts(t *testing.T) {
	for _, role := range []Role{RolePrimary, RoleBackup} {
		t.Run(role.String(), func(t *testing.T) {
			r := newCacheRig(t, role)
			fd := r.do(wire.Request{Op: wire.OpOpen, Path: "/f",
				Flags: uint32(fsapi.ORdwr | fsapi.OCreate), Perm: 0o644}).FD
			r.do(wire.Request{Op: wire.OpWrite, FD: fd, Data: make([]byte, 16<<10)})

			// The position is at end of file: every read returns nothing.
			for i := 0; i < maxDedupEntries+64; i++ {
				r.do(wire.Request{Op: wire.OpRead, FD: fd, Size: wire.MaxIO})
			}
			if got := r.retained(t); got != 0 {
				t.Fatalf("%d empty reads retain %d bytes", maxDedupEntries+64, got)
			}

			// Short reads into large buffers, enough of them to cross the
			// byte bound twice over.
			for i := 0; i < 2*maxDedupBytes/(16<<10); i++ {
				r.do(wire.Request{Op: wire.OpSeek, FD: fd})
				r.do(wire.Request{Op: wire.OpRead, FD: fd, Size: 64 << 10})
				if got := r.retained(t); got > maxDedupBytes {
					t.Fatalf("after %d short reads the cache retains %d bytes, bound %d", i+1, got, maxDedupBytes)
				}
			}
			if got := r.retained(t); got < maxDedupBytes/2 {
				t.Fatalf("cache retains %d bytes; the reads were not cached", got)
			}
		})
	}
}
