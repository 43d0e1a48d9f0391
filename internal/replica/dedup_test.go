package replica

import (
	"reflect"
	"testing"
	"unsafe"

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
	resFD := fsapi.FD(2)
	return &cacheRig{n: n, sess: sess, do: func(req wire.Request) wire.Response {
		nextID++
		req.ID = nextID
		e := wire.Entry{Kind: wire.EntryOp, Req: req}
		if req.Op == wire.OpOpen {
			resFD++
			e.ResFD = resFD // the virtual descriptor the primary handed out
		}
		ship(e)
		return wire.Response{FD: e.ResFD}
	}}
}

// session returns the rig's one session.
func (r *cacheRig) session() *session {
	r.n.mu.Lock()
	defer r.n.mu.Unlock()
	return r.n.sessions[r.sess]
}

// TestReplayCacheRetainsWhatItAccounts pins the replay cache's bound to what
// it keeps alive: dedupSlots slots of 48 bytes and nothing behind them. It
// used to be bounded in bytes as well, because a replicated read's response
// held the data read; reads no longer travel the log, and a slot has no room
// for data. What it has room for is all a replicated response carries: the
// cached answers are the originals. The slots are direct-mapped by request
// ID: the session's latest dedupSlots requests are answerable, the one before
// them is not.
func TestReplayCacheRetainsWhatItAccounts(t *testing.T) {
	for _, role := range []Role{RolePrimary, RoleBackup} {
		t.Run(role.String(), func(t *testing.T) {
			if size := unsafe.Sizeof(cachedResp{}); size != 48 {
				t.Fatalf("a replay-cache slot is %d bytes, want 48", size)
			}
			r := newCacheRig(t, role)
			fd := r.do(wire.Request{Op: wire.OpOpen, Path: "/f",
				Flags: uint32(fsapi.ORdwr | fsapi.OCreate | fsapi.OAppend), Perm: 0o644}).FD
			const last = 1 + dedupSlots + 64 // request IDs count from 1
			for id := 2; id <= last-2; id++ {
				r.do(wire.Request{Op: wire.OpPwrite, FD: fd, Off: uint64(id), Data: []byte{byte(id)}})
			}
			r.do(wire.Request{Op: wire.OpWrite, FD: fd, Data: make([]byte, 16<<10)})
			r.do(wire.Request{Op: wire.OpOpen, Path: "/f", Flags: uint32(fsapi.ORdonly)})
			sess := r.session()
			for id := uint32(1); id <= last; id++ {
				resp, seq, ok := sess.replayed(id)
				if want := id > last-dedupSlots; ok != want {
					t.Fatalf("request %d of %d: cached=%v, want %v", id, last, ok, want)
				}
				if !ok {
					continue
				}
				want := wire.Response{ID: id, Op: wire.OpPwrite, N: 1}
				switch id {
				case last - 1: // the append: where the file ended, after last-2 one-byte pwrites
					want = wire.Response{ID: id, Op: wire.OpWrite, N: 16 << 10, Off: last - 2 + 1 + 16<<10}
				case last:
					want = wire.Response{ID: id, Op: wire.OpOpen, FD: resp.FD}
					if resp.FD == fd || resp.FD <= 0 {
						t.Fatalf("cached open answers descriptor %d (the first open got %d)", resp.FD, fd)
					}
				}
				if !reflect.DeepEqual(resp, want) || seq == 0 {
					t.Fatalf("request %d: cached %+v at seq %d, want %+v", id, resp, seq, want)
				}
			}
		})
	}
}

// BenchmarkReplayCache is the cache's share of every replicated operation on
// both nodes: the lookup that misses, then the insert.
func BenchmarkReplayCache(b *testing.B) {
	s := newSession(1, fsapi.Root, nil)
	resp := wire.Response{ID: 1, Op: wire.OpPwrite, N: 4096}
	s.cacheResp(&resp, 1) // the slots are made on first use
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.ID = uint32(i) + 2
		if _, _, hit := s.replayed(resp.ID); hit {
			b.Fatalf("request %d answered before it was made", resp.ID)
		}
		s.cacheResp(&resp, uint64(resp.ID))
	}
}
