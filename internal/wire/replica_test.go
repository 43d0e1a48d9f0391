package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"simurgh/internal/fsapi"
)

// TestReplicatedClassification pins which operations enter the log. A
// change here changes what survives failover, so the table is explicit.
func TestReplicatedClassification(t *testing.T) {
	replicated := map[Op]bool{
		OpCreate: true, OpOpen: true, OpClose: true,
		OpWrite: true, OpPwrite: true,
		OpFtruncate: true, OpFallocate: true,
		OpMkdir: true, OpRmdir: true, OpUnlink: true, OpRename: true,
		OpSymlink: true, OpLink: true, OpChmod: true, OpUtimes: true,
		OpDetach: true,
		// Read-only: answered locally, never shipped.
		OpPread: false, OpFstat: false, OpStat: false, OpLstat: false,
		OpReadlink: false, OpReadDir: false,
		// Retired: positions and fsync are the client's; a server refuses them.
		OpRead: false, OpSeek: false, OpFsync: false,
	}
	for op := OpInvalid + 1; op < NumOps; op++ {
		want, listed := replicated[op]
		if !listed {
			t.Errorf("%v is not classified", op)
		}
		if got := op.Replicated(); got != want {
			t.Errorf("%v.Replicated() = %v, want %v", op, got, want)
		}
		if op.Retired() && op.Replicated() {
			t.Errorf("%v is retired and replicated", op)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	entries := []Entry{
		{Seq: 1, Sess: 42, Kind: EntryAttach, Cred: fsapi.Cred{UID: 1000, GID: 7}},
		{Seq: 2, Sess: 42, Kind: EntryOp, ResFD: 5,
			Req: Request{ID: 9, Op: OpCreate, Path: "/f", Perm: 0o644}},
		{Seq: 3, Sess: 42, Kind: EntryOp,
			Req: Request{ID: 10, Op: OpPwrite, FD: 5, Off: 1 << 33, Data: []byte("payload")}},
		{Seq: 4, Sess: 43, Kind: EntryOp,
			Req: Request{ID: 1, Op: OpRename, Path: "/f", Path2: "/g"}},
		{Seq: 5, Sess: 42, Kind: EntryPwrite,
			Req: Request{ID: 11, Op: OpPwrite, FD: 5, Off: 1 << 40, Data: []byte("compact")}},
	}
	var buf []byte
	for i := range entries {
		buf = AppendEntry(buf, &entries[i])
	}
	got, err := DecodeEntriesInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		want, have := entries[i], got[i]
		if have.Seq != want.Seq || have.Sess != want.Sess || have.Kind != want.Kind ||
			have.Cred != want.Cred || have.ResFD != want.ResFD {
			t.Errorf("entry %d header = %+v, want %+v", i, have, want)
		}
		if have.Req.Op != want.Req.Op || have.Req.ID != want.Req.ID ||
			have.Req.Path != want.Req.Path || have.Req.Path2 != want.Req.Path2 ||
			have.Req.Off != want.Req.Off || !bytes.Equal(have.Req.Data, want.Req.Data) {
			t.Errorf("entry %d request = %+v, want %+v", i, have.Req, want.Req)
		}
	}
}

// TestEntryPwriteCompact pins the point of the compact pwrite form: it
// must encode strictly smaller than the generic EntryOp form of the same
// request, decode back to a normal OpPwrite request (so apply paths need no
// special case), and alias the payload in DecodeEntriesInto mode.
func TestEntryPwriteCompact(t *testing.T) {
	req := Request{ID: 7, Op: OpPwrite, FD: 3, Off: 4096, Data: []byte("0123456789abcdef")}
	compact := AppendEntry(nil, &Entry{Seq: 1, Sess: 9, Kind: EntryPwrite, Req: req})
	generic := AppendEntry(nil, &Entry{Seq: 1, Sess: 9, Kind: EntryOp, Req: req})
	if len(compact) >= len(generic) {
		t.Fatalf("compact form is %d bytes, generic %d: no savings", len(compact), len(generic))
	}

	ents, err := DecodeEntriesInto(nil, compact)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("decoded %d entries, want 1", len(ents))
	}
	e := ents[0]
	if e.Kind != EntryPwrite || e.Req.Op != OpPwrite || e.Req.ID != req.ID ||
		e.Req.FD != req.FD || e.Req.Off != req.Off || !bytes.Equal(e.Req.Data, req.Data) {
		t.Fatalf("decoded %+v, want pwrite %+v", e, req)
	}
	copy(e.Req.Data, "ALIAS")
	if !bytes.Contains(compact, []byte("ALIAS56789abcdef")) {
		t.Fatalf("Data does not alias the payload")
	}
}

func TestEntryBadKind(t *testing.T) {
	e := Entry{Seq: 1, Sess: 1, Kind: EntryAttach}
	buf := AppendEntry(nil, &e)
	buf[16] = 99 // corrupt the kind byte
	if _, err := DecodeEntriesInto(nil, buf); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad kind decoded: err = %v", err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := Join{Epoch: 7, Addr: "10.0.0.2:9191"}
	got, err := ParseJoin(AppendJoin(nil, &j))
	if err != nil {
		t.Fatal(err)
	}
	if got != j {
		t.Fatalf("got %+v, want %+v", got, j)
	}
	bad := AppendJoin(nil, &j)
	bad[0] = 'X'
	if _, err := ParseJoin(bad); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestJoinOKRoundTrip(t *testing.T) {
	j := JoinOK{Epoch: 3, SnapSeq: 900, SnapSize: 1 << 28, Sessions: []SessionInfo{
		{Sess: 1, Cred: fsapi.Cred{UID: 0, GID: 0}},
		{Sess: 99, Cred: fsapi.Cred{UID: 1000, GID: 1000}, NextFD: 9, Open: []OpenFD{
			{FD: 5, Path: "/a/b", Flags: uint32(fsapi.ORdwr | fsapi.OAppend), Perm: 0o640},
			{FD: 3, Path: "/c"},
		}},
	}}
	got, err := ParseJoinOK(AppendJoinOK(nil, &j))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, j) {
		t.Fatalf("got %+v, want %+v", got, j)
	}

	// A forged session count must not drive allocation past the payload.
	forged := AppendJoinOK(nil, &JoinOK{Epoch: 1})
	forged[24] = 0xff
	forged[25] = 0xff
	if _, err := ParseJoinOK(forged); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("forged session count accepted: %v", err)
	}
	// Nor a forged open-table count: the session's count sits after its
	// id, credentials and next descriptor.
	forged = AppendJoinOK(nil, &JoinOK{Sessions: []SessionInfo{{Sess: 1}}})
	forged[28+20] = 0xff
	if _, err := ParseJoinOK(forged); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("forged open-table count accepted: %v", err)
	}
}

// FuzzJoinOK feeds arbitrary bytes to the join manifest's decoder. Whatever
// the input: no panic, no table larger than the input (every count is
// bounded by the bytes left, every path by MaxPath), and anything that
// decodes re-encodes to the same bytes.
func FuzzJoinOK(f *testing.F) {
	f.Add(AppendJoinOK(nil, &JoinOK{Epoch: 1, SnapSeq: 2, SnapSize: 3}))
	f.Add(AppendJoinOK(nil, &JoinOK{Epoch: 2, Sessions: []SessionInfo{
		{Sess: 7, Cred: fsapi.Root, NextFD: 6, Open: []OpenFD{{FD: 3, Path: "/f"}, {FD: 5, Path: "/g", Flags: 2, Perm: 0o644}}},
		{Sess: 8},
	}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ParseJoinOK(data)
		if err != nil {
			return
		}
		entries := len(j.Sessions)
		for _, si := range j.Sessions {
			entries += len(si.Open)
			for _, o := range si.Open {
				if len(o.Path) > MaxPath {
					t.Fatalf("path of %d bytes decoded", len(o.Path))
				}
			}
		}
		if entries > len(data) {
			t.Fatalf("%d manifest entries decoded from %d bytes", entries, len(data))
		}
		re := AppendJoinOK(nil, &j)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("re-encoded manifest differs from its input")
		}
	})
}

func TestSnapChunkRoundTrip(t *testing.T) {
	c := SnapChunk{Off: 1 << 30, Data: bytes.Repeat([]byte{0xab}, 4096)}
	got, err := ParseSnapChunk(AppendSnapChunk(nil, &c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Off != c.Off || !bytes.Equal(got.Data, c.Data) {
		t.Fatal("snap chunk mangled")
	}

	// The staged form — prefix ahead of the borrowed data — is the same frame.
	pre := AppendSnapChunkPrefix(nil, c.Off, len(c.Data))
	if len(pre) != SnapChunkPrefixSize {
		t.Fatalf("prefix is %d bytes, want %d", len(pre), SnapChunkPrefixSize)
	}
	var vw VecWriter
	var wireBuf bytes.Buffer
	vw.StagePrefixed(KindSnapChunk, pre, c.Data)
	if _, err := vw.Flush(&wireBuf); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := NewFrameReader(&wireBuf).Next()
	if err != nil || kind != KindSnapChunk {
		t.Fatalf("staged chunk read back as kind %d, %v", kind, err)
	}
	if !bytes.Equal(payload, AppendSnapChunk(nil, &c)) {
		t.Fatal("staged chunk differs from the encoded one")
	}
}

func TestHeartbeatAckRedirectRoundTrip(t *testing.T) {
	h := Heartbeat{Epoch: 2, Seq: 500, SentNs: 123456789}
	if got, err := ParseHeartbeat(AppendHeartbeat(nil, &h)); err != nil || got != h {
		t.Fatalf("heartbeat: got %+v, %v", got, err)
	}
	a := RepAck{Epoch: 2, Seq: 499}
	if got, err := ParseRepAck(AppendRepAck(nil, &a)); err != nil || got != a {
		t.Fatalf("repack: got %+v, %v", got, err)
	}
	r := Redirect{Epoch: 4, Addr: "127.0.0.1:9190"}
	if got, err := ParseRedirect(AppendRedirect(nil, &r)); err != nil || got != r {
		t.Fatalf("redirect: got %+v, %v", got, err)
	}
	// Empty address is legal: "no primary known".
	r = Redirect{Epoch: 0}
	if got, err := ParseRedirect(AppendRedirect(nil, &r)); err != nil || got != r {
		t.Fatalf("empty redirect: got %+v, %v", got, err)
	}
}
