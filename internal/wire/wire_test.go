package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"simurgh/internal/fsapi"
)

// sampleRequests covers every request shape once.
func sampleRequests() []Request {
	return []Request{
		{ID: 1, Op: OpCreate, Path: "/a/b", Perm: 0o644},
		{ID: 2, Op: OpOpen, Path: "/f", Flags: uint32(fsapi.OCreate | fsapi.ORdwr), Perm: 0o600},
		{ID: 3, Op: OpClose, FD: 7},
		{ID: 4, Op: OpRead, FD: 7, Size: 4096},
		{ID: 5, Op: OpPread, FD: 7, Size: 512, Off: 1 << 40},
		{ID: 6, Op: OpWrite, FD: 7, Data: []byte("payload")},
		{ID: 7, Op: OpPwrite, FD: 7, Off: 12345, Data: bytes.Repeat([]byte{0xAB}, 1000)},
		{ID: 8, Op: OpSeek, FD: 7, Off: ^uint64(15), Flags: fsapi.SeekEnd},
		{ID: 9, Op: OpFsync, FD: 7},
		{ID: 10, Op: OpFtruncate, FD: 7, Off: 100},
		{ID: 11, Op: OpFallocate, FD: 7, Off: 1 << 20},
		{ID: 12, Op: OpFstat, FD: 7},
		{ID: 13, Op: OpStat, Path: "/s"},
		{ID: 14, Op: OpLstat, Path: "/l"},
		{ID: 15, Op: OpMkdir, Path: "/d", Perm: 0o755},
		{ID: 16, Op: OpRmdir, Path: "/d"},
		{ID: 17, Op: OpUnlink, Path: "/u"},
		{ID: 18, Op: OpRename, Path: "/old", Path2: "/new"},
		{ID: 19, Op: OpSymlink, Path: "/target", Path2: "/link"},
		{ID: 20, Op: OpLink, Path: "/o", Path2: "/n"},
		{ID: 21, Op: OpReadlink, Path: "/link"},
		{ID: 22, Op: OpReadDir, Path: "/"},
		{ID: 23, Op: OpChmod, Path: "/c", Perm: 0o400},
		{ID: 24, Op: OpUtimes, Path: "/t", Off: ^uint64(4), Off2: 99},
		{ID: 25, Op: OpDetach},
		{ID: 26, Op: OpWrite, FD: 1}, // empty write
	}
}

// sampleResponses covers every response shape, success and error.
func sampleResponses() []Response {
	st := fsapi.Stat{
		Ino: 0xdeadbeef, Mode: fsapi.ModeRegular | 0o644, UID: 10, GID: 20,
		Nlink: 2, Size: 4096, Atime: -1, Mtime: 2, Ctime: 3,
	}
	return []Response{
		{ID: 1, Op: OpCreate, FD: 3},
		{ID: 2, Op: OpOpen, FD: 4},
		{ID: 3, Op: OpClose},
		{ID: 4, Op: OpRead, Data: []byte("read me")},
		{ID: 5, Op: OpPread, Data: nil},
		{ID: 6, Op: OpWrite, N: 7, Off: 1<<40 + 7}, // where an append left the descriptor
		{ID: 7, Op: OpPwrite, N: 1000},
		{ID: 8, Op: OpSeek, Code: CodeInval}, // retired: all a server answers it
		{ID: 12, Op: OpFstat, Stat: st},
		{ID: 13, Op: OpStat, Stat: st},
		{ID: 14, Op: OpLstat, Stat: st},
		{ID: 21, Op: OpReadlink, Str: "/target"},
		{ID: 22, Op: OpReadDir, Dir: []fsapi.DirEntry{
			{Name: "a", Ino: 1, Mode: fsapi.ModeDir | 0o755},
			{Name: strings.Repeat("n", fsapi.MaxNameLen), Ino: 2, Mode: fsapi.ModeRegular},
		}},
		{ID: 23, Op: OpChmod},
		{ID: 30, Op: OpOpen, Code: CodeNotExist},
		{ID: 31, Op: OpOpen, Code: CodePerm, Msg: "fs: permission denied (need 4, have 0)"},
		{ID: 32, Op: OpStat, Code: CodeOther, Msg: "backend exploded"},
		{ID: 33, Op: OpStat, Code: CodeOverload},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	var buf []byte
	for _, want := range sampleRequests() {
		buf = AppendRequest(buf, &want)
	}
	decoded, err := DecodeBatchInto(nil, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != len(sampleRequests()) {
		t.Fatalf("decoded %d requests, want %d", len(decoded), len(sampleRequests()))
	}
	for i, want := range sampleRequests() {
		got := decoded[i]
		if got.ID != want.ID || got.Op != want.Op || got.FD != want.FD ||
			got.Flags != want.Flags || got.Perm != want.Perm ||
			got.Off != want.Off || got.Off2 != want.Off2 || got.Size != want.Size ||
			got.Path != want.Path || got.Path2 != want.Path2 ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range sampleResponses() {
		buf := AppendResponse(nil, &want)
		got, rest, err := DecodeResponseInto(buf, nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", want.Op, len(rest))
		}
		if got.ID != want.ID || got.Op != want.Op || got.Code != want.Code {
			t.Fatalf("%v: header mismatch: got %+v want %+v", want.Op, got, want)
		}
		if want.Code != CodeOK {
			continue // body is not encoded on errors
		}
		if got.FD != want.FD || got.N != want.N || got.Off != want.Off ||
			got.Stat != want.Stat || got.Str != want.Str ||
			!bytes.Equal(got.Data, want.Data) || len(got.Dir) != len(want.Dir) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
		for i := range want.Dir {
			if got.Dir[i] != want.Dir[i] {
				t.Fatalf("dir entry %d: got %+v want %+v", i, got.Dir[i], want.Dir[i])
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	reqs := sampleRequests()
	var payload []byte
	for i := range reqs {
		payload = AppendRequest(payload, &reqs[i])
	}
	got, err := DecodeBatchInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].ID != reqs[i].ID || got[i].Op != reqs[i].Op {
			t.Fatalf("request %d: got %+v want %+v", i, got[i], reqs[i])
		}
	}

	resps := sampleResponses()
	payload = payload[:0]
	for i := range resps {
		payload = AppendResponse(payload, &resps[i])
	}
	var gotR []Response
	for rest := payload; len(rest) > 0; {
		var r Response
		var err error
		if r, rest, err = DecodeResponseInto(rest, nil); err != nil {
			t.Fatal(err)
		}
		gotR = append(gotR, r)
	}
	if len(gotR) != len(resps) {
		t.Fatalf("decoded %d responses, want %d", len(gotR), len(resps))
	}
}

func TestErrCodeRoundTrip(t *testing.T) {
	all := []error{
		fsapi.ErrNotExist, fsapi.ErrExist, fsapi.ErrNotDir, fsapi.ErrIsDir,
		fsapi.ErrNotEmpty, fsapi.ErrPerm, fsapi.ErrBadFD, fsapi.ErrNameTooLong,
		fsapi.ErrNoSpace, fsapi.ErrInval, fsapi.ErrLoop, fsapi.ErrCrossDir,
		fsapi.ErrReadOnly, fsapi.ErrWriteOnly, ErrOverload, ErrShutdown,
	}
	for _, sentinel := range all {
		code := CodeOf(sentinel)
		if code == CodeOK || code == CodeOther {
			t.Fatalf("%v mapped to %d", sentinel, code)
		}
		back := code.Wrap(MsgFor(code, sentinel))
		if !errors.Is(back, sentinel) {
			t.Fatalf("round trip of %v lost identity: %v", sentinel, back)
		}
		if back.Error() != sentinel.Error() {
			t.Fatalf("round trip of %v changed message: %q", sentinel, back.Error())
		}
		// Wrapped variants (as CheckPerm produces) keep both the detail
		// message and the sentinel identity.
		wrapped := fmt.Errorf("%w (extra context)", sentinel)
		code = CodeOf(wrapped)
		back = code.Wrap(MsgFor(code, wrapped))
		if !errors.Is(back, sentinel) {
			t.Fatalf("wrapped round trip of %v lost identity: %v", sentinel, back)
		}
		if back.Error() != wrapped.Error() {
			t.Fatalf("wrapped round trip of %v lost message: %q", sentinel, back.Error())
		}
	}
	if CodeOf(nil) != CodeOK {
		t.Fatal("CodeOf(nil) != CodeOK")
	}
	if CodeOf(errors.New("novel")) != CodeOther {
		t.Fatal("unknown error did not map to CodeOther")
	}
	if err := CodeOther.Wrap("novel"); err == nil || err.Error() != "novel" {
		t.Fatalf("CodeOther.Wrap = %v", err)
	}
}

func TestAttachRoundTrip(t *testing.T) {
	cred := fsapi.Cred{UID: 1000, GID: 2000}
	claim := &AttachClaim{Shard: 7, Epoch: 42}
	for _, tc := range []struct {
		name     string
		clientID uint64
		claim    *AttachClaim
		size     int
	}{
		{"bare", 0, nil, 13},
		{"client ID", 0xfeedbeef, nil, 21},
		{"claim without client ID", 0, claim, 21 + attachClaimSize},
		{"claim", 0xfeedbeef, claim, 21 + attachClaimSize},
	} {
		payload := AppendAttach(nil, cred, tc.clientID, tc.claim)
		if len(payload) != tc.size {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(payload), tc.size)
		}
		got, id, gotClaim, claimed, err := ParseAttachClaim(payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != cred || id != tc.clientID || claimed != (tc.claim != nil) {
			t.Fatalf("%s: got (%+v, %#x, claimed=%v)", tc.name, got, id, claimed)
		}
		if tc.claim != nil && gotClaim != *tc.claim {
			t.Fatalf("%s: claim %+v, want %+v", tc.name, gotClaim, *tc.claim)
		}
		bad := append([]byte(nil), payload...)
		bad[0] = 'X'
		if _, _, _, _, err := ParseAttachClaim(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: bad magic err = %v", tc.name, err)
		}
		bad = append([]byte(nil), payload...)
		bad[4] = Version + 1
		if _, _, _, _, err := ParseAttachClaim(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: bad version err = %v", tc.name, err)
		}
	}
	// The unclaimed form is byte for byte the pre-claim handshake: magic,
	// version, uid, gid and, when there is one, the client ID.
	want := []byte{'S', 'M', 'G', 'H', Version, 0xe8, 0x03, 0, 0, 0xd0, 0x07, 0, 0}
	if got := AppendAttach(nil, cred, 0, nil); !bytes.Equal(got, want) {
		t.Fatalf("unclaimed attach = % x, want % x", got, want)
	}
	want = append(want, 0xef, 0xbe, 0xed, 0xfe, 0, 0, 0, 0)
	if got := AppendAttach(nil, cred, 0xfeedbeef, nil); !bytes.Equal(got, want) {
		t.Fatalf("unclaimed attach with client ID = % x, want % x", got, want)
	}
}

func TestErrFrameRoundTrip(t *testing.T) {
	payload := AppendErrFrame(nil, ErrOverload)
	err := ParseErrFrame(payload)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{1}, 100000)}
	kinds := []Kind{KindBatch, KindAttachOK, KindReply}
	for i := range payloads {
		if err := WriteFrame(&buf, kinds[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	for i := range payloads {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind != kinds[i] || !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("frame %d: kind %d len %d", i, kind, len(payload))
		}
	}
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("expected EOF")
	}
	if err := WriteFrame(&buf, KindBatch, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame err = %v", err)
	}
}

// countingWriter counts the Write calls made on it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite pins a frame to one Write: on a socket each
// Write is a syscall and a wakeup of the peer's reader.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("a replication ack's sixteen bytes")} {
		var w countingWriter
		if err := WriteFrame(&w, KindRepAck, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte payload: %d Write calls, want 1", len(payload), w.writes)
		}
		kind, got, err := NewFrameReader(&w.Buffer).Next()
		if err != nil || kind != KindRepAck || !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload read back as kind %d, % x, %v", len(payload), kind, got, err)
		}
	}
}

func TestDecodeRejectsOversize(t *testing.T) {
	// Read size beyond MaxIO.
	req := Request{ID: 1, Op: OpRead, FD: 1, Size: MaxIO + 1}
	if _, err := DecodeBatchInto(nil, AppendRequest(nil, &req)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize read size err = %v", err)
	}
	// Truncated write payload: claims more bytes than present.
	b := appendU32(nil, 9)
	b = append(b, byte(OpWrite))
	b = appendU32(b, 1)          // fd
	b = appendU32(b, 1<<30)      // claimed data length
	b = append(b, 'x', 'y', 'z') // only 3 bytes present
	if _, err := DecodeBatchInto(nil, b); err == nil {
		t.Fatal("decode of over-claiming write succeeded")
	}
	// Batch with too many ops.
	one := AppendRequest(nil, &Request{ID: 1, Op: OpDetach})
	big := bytes.Repeat(one, MaxBatch+1)
	if _, err := DecodeBatchInto(nil, big); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize batch err = %v", err)
	}
	// ReadDir entry count beyond payload.
	r := appendU32(nil, 22)
	r = append(r, byte(OpReadDir), byte(CodeOK))
	r = appendU32(r, 1<<30) // claimed entry count
	if _, _, err := DecodeResponseInto(r, nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("over-claiming readdir err = %v", err)
	}
}

// TestDecodedDataDoesNotAliasInput: outside the alias decoders, what a
// decoder returns is a copy, safe to keep after the frame is reused — a
// read's data, and the paths a backup keeps from its join manifest.
func TestDecodedDataDoesNotAliasInput(t *testing.T) {
	buf := AppendResponse(nil, &Response{ID: 1, Op: OpPread, N: 8, Data: []byte("aliased?")})
	got, _, err := DecodeResponseInto(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	jo := AppendJoinOK(nil, &JoinOK{Sessions: []SessionInfo{{Sess: 1, Open: []OpenFD{{FD: 3, Path: "/aliased?"}}}}})
	manifest, err := ParseJoinOK(jo)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{buf, jo} {
		for i := range b {
			b[i] = 0xFF
		}
	}
	if string(got.Data) != "aliased?" {
		t.Fatalf("decoded data aliases input buffer: %q", got.Data)
	}
	if p := manifest.Sessions[0].Open[0].Path; p != "/aliased?" {
		t.Fatalf("manifest path aliases input buffer: %q", p)
	}
}
