// Package wire defines Simurgh's client/server network protocol: a compact
// length-prefixed binary codec for every fsapi.Client operation, plus batch
// frames that carry many operations per network round trip (AnyCall-style
// call aggregation — one boundary crossing amortized over N small calls).
//
// Framing: every message on the wire is one frame,
//
//	u32 LE length | u8 kind | payload (length covers kind + payload)
//
// A connection starts with one KindAttach frame (magic, protocol version,
// credentials); the server answers KindAttachOK or KindErr and the
// connection then carries only KindBatch frames from the client and
// KindReply frames from the server. A batch payload is a concatenation of
// encoded requests; a reply payload is a concatenation of encoded
// responses. Requests carry a connection-unique ID that the matching
// response echoes, so replies may be matched out of order and multiple
// batches may be pipelined on one connection.
//
// Decoding is hardened for untrusted input: every length field is validated
// against both a protocol limit and the bytes actually remaining, so
// arbitrary bytes can never cause a panic or an allocation larger than the
// input itself (see FuzzWireDecode).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"unsafe"

	"simurgh/internal/fsapi"
)

// Protocol limits. Decoders reject anything beyond them; clients split or
// refuse oversized requests before they reach the wire.
const (
	// MaxFrame bounds one frame's kind+payload length.
	MaxFrame = 4 << 20
	// MaxIO bounds a single read or write payload; the client chunks
	// larger fsapi reads and writes into MaxIO pieces.
	MaxIO = 1 << 20
	// MaxBatch bounds the number of operations in one batch frame.
	MaxBatch = 4096
	// MaxPath bounds an encoded path, symlink target, or error message.
	MaxPath = 4096
)

// Version is the protocol version carried in the attach handshake.
const Version = 1

// magic opens the attach frame and identifies a Simurgh wire connection.
var magic = [4]byte{'S', 'M', 'G', 'H'}

// Kind discriminates frame types.
type Kind uint8

const (
	// KindAttach is the client's handshake: magic, version, credentials.
	KindAttach Kind = 1
	// KindAttachOK accepts the handshake; payload is the server FS name.
	KindAttachOK Kind = 2
	// KindBatch carries 1..MaxBatch encoded requests.
	KindBatch Kind = 3
	// KindReply carries the responses of one batch.
	KindReply Kind = 4
	// KindErr reports a connection-level failure (bad handshake, protocol
	// error, overload at accept); payload is an error code and message.
	KindErr Kind = 5

	// Replication kinds (see replica.go). A backup opens its link with
	// KindJoin instead of KindAttach; the primary answers KindJoinOK, streams
	// the volume snapshot as KindSnapChunk frames, then ships log entries in
	// KindReplicate frames which the backup acknowledges with KindRepAck.
	// KindHeartbeat flows primary→backup and is echoed back for RTT and
	// liveness. A server that is not the primary answers client attaches
	// with KindRedirect carrying the primary's address. KindPromote is the
	// admin handshake that promotes a backup explicitly.
	KindJoin      Kind = 6
	KindJoinOK    Kind = 7
	KindSnapChunk Kind = 8
	KindReplicate Kind = 9
	KindRepAck    Kind = 10
	KindHeartbeat Kind = 11
	KindRedirect  Kind = 12
	KindPromote   Kind = 13
	KindPromoteOK Kind = 14

	// Traced variants carry a distributed trace context (TraceCtxSize bytes)
	// before the regular payload. KindBatchTraced is KindBatch for a sampled
	// client batch; KindReplicateTraced is KindReplicate for a shipper drain
	// containing at least one traced entry. Making "sampled" a frame kind
	// instead of a header field keeps the unsampled wire format byte-
	// identical to the untraced protocol, so the common path pays nothing.
	KindBatchTraced     Kind = 15
	KindReplicateTraced Kind = 16

	// Sharding kinds (see shard.go). KindMapGet asks any node for the shard
	// map it serves (payload: the epoch the client already holds); the node
	// answers KindMapOK with the encoded map, or an empty payload when the
	// client is already current. KindMapSet pushes a new map to a node (the
	// migration coordinator's install frame), answered with KindMapOK after
	// the node has fenced and drained any shards it lost. KindMoved answers
	// an attach whose shard claim this node does not serve — the shard-map
	// generalization of KindRedirect, naming a current owner address and the
	// map epoch that says so.
	KindMapGet Kind = 17
	KindMapOK  Kind = 18
	KindMoved  Kind = 19
	KindMapSet Kind = 20
)

// TraceCtxSize is the length of the trace context prefix carried by traced
// frame kinds: one u64 LE trace ID. The ID is node-namespaced (high 16 bits
// drawn randomly per client session, low 48 a session counter), so
// independently-sampled batches collide only with ~2^-16 probability per
// counter value; the sampled flag is implicit in the frame kind.
const TraceCtxSize = 8

// SplitTraceCtx splits a traced frame's payload into its trace ID and the
// regular payload that follows.
func SplitTraceCtx(payload []byte) (uint64, []byte, error) {
	if len(payload) < TraceCtxSize {
		return 0, nil, fmt.Errorf("%w: traced frame shorter than trace context", ErrTruncated)
	}
	return binary.LittleEndian.Uint64(payload), payload[TraceCtxSize:], nil
}

// Op identifies one fsapi.Client operation on the wire. Zero is invalid so
// that an all-zero buffer never decodes as a request. OpRead, OpSeek and
// OpFsync are retired (see Retired): their numbers stay reserved so the
// enum keeps its one-to-one alignment with obs.Op.
type Op uint8

const (
	OpInvalid Op = iota
	OpCreate
	OpOpen
	OpClose
	OpRead
	OpPread
	OpWrite
	OpPwrite
	OpSeek
	OpFsync
	OpFtruncate
	OpFallocate
	OpFstat
	OpStat
	OpLstat
	OpMkdir
	OpRmdir
	OpUnlink
	OpRename
	OpSymlink
	OpLink
	OpReadlink
	OpReadDir
	OpChmod
	OpUtimes
	OpDetach
	// NumOps bounds the Op enum.
	NumOps
)

var opNames = [NumOps]string{
	OpInvalid: "invalid", OpCreate: "create", OpOpen: "open", OpClose: "close",
	OpRead: "read", OpPread: "pread", OpWrite: "write", OpPwrite: "pwrite",
	OpSeek: "seek", OpFsync: "fsync", OpFtruncate: "ftruncate",
	OpFallocate: "fallocate", OpFstat: "fstat", OpStat: "stat",
	OpLstat: "lstat", OpMkdir: "mkdir", OpRmdir: "rmdir", OpUnlink: "unlink",
	OpRename: "rename", OpSymlink: "symlink", OpLink: "link",
	OpReadlink: "readlink", OpReadDir: "readdir", OpChmod: "chmod",
	OpUtimes: "utimes", OpDetach: "detach",
}

// String returns the operation name.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "unknown"
}

// Retired reports the operations that stopped crossing the wire when the
// open-file table moved into the client process: a position is the client's
// own bookkeeping (a read is a pread at it, a seek is arithmetic on it) and
// fsync has nothing to wait for, every write being persistent and quorum
// covered before it is acknowledged. The requests still decode; a server
// answers them ErrInval.
func (o Op) Retired() bool { return o == OpRead || o == OpSeek || o == OpFsync }

// Codec-level errors (distinct from the file-system errors carried inside
// responses).
var (
	// ErrFrameTooLarge reports a frame beyond MaxFrame (or an encoded
	// message that would not fit one).
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrTruncated reports a message shorter than its own length fields
	// claim.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrBadMessage reports a structurally invalid message (unknown op,
	// limit violation, bad magic).
	ErrBadMessage = errors.New("wire: malformed message")
	// ErrVersion reports a protocol version mismatch in the handshake.
	ErrVersion = errors.New("wire: protocol version mismatch")
)

// Request is one decoded operation request. Field use depends on Op:
// Path/Path2 carry paths (old/new, target/link), Off carries offsets,
// sizes, atime or the seek offset (int64 bits), Off2 carries mtime, Flags
// carries open flags or the seek whence, Size is the requested read length,
// and Data is the write payload.
type Request struct {
	ID    uint32
	Op    Op
	FD    fsapi.FD
	Flags uint32
	Perm  uint32
	Off   uint64
	Off2  uint64
	Size  uint32
	Path  string
	Path2 string
	Data  []byte
}

// Response is one decoded operation response. Op echoes the request's
// operation so responses decode without request context. Code is zero on
// success; Msg carries a server error detail only when it adds information
// over the code's canonical text.
type Response struct {
	ID   uint32
	Op   Op
	Code ErrCode
	Msg  string
	FD   fsapi.FD
	N    uint32
	Off  int64
	Stat fsapi.Stat
	Str  string
	Data []byte
	Dir  []fsapi.DirEntry
}

// Err returns the response's file-system error, or nil on success.
func (r *Response) Err() error {
	if r.Code == CodeOK {
		return nil
	}
	return r.Code.Wrap(r.Msg)
}

// --- append/consume primitives -----------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendStr encodes a length-prefixed short string (u16 length).
func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendBytes encodes a length-prefixed byte payload (u32 length).
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// reader consumes a message buffer; the first failed read poisons it so
// call sites can check err once at the end. In alias mode, strings and
// payloads reference the input buffer instead of copying — the zero-alloc
// decode used by the server's request path, where the frame buffer outlives
// every decoded request by construction (a connection reads its next frame
// only after the batch has replied, see server docs).
type reader struct {
	b     []byte
	err   error
	alias bool
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads a u32 element count and checks it against the bytes left at
// minSize bytes an element, so a hostile count cannot size an allocation.
func (r *reader) count(minSize int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/minSize {
		r.fail(fmt.Errorf("%w: count %d beyond payload", ErrBadMessage, n))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// str reads a u16-length-prefixed string of at most max bytes. Outside
// alias mode the string conversion copies, so the result does not alias the
// frame buffer; in alias mode it views the input directly.
func (r *reader) str(max int) string {
	n := int(r.u16())
	if r.err != nil {
		return ""
	}
	if n > max {
		r.fail(fmt.Errorf("%w: string length %d > %d", ErrBadMessage, n, max))
		return ""
	}
	if n > len(r.b) {
		r.fail(ErrTruncated)
		return ""
	}
	if n == 0 {
		return ""
	}
	var s string
	if r.alias {
		s = unsafe.String(&r.b[0], n)
	} else {
		s = string(r.b[:n])
	}
	r.b = r.b[n:]
	return s
}

// bytes reads a u32-length-prefixed payload of at most max bytes: a view of
// the input in alias mode, a fresh copy otherwise (frames are reused; decoded
// messages must not alias them).
func (r *reader) bytes(max int) []byte { return r.payload(max, nil, r.alias) }

// payload is bytes with the placement chosen per call: with alias set the
// result is a capacity-clipped sub-slice of the input; otherwise the bytes
// are copied, into dst when it has the capacity (a client landing a read in
// the caller's buffer) and into a fresh slice when it has not.
func (r *reader) payload(max int, dst []byte, alias bool) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail(fmt.Errorf("%w: payload length %d > %d", ErrBadMessage, n, max))
		return nil
	}
	if n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	var out []byte
	switch {
	case alias:
		out = r.b[:n:n]
	case cap(dst) >= n:
		out = dst[:n]
		copy(out, r.b)
	default:
		out = make([]byte, n)
		copy(out, r.b)
	}
	r.b = r.b[n:]
	return out
}

// --- request codec ------------------------------------------------------

// AppendRequest encodes r onto dst and returns the extended slice. The
// caller is responsible for field limits (the client validates paths and
// chunks I/O before encoding).
func AppendRequest(dst []byte, r *Request) []byte {
	dst = appendU32(dst, r.ID)
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpCreate:
		dst = appendStr(dst, r.Path)
		dst = appendU32(dst, r.Perm)
	case OpOpen:
		dst = appendStr(dst, r.Path)
		dst = appendU32(dst, r.Flags)
		dst = appendU32(dst, r.Perm)
	case OpClose, OpFsync, OpFstat:
		dst = appendU32(dst, uint32(r.FD))
	case OpRead:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendU32(dst, r.Size)
	case OpPread:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendU32(dst, r.Size)
		dst = appendU64(dst, r.Off)
	case OpWrite:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendBytes(dst, r.Data)
	case OpPwrite:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendU64(dst, r.Off)
		dst = appendBytes(dst, r.Data)
	case OpSeek:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendU64(dst, r.Off)
		dst = appendU32(dst, r.Flags)
	case OpFtruncate, OpFallocate:
		dst = appendU32(dst, uint32(r.FD))
		dst = appendU64(dst, r.Off)
	case OpStat, OpLstat, OpRmdir, OpUnlink, OpReadlink, OpReadDir:
		dst = appendStr(dst, r.Path)
	case OpMkdir, OpChmod:
		dst = appendStr(dst, r.Path)
		dst = appendU32(dst, r.Perm)
	case OpRename, OpSymlink, OpLink:
		dst = appendStr(dst, r.Path)
		dst = appendStr(dst, r.Path2)
	case OpUtimes:
		dst = appendStr(dst, r.Path)
		dst = appendU64(dst, r.Off)
		dst = appendU64(dst, r.Off2)
	case OpDetach:
	}
	return dst
}

func decodeRequest(rd *reader) (Request, error) {
	var r Request
	r.ID = rd.u32()
	r.Op = Op(rd.u8())
	if rd.err == nil && (r.Op == OpInvalid || r.Op >= NumOps) {
		return Request{}, fmt.Errorf("%w: bad op %d", ErrBadMessage, r.Op)
	}
	switch r.Op {
	case OpCreate:
		r.Path = rd.str(MaxPath)
		r.Perm = rd.u32()
	case OpOpen:
		r.Path = rd.str(MaxPath)
		r.Flags = rd.u32()
		r.Perm = rd.u32()
	case OpClose, OpFsync, OpFstat:
		r.FD = fsapi.FD(rd.u32())
	case OpRead:
		r.FD = fsapi.FD(rd.u32())
		r.Size = rd.u32()
	case OpPread:
		r.FD = fsapi.FD(rd.u32())
		r.Size = rd.u32()
		r.Off = rd.u64()
	case OpWrite:
		r.FD = fsapi.FD(rd.u32())
		r.Data = rd.bytes(MaxIO)
	case OpPwrite:
		r.FD = fsapi.FD(rd.u32())
		r.Off = rd.u64()
		r.Data = rd.bytes(MaxIO)
	case OpSeek:
		r.FD = fsapi.FD(rd.u32())
		r.Off = rd.u64()
		r.Flags = rd.u32()
	case OpFtruncate, OpFallocate:
		r.FD = fsapi.FD(rd.u32())
		r.Off = rd.u64()
	case OpStat, OpLstat, OpRmdir, OpUnlink, OpReadlink, OpReadDir:
		r.Path = rd.str(MaxPath)
	case OpMkdir, OpChmod:
		r.Path = rd.str(MaxPath)
		r.Perm = rd.u32()
	case OpRename, OpSymlink, OpLink:
		r.Path = rd.str(MaxPath)
		r.Path2 = rd.str(MaxPath)
	case OpUtimes:
		r.Path = rd.str(MaxPath)
		r.Off = rd.u64()
		r.Off2 = rd.u64()
	case OpDetach:
	}
	if rd.err != nil {
		return Request{}, rd.err
	}
	if r.Size > MaxIO {
		return Request{}, fmt.Errorf("%w: read size %d > %d", ErrBadMessage, r.Size, MaxIO)
	}
	return r, nil
}

// DecodeBatchInto decodes a KindBatch payload (at most MaxBatch requests)
// without allocating: it appends the decoded requests to dst (reusing its
// capacity) and every Path, Path2, and Data field ALIASES payload. The
// caller owns payload and must keep it untouched until the last decoded
// request is retired — the server does this by reading a connection's next
// frame only after the batch's reply is written. dst (possibly extended) is
// returned even on error so its capacity is never lost.
func DecodeBatchInto(dst []Request, payload []byte) ([]Request, error) {
	rd := reader{b: payload, alias: true}
	for len(rd.b) > 0 {
		if len(dst) >= MaxBatch {
			return dst, fmt.Errorf("%w: batch exceeds %d ops", ErrBadMessage, MaxBatch)
		}
		r, err := decodeRequest(&rd)
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// --- response codec -----------------------------------------------------

func appendStat(dst []byte, st *fsapi.Stat) []byte {
	dst = appendU64(dst, st.Ino)
	dst = appendU32(dst, st.Mode)
	dst = appendU32(dst, st.UID)
	dst = appendU32(dst, st.GID)
	dst = appendU32(dst, st.Nlink)
	dst = appendU64(dst, st.Size)
	dst = appendU64(dst, uint64(st.Atime))
	dst = appendU64(dst, uint64(st.Mtime))
	dst = appendU64(dst, uint64(st.Ctime))
	return dst
}

func (r *reader) stat() fsapi.Stat {
	return fsapi.Stat{
		Ino: r.u64(), Mode: r.u32(), UID: r.u32(), GID: r.u32(),
		Nlink: r.u32(), Size: r.u64(),
		Atime: int64(r.u64()), Mtime: int64(r.u64()), Ctime: int64(r.u64()),
	}
}

// dirEntryMinSize is the smallest encoded directory entry (empty name):
// u16 name length + u64 ino + u32 mode. Decoders bound entry-count
// allocations with it.
const dirEntryMinSize = 2 + 8 + 4

// AppendResponse encodes r onto dst and returns the extended slice.
func AppendResponse(dst []byte, r *Response) []byte {
	dst = appendU32(dst, r.ID)
	dst = append(dst, byte(r.Op))
	dst = append(dst, byte(r.Code))
	if r.Code != CodeOK {
		return appendStr(dst, r.Msg)
	}
	switch r.Op {
	case OpCreate, OpOpen:
		dst = appendU32(dst, uint32(r.FD))
	case OpRead, OpPread:
		dst = appendBytes(dst, r.Data)
	case OpWrite:
		// Where the write left the descriptor: an O_APPEND write lands at an
		// end of file only the server knows, and the client's table follows.
		dst = appendU32(dst, r.N)
		dst = appendU64(dst, uint64(r.Off))
	case OpPwrite:
		dst = appendU32(dst, r.N)
	case OpFstat, OpStat, OpLstat:
		dst = appendStat(dst, &r.Stat)
	case OpReadlink:
		dst = appendStr(dst, r.Str)
	case OpReadDir:
		dst = appendU32(dst, uint32(len(r.Dir)))
		for i := range r.Dir {
			dst = appendStr(dst, r.Dir[i].Name)
			dst = appendU64(dst, r.Dir[i].Ino)
			dst = appendU32(dst, r.Dir[i].Mode)
		}
	}
	return dst
}

// ResponseSize returns the exact number of bytes AppendResponse would
// append for r. The server sizes reply frames with it so responses encode
// directly into the outgoing payload with no staging copy.
func ResponseSize(r *Response) int {
	n := 4 + 1 + 1 // ID, op, code
	if r.Code != CodeOK {
		return n + 2 + len(r.Msg)
	}
	switch r.Op {
	case OpCreate, OpOpen:
		n += 4
	case OpRead, OpPread:
		n += 4 + len(r.Data)
	case OpWrite:
		n += 4 + 8
	case OpPwrite:
		n += 4
	case OpFstat, OpStat, OpLstat:
		n += 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8
	case OpReadlink:
		n += 2 + len(r.Str)
	case OpReadDir:
		n += 4
		for i := range r.Dir {
			n += 2 + len(r.Dir[i].Name) + 8 + 4
		}
	}
	return n
}

// DecodeResponseInto decodes one response from b, returning the remaining
// bytes, and lands read data in dataDst when it fits (the client passes the
// caller's read buffer, so the payload is copied exactly once: frame →
// destination). Every variable-length field is a copy, safe to retain after
// b is reused; only Data may alias dataDst.
func DecodeResponseInto(b, dataDst []byte) (Response, []byte, error) {
	return decodeOneResponse(b, dataDst, false)
}

// DecodeResponseAlias is DecodeResponseInto for a buffer the response may
// keep: Data is a capacity-clipped sub-slice of b, not a copy, so b must
// never be reused while the response is reachable (the client hands it a
// reply frame it has taken out of the pool for good). Msg, Str and
// directory names are still copied — Data is the only field that pins b.
func DecodeResponseAlias(b []byte) (Response, []byte, error) {
	return decodeOneResponse(b, nil, true)
}

func decodeOneResponse(b, dataDst []byte, aliasData bool) (Response, []byte, error) {
	rd := reader{b: b}
	r, err := decodeResponse(&rd, dataDst, aliasData)
	if err != nil {
		return Response{}, nil, err
	}
	return r, rd.b, nil
}

func decodeResponse(rd *reader, dataDst []byte, aliasData bool) (Response, error) {
	var r Response
	r.ID = rd.u32()
	r.Op = Op(rd.u8())
	r.Code = ErrCode(rd.u8())
	if rd.err == nil && (r.Op == OpInvalid || r.Op >= NumOps) {
		return Response{}, fmt.Errorf("%w: bad op %d", ErrBadMessage, r.Op)
	}
	if r.Code != CodeOK {
		r.Msg = rd.str(MaxPath)
		if rd.err != nil {
			return Response{}, rd.err
		}
		return r, nil
	}
	switch r.Op {
	case OpCreate, OpOpen:
		r.FD = fsapi.FD(rd.u32())
	case OpRead, OpPread:
		r.Data = rd.payload(MaxIO, dataDst, aliasData)
	case OpWrite:
		r.N = rd.u32()
		r.Off = int64(rd.u64())
	case OpPwrite:
		r.N = rd.u32()
	case OpFstat, OpStat, OpLstat:
		r.Stat = rd.stat()
	case OpReadlink:
		r.Str = rd.str(MaxPath)
	case OpReadDir:
		if n := rd.count(dirEntryMinSize); n > 0 {
			r.Dir = make([]fsapi.DirEntry, 0, n)
			for i := 0; i < n; i++ {
				r.Dir = append(r.Dir, fsapi.DirEntry{
					Name: rd.str(fsapi.MaxNameLen), Ino: rd.u64(), Mode: rd.u32(),
				})
			}
		}
	}
	if rd.err != nil {
		return Response{}, rd.err
	}
	return r, nil
}

// --- handshake and connection-level errors ------------------------------

// AttachClaim is the shard claim an attach handshake may carry: the client
// asserts "I am attaching to serve operations for shard Shard, routed under
// map epoch Epoch". A shard-aware server verifies it owns that shard and
// answers KindMoved instead of KindAttachOK when it does not, so a
// stale-mapped client learns at attach time rather than per operation.
type AttachClaim struct {
	Shard uint32
	Epoch uint64
}

// attachClaimSize is the byte length of the shard claim suffix on an attach
// payload: u32 shard ID + u64 map epoch.
const attachClaimSize = 4 + 8

// AppendAttach encodes the attach handshake payload. clientID (zero = none)
// is a client-chosen stable identity: a server running the replication
// layer keys the session by it, so a client reconnecting after a failover
// can resume its session — open-file table included — on the promoted
// primary. An unclaimed payload omits a zero client ID; a claimed one
// (claim non-nil) always writes it, so the claim sits at a fixed offset.
func AppendAttach(dst []byte, cred fsapi.Cred, clientID uint64, claim *AttachClaim) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version)
	dst = appendU32(dst, cred.UID)
	dst = appendU32(dst, cred.GID)
	if clientID != 0 || claim != nil {
		dst = appendU64(dst, clientID)
	}
	if claim != nil {
		dst = appendU32(dst, claim.Shard)
		dst = appendU64(dst, claim.Epoch)
	}
	return dst
}

// ParseAttachClaim validates and decodes an attach payload in any of the
// forms AppendAttach writes: the client ID and the shard claim are both
// optional (claimed == false without one).
func ParseAttachClaim(payload []byte) (fsapi.Cred, uint64, AttachClaim, bool, error) {
	rd := reader{b: payload}
	var m [4]byte
	m[0], m[1], m[2], m[3] = rd.u8(), rd.u8(), rd.u8(), rd.u8()
	v := rd.u8()
	cred := fsapi.Cred{UID: rd.u32(), GID: rd.u32()}
	var clientID uint64
	var claim AttachClaim
	claimed := false
	if rd.err == nil && len(rd.b) >= 8 {
		clientID = rd.u64()
		if rd.err == nil && len(rd.b) >= attachClaimSize {
			claim.Shard = rd.u32()
			claim.Epoch = rd.u64()
			claimed = true
		}
	}
	if rd.err != nil {
		return fsapi.Cred{}, 0, AttachClaim{}, false, rd.err
	}
	if m != magic {
		return fsapi.Cred{}, 0, AttachClaim{}, false, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if v != Version {
		return fsapi.Cred{}, 0, AttachClaim{}, false, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	return cred, clientID, claim, claimed, nil
}

// AppendErrFrame encodes a KindErr payload.
func AppendErrFrame(dst []byte, err error) []byte {
	code := CodeOf(err)
	dst = append(dst, byte(code))
	return appendStr(dst, err.Error())
}

// ParseErrFrame decodes a KindErr payload into the error it carries.
func ParseErrFrame(payload []byte) error {
	rd := reader{b: payload}
	code := ErrCode(rd.u8())
	msg := rd.str(MaxPath)
	if rd.err != nil {
		return rd.err
	}
	return code.Wrap(msg)
}

// --- framing ------------------------------------------------------------

// WriteFrame writes one frame (header, kind, payload) to w. Callers
// batching many frames should hand WriteFrame a *bufio.Writer and flush
// once per frame group.
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(kind)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader reads frames from a connection into pooled payload buffers.
type FrameReader struct {
	r   *bufio.Reader
	buf *Buf
	hdr [4]byte // a field, not a local: io.ReadFull would move a local to the heap per frame
}

// NewFrameReader wraps r for frame-at-a-time reading.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads one frame and returns its kind and payload. The payload
// aliases a pooled buffer that the next call overwrites: finish with it, or
// decode with copies, before calling Next again.
func (fr *FrameReader) Next() (Kind, []byte, error) {
	kind, payload, _, err := fr.NextOwned(nil)
	return kind, payload, err
}

// NextOwned is Next for a caller that may keep payloads. Once a frame's
// length is known, own (nil: never) is asked whether its n-byte payload
// should land in a buffer of its own — exactly sized, never pooled, never
// reused. Such a payload is reported as owned: it is the caller's for good
// and the garbage collector frees it. Every other frame is read as Next
// reads it.
func (fr *FrameReader) NextOwned(own func(n int) bool) (kind Kind, payload []byte, owned bool, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, false, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return 0, nil, false, fmt.Errorf("%w: empty frame", ErrBadMessage)
	}
	if n > MaxFrame {
		return 0, nil, false, ErrFrameTooLarge
	}
	var buf []byte
	if owned = own != nil && own(int(n)-1); owned {
		buf = make([]byte, n)
	} else {
		if fr.buf == nil || uint32(cap(fr.buf.B)) < n {
			PutBuf(fr.buf)
			fr.buf = GetBuf(int(n))
		}
		buf = fr.buf.B[:n]
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, false, err
	}
	return Kind(buf[0]), buf[1:], owned, nil
}

// Release returns the FrameReader's current buffer to the pool. Call it
// when the reader is done (connection closed) so long-lived buffers recycle.
func (fr *FrameReader) Release() {
	PutBuf(fr.buf)
	fr.buf = nil
}

// VecWriter stages whole frames and flushes them to a writer in one
// vectored write (writev on a *net.TCPConn), so multi-frame replies and
// replication batches cost one syscall and zero payload copies. Staged
// payloads are borrowed: the caller must keep them valid until Flush
// returns. Not safe for concurrent use; give each writing goroutine its
// own.
type VecWriter struct {
	kinds    []Kind
	payloads [][]byte
	// prefixes, when non-empty, runs parallel to payloads: prefixes[i] is an
	// extra borrowed chunk written between frame i's header and payload (the
	// trace context of a traced frame). Kept empty until the first
	// StagePrefixed so plain Stage/Flush never touch it.
	prefixes [][]byte
	bytes    int
	hdrs     []byte
	bufs     net.Buffers
	// wtmp is the view WriteTo consumes each Flush. It is a struct field
	// rather than a local so the slice header doesn't escape to the heap on
	// every call (WriteTo may pass its receiver pointer to the connection's
	// writeBuffers).
	wtmp net.Buffers
}

// Stage queues one frame. The payload is not copied.
func (v *VecWriter) Stage(kind Kind, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	v.kinds = append(v.kinds, kind)
	v.payloads = append(v.payloads, payload)
	if len(v.prefixes) > 0 {
		v.prefixes = append(v.prefixes, nil)
	}
	v.bytes += len(payload) + 5
	return nil
}

// StagePrefixed queues one frame whose wire payload is prefix ++ payload,
// without concatenating them: the frame header's length covers both and the
// vectored flush emits header, prefix, payload back to back. Neither slice
// is copied. Traced frames use this to prepend the trace context to a
// pooled payload buffer in place.
func (v *VecWriter) StagePrefixed(kind Kind, prefix, payload []byte) error {
	if len(prefix)+len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	for len(v.prefixes) < len(v.kinds) {
		v.prefixes = append(v.prefixes, nil)
	}
	v.kinds = append(v.kinds, kind)
	v.payloads = append(v.payloads, payload)
	v.prefixes = append(v.prefixes, prefix)
	v.bytes += len(prefix) + len(payload) + 5
	return nil
}

// Count returns the number of staged frames.
func (v *VecWriter) Count() int { return len(v.kinds) }

// StagedBytes returns the total wire size (headers included) of staged
// frames; callers bound memory by flushing when it grows past a budget.
func (v *VecWriter) StagedBytes() int { return v.bytes }

// Flush writes every staged frame to w in at most one vectored write and
// resets the stage. It reports the bytes written even on error so callers
// can keep byte-level metrics exact.
func (v *VecWriter) Flush(w io.Writer) (int64, error) {
	nf := len(v.kinds)
	if nf == 0 {
		return 0, nil
	}
	if cap(v.hdrs) < nf*5 {
		v.hdrs = make([]byte, nf*5)
	}
	v.hdrs = v.hdrs[:nf*5]
	v.bufs = v.bufs[:0]
	for i, p := range v.payloads {
		var pre []byte
		if i < len(v.prefixes) {
			pre = v.prefixes[i]
		}
		h := v.hdrs[i*5 : i*5+5]
		binary.LittleEndian.PutUint32(h, uint32(len(pre)+len(p)+1))
		h[4] = byte(v.kinds[i])
		v.bufs = append(v.bufs, h)
		if len(pre) > 0 {
			v.bufs = append(v.bufs, pre)
		}
		if len(p) > 0 {
			v.bufs = append(v.bufs, p)
		}
	}
	// WriteTo consumes the Buffers it is invoked on (advancing the slice
	// header and nilling spent elements), so it runs on a copy of the
	// header: v.bufs keeps its backing array and capacity for the next
	// Flush.
	v.wtmp = v.bufs
	n, err := v.wtmp.WriteTo(w)
	v.wtmp = nil
	v.kinds = v.kinds[:0]
	for i := range v.payloads {
		v.payloads[i] = nil
	}
	v.payloads = v.payloads[:0]
	for i := range v.prefixes {
		v.prefixes[i] = nil
	}
	v.prefixes = v.prefixes[:0]
	v.bufs = v.bufs[:0]
	v.bytes = 0
	return n, err
}
