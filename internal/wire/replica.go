// Replication wire format. The primary assigns every state-changing
// operation a monotonically increasing log sequence number and ships the
// resulting entries to its backups in KindReplicate frames — batched
// exactly like client traffic, one frame amortizing many entries. A backup
// acknowledges the highest sequence it has applied with KindRepAck; the
// primary acknowledges clients only once a quorum of backups has applied
// their operations.
//
// A backup enlists by sending KindJoin on a fresh connection (instead of
// KindAttach). The primary answers KindJoinOK with the current epoch, the
// snapshot's log position and size, and a manifest of the sessions that
// already exist with their open descriptors; it then streams the volume
// image in KindSnapChunk frames and follows with the live log. Entries carry
// the originating session and — for descriptor-creating ops — the
// descriptor the primary handed out, which the backup's shadow client hands
// out too: a descriptor has one number on every node of the group.
package wire

import (
	"fmt"

	"simurgh/internal/fsapi"
)

// Replicated reports whether an operation must travel the replication log.
// Everything that mutates the volume or the existence of a descriptor
// replicates; pure reads (Pread, Stat, Lstat, Fstat, Readlink, ReadDir)
// execute on the primary alone. File positions are not server state — the
// client process owns them — so nothing travels the log on their account.
func (o Op) Replicated() bool {
	switch o {
	case OpCreate, OpOpen, OpClose, OpWrite, OpPwrite, OpFtruncate,
		OpFallocate, OpMkdir, OpRmdir, OpUnlink, OpRename, OpSymlink,
		OpLink, OpChmod, OpUtimes, OpDetach:
		return true
	}
	return false
}

// EntryKind discriminates log entries.
type EntryKind uint8

const (
	// EntryOp replays one client request against the session's shadow.
	EntryOp EntryKind = 1
	// EntryAttach creates the session's shadow client with its credentials.
	EntryAttach EntryKind = 2
	// EntryPwrite is the compact form of an OpPwrite EntryOp: positional
	// writes dominate replicated traffic, carry no path and produce no
	// descriptor, so the entry ships only id/fd/offset/data instead of the
	// full request framing plus an unused ResFD. Decoding materializes a
	// normal OpPwrite Request so apply paths stay uniform.
	EntryPwrite EntryKind = 3
)

// Entry is one replicated log record.
type Entry struct {
	// Seq is the log sequence number (1-based, no gaps).
	Seq uint64
	// Sess identifies the originating session; backups key shadows by it.
	Sess uint64
	// Kind selects which of the remaining fields apply.
	Kind EntryKind
	// Cred is the attaching session's identity (EntryAttach only).
	Cred fsapi.Cred
	// Req is the replayed request (EntryOp only).
	Req Request
	// ResFD is the descriptor OpCreate/OpOpen handed out on the primary;
	// the backup's shadow opens at the same number.
	ResFD fsapi.FD
}

// AppendEntry encodes e onto dst and returns the extended slice.
func AppendEntry(dst []byte, e *Entry) []byte {
	dst = appendU64(dst, e.Seq)
	dst = appendU64(dst, e.Sess)
	dst = append(dst, byte(e.Kind))
	switch e.Kind {
	case EntryAttach:
		dst = appendU32(dst, e.Cred.UID)
		dst = appendU32(dst, e.Cred.GID)
	case EntryOp:
		dst = appendU32(dst, uint32(e.ResFD))
		dst = AppendRequest(dst, &e.Req)
	case EntryPwrite:
		dst = appendU32(dst, e.Req.ID)
		dst = appendU32(dst, uint32(e.Req.FD))
		dst = appendU64(dst, e.Req.Off)
		dst = appendBytes(dst, e.Req.Data)
	}
	return dst
}

func decodeEntry(rd *reader) (Entry, error) {
	var e Entry
	e.Seq = rd.u64()
	e.Sess = rd.u64()
	e.Kind = EntryKind(rd.u8())
	if rd.err != nil {
		return Entry{}, rd.err
	}
	switch e.Kind {
	case EntryAttach:
		e.Cred.UID = rd.u32()
		e.Cred.GID = rd.u32()
		if rd.err != nil {
			return Entry{}, rd.err
		}
		return e, nil
	case EntryOp:
		e.ResFD = fsapi.FD(rd.u32())
		if rd.err != nil {
			return Entry{}, rd.err
		}
		req, err := decodeRequest(rd)
		if err != nil {
			return Entry{}, err
		}
		e.Req = req
		return e, nil
	case EntryPwrite:
		e.Req.Op = OpPwrite
		e.Req.ID = rd.u32()
		e.Req.FD = fsapi.FD(rd.u32())
		e.Req.Off = rd.u64()
		e.Req.Data = rd.bytes(MaxIO)
		if rd.err != nil {
			return Entry{}, rd.err
		}
		return e, nil
	default:
		return Entry{}, fmt.Errorf("%w: bad entry kind %d", ErrBadMessage, e.Kind)
	}
}

// DecodeEntriesInto decodes a KindReplicate payload (at most MaxBatch
// entries) without allocating: it appends to dst (reusing capacity) and
// decoded request paths and write data ALIAS payload. The backup applies every entry before reading the
// next frame, so the aliased buffer is stable for exactly that window. dst
// is returned even on error so its capacity is never lost.
func DecodeEntriesInto(dst []Entry, payload []byte) ([]Entry, error) {
	rd := reader{b: payload, alias: true}
	for len(rd.b) > 0 {
		if len(dst) >= MaxBatch {
			return dst, fmt.Errorf("%w: replicate frame exceeds %d entries", ErrBadMessage, MaxBatch)
		}
		e, err := decodeEntry(&rd)
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// Join is the backup's enlistment request.
type Join struct {
	// Epoch is the highest epoch the backup has seen (zero for a fresh
	// backup). A primary with a lower epoch refuses the join: it is stale.
	Epoch uint64
	// Addr is the backup's advertised address, for diagnostics.
	Addr string
}

// AppendJoin encodes the KindJoin payload.
func AppendJoin(dst []byte, j *Join) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version)
	dst = appendU64(dst, j.Epoch)
	dst = appendStr(dst, j.Addr)
	return dst
}

// ParseJoin validates and decodes a KindJoin payload.
func ParseJoin(payload []byte) (Join, error) {
	rd := reader{b: payload}
	var m [4]byte
	m[0], m[1], m[2], m[3] = rd.u8(), rd.u8(), rd.u8(), rd.u8()
	v := rd.u8()
	j := Join{Epoch: rd.u64(), Addr: rd.str(MaxPath)}
	if rd.err != nil {
		return Join{}, rd.err
	}
	if m != magic {
		return Join{}, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if v != Version {
		return Join{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	return j, nil
}

// SessionInfo describes one session alive at the snapshot: its credentials
// and its descriptor table. Descriptor numbers are the same on every node
// of the group, so the backup reopens each descriptor at its own number and
// then reserves up to NextFD; later opens in the log land where they did on
// the primary.
type SessionInfo struct {
	Sess uint64
	Cred fsapi.Cred
	// NextFD is one past the highest descriptor the session was ever handed.
	NextFD fsapi.FD
	// Open is the session's open descriptors, in no particular order.
	Open []OpenFD
}

// OpenFD is one open descriptor in the join manifest: its number and how to
// reopen it. Flags carry no one-shot semantics (create, exclusive,
// truncate); the file exists, and reopening must not change it.
type OpenFD struct {
	FD    fsapi.FD
	Path  string
	Flags uint32
	Perm  uint32
}

// JoinOK is the primary's answer to a join.
type JoinOK struct {
	// Epoch is the primary's current epoch.
	Epoch uint64
	// SnapSeq is the log position the snapshot captures; replication
	// resumes at SnapSeq+1.
	SnapSeq uint64
	// SnapSize is the total snapshot byte count that follows in
	// KindSnapChunk frames.
	SnapSize uint64
	// Sessions are the sessions alive at the snapshot.
	Sessions []SessionInfo
}

// AppendJoinOK encodes the KindJoinOK payload.
func AppendJoinOK(dst []byte, j *JoinOK) []byte {
	dst = appendU64(dst, j.Epoch)
	dst = appendU64(dst, j.SnapSeq)
	dst = appendU64(dst, j.SnapSize)
	dst = appendU32(dst, uint32(len(j.Sessions)))
	for i := range j.Sessions {
		si := &j.Sessions[i]
		dst = appendU64(dst, si.Sess)
		dst = appendU32(dst, si.Cred.UID)
		dst = appendU32(dst, si.Cred.GID)
		dst = appendU32(dst, uint32(si.NextFD))
		dst = appendU32(dst, uint32(len(si.Open)))
		for _, o := range si.Open {
			dst = appendU32(dst, uint32(o.FD))
			dst = appendU32(dst, o.Flags)
			dst = appendU32(dst, o.Perm)
			dst = appendStr(dst, o.Path)
		}
	}
	return dst
}

// The encoded sizes of a manifest session and of an open descriptor with an
// empty path: the least bytes each count must leave for its entries.
const (
	sessionInfoSize = 8 + 4 + 4 + 4 + 4
	openFDSize      = 4 + 4 + 4 + 2
)

// ParseJoinOK decodes a KindJoinOK payload. Paths are copies: the backup
// keeps them after the frame is gone.
func ParseJoinOK(payload []byte) (JoinOK, error) {
	rd := reader{b: payload}
	j := JoinOK{Epoch: rd.u64(), SnapSeq: rd.u64(), SnapSize: rd.u64()}
	if n := rd.count(sessionInfoSize); n > 0 {
		j.Sessions = make([]SessionInfo, n)
	}
	for i := range j.Sessions {
		si := &j.Sessions[i]
		si.Sess, si.Cred = rd.u64(), fsapi.Cred{UID: rd.u32(), GID: rd.u32()}
		si.NextFD = fsapi.FD(rd.u32())
		if k := rd.count(openFDSize); k > 0 {
			si.Open = make([]OpenFD, k)
		}
		for k := range si.Open {
			si.Open[k] = OpenFD{FD: fsapi.FD(rd.u32()), Flags: rd.u32(), Perm: rd.u32(), Path: rd.str(MaxPath)}
		}
	}
	if rd.err != nil {
		return JoinOK{}, rd.err
	}
	return j, nil
}

// SnapChunk is one piece of the volume snapshot.
type SnapChunk struct {
	Off  uint64
	Data []byte
}

// AppendSnapChunk encodes the KindSnapChunk payload.
func AppendSnapChunk(dst []byte, c *SnapChunk) []byte {
	return append(AppendSnapChunkPrefix(dst, c.Off, len(c.Data)), c.Data...)
}

// SnapChunkPrefixSize is the encoded size of a SnapChunk ahead of its data.
const SnapChunkPrefixSize = 8 + 4

// AppendSnapChunkPrefix encodes the head of a KindSnapChunk payload for n
// data bytes at off. Staged with VecWriter.StagePrefixed ahead of the data
// itself, it forms AppendSnapChunk's payload without copying the data.
func AppendSnapChunkPrefix(dst []byte, off uint64, n int) []byte {
	dst = appendU64(dst, off)
	return appendU32(dst, uint32(n))
}

// ParseSnapChunk decodes a KindSnapChunk payload. Data aliases payload.
func ParseSnapChunk(payload []byte) (SnapChunk, error) {
	rd := reader{b: payload, alias: true}
	c := SnapChunk{Off: rd.u64(), Data: rd.bytes(MaxIO)}
	if rd.err != nil {
		return SnapChunk{}, rd.err
	}
	return c, nil
}

// Heartbeat is the primary's liveness beacon, echoed verbatim by the
// backup so the primary can measure the round trip.
type Heartbeat struct {
	// Epoch is the primary's epoch; a backup that has seen a higher one
	// ignores the beacon.
	Epoch uint64
	// Seq is the primary's last assigned sequence; the backup derives its
	// lag from it.
	Seq uint64
	// SentNs is the primary's send timestamp (opaque to the backup).
	SentNs uint64
}

// AppendHeartbeat encodes the KindHeartbeat payload.
func AppendHeartbeat(dst []byte, h *Heartbeat) []byte {
	dst = appendU64(dst, h.Epoch)
	dst = appendU64(dst, h.Seq)
	return appendU64(dst, h.SentNs)
}

// ParseHeartbeat decodes a KindHeartbeat payload.
func ParseHeartbeat(payload []byte) (Heartbeat, error) {
	rd := reader{b: payload}
	h := Heartbeat{Epoch: rd.u64(), Seq: rd.u64(), SentNs: rd.u64()}
	if rd.err != nil {
		return Heartbeat{}, rd.err
	}
	return h, nil
}

// RepAck acknowledges application of every entry up to Seq.
type RepAck struct {
	Epoch uint64
	Seq   uint64
}

// AppendRepAck encodes the KindRepAck payload.
func AppendRepAck(dst []byte, a *RepAck) []byte {
	dst = appendU64(dst, a.Epoch)
	return appendU64(dst, a.Seq)
}

// ParseRepAck decodes a KindRepAck payload.
func ParseRepAck(payload []byte) (RepAck, error) {
	rd := reader{b: payload}
	a := RepAck{Epoch: rd.u64(), Seq: rd.u64()}
	if rd.err != nil {
		return RepAck{}, rd.err
	}
	return a, nil
}
