package wire

import (
	"encoding/binary"

	"simurgh/internal/fsapi"
)

// Execute runs one decoded request against a client and builds its
// response. It is the single interpretation of the wire vocabulary in
// terms of fsapi, shared by the network server's batch workers and the
// replication layer's shadow replay (both must agree exactly, or replicas
// diverge). Unknown sizes were already bounded by the decoder. Read data is
// freshly allocated and exactly as large as what was read (cap == len,
// whatever size the request asked for), so the response is safe and cheap
// to retain (the replication replay cache depends on both).
func Execute(c fsapi.Client, req *Request) Response {
	resp, _ := ExecuteInto(c, req, nil)
	return resp
}

// ExecuteInto is Execute with a caller-owned read scratch buffer: read and
// pread responses land in scratch (grown as needed) and resp.Data aliases
// it. It returns the (possibly grown) scratch for reuse. The caller must
// not retain resp.Data past the scratch's next use. Followed by
// AppendResponse it is the definition of a read's reply bytes, which the
// server produces without the scratch (AppendRead). Passing nil scratch is
// exactly Execute: the read goes through a pooled buffer and the bytes read
// are copied out.
func ExecuteInto(c fsapi.Client, req *Request, scratch []byte) (Response, []byte) {
	resp := Response{ID: req.ID, Op: req.Op}
	var err error
	switch req.Op {
	case OpCreate:
		resp.FD, err = c.Create(req.Path, req.Perm)
	case OpOpen:
		resp.FD, err = c.Open(req.Path, fsapi.OpenFlag(req.Flags), req.Perm)
	case OpClose:
		err = c.Close(req.FD)
	case OpRead:
		var d readDst
		d, scratch = readBuf(req.Size, scratch)
		var n int
		n, err = c.Read(req.FD, d.p)
		resp.Data = d.data(n)
	case OpPread:
		var d readDst
		d, scratch = readBuf(req.Size, scratch)
		var n int
		n, err = c.Pread(req.FD, d.p, req.Off)
		resp.Data = d.data(n)
	case OpWrite:
		var n int
		n, err = c.Write(req.FD, req.Data)
		resp.N = uint32(n)
	case OpPwrite:
		var n int
		n, err = c.Pwrite(req.FD, req.Data, req.Off)
		resp.N = uint32(n)
	case OpSeek:
		resp.Off, err = c.Seek(req.FD, int64(req.Off), int(req.Flags))
	case OpFsync:
		err = c.Fsync(req.FD)
	case OpFtruncate:
		err = c.Ftruncate(req.FD, req.Off)
	case OpFallocate:
		err = c.Fallocate(req.FD, req.Off)
	case OpFstat:
		resp.Stat, err = c.Fstat(req.FD)
	case OpStat:
		resp.Stat, err = c.Stat(req.Path)
	case OpLstat:
		resp.Stat, err = c.Lstat(req.Path)
	case OpMkdir:
		err = c.Mkdir(req.Path, req.Perm)
	case OpRmdir:
		err = c.Rmdir(req.Path)
	case OpUnlink:
		err = c.Unlink(req.Path)
	case OpRename:
		err = c.Rename(req.Path, req.Path2)
	case OpSymlink:
		err = c.Symlink(req.Path, req.Path2)
	case OpLink:
		err = c.Link(req.Path, req.Path2)
	case OpReadlink:
		resp.Str, err = c.Readlink(req.Path)
	case OpReadDir:
		resp.Dir, err = c.ReadDir(req.Path)
	case OpChmod:
		err = c.Chmod(req.Path, req.Perm)
	case OpUtimes:
		err = c.Utimes(req.Path, int64(req.Off), int64(req.Off2))
	case OpDetach:
		err = c.Detach()
	default:
		err = fsapi.ErrInval
	}
	if err != nil {
		resp.Code = CodeOf(err)
		resp.Msg = MsgFor(resp.Code, err)
		resp.Data, resp.Str, resp.Dir = nil, "", nil
		resp.Stat = fsapi.Stat{}
	}
	return resp, scratch
}

// readDst is where one read lands: p, carved out of the caller's scratch or
// (pooled != nil) borrowed from the buffer pool.
type readDst struct {
	p      []byte
	pooled *Buf
}

// readBuf returns a size-byte read destination, carved out of scratch
// (grown if needed) when the caller lends one. Nil scratch stays nil and the
// destination is pooled: size is the client's wish, up to MaxIO, and a read
// at end of file fills none of it — allocating (and zeroing) that much per
// read to keep the few bytes read would let a client pin a megabyte of
// server memory per cached response.
func readBuf(size uint32, scratch []byte) (readDst, []byte) {
	n := int(size)
	if scratch == nil {
		b := GetBuf(n)
		return readDst{p: b.B, pooled: b}, nil
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	return readDst{p: scratch[:n]}, scratch
}

// data returns the n bytes a read left in d. Out of a pooled destination
// they are copied into a slice of their own — cap == len, nothing beyond
// them retained or zeroed — and the destination goes back to the pool.
func (d readDst) data(n int) []byte {
	if d.pooled == nil {
		return d.p[:n]
	}
	out := append([]byte(nil), d.p[:n]...)
	PutBuf(d.pooled)
	return out[:n:n]
}

// readRespHeader is what precedes the data of a successful read or pread
// response: ID, op, code, data length.
const readRespHeader = 4 + 1 + 1 + 4

// ReadResponseMax returns the most bytes the response to the read or pread
// req occupies when it succeeds — the room AppendRead needs.
func ReadResponseMax(req *Request) int { return readRespHeader + int(req.Size) }

// AppendRead executes the read or pread req and appends its response to dst
// with the file system reading straight into dst's spare capacity: the bytes
// are exactly those of ExecuteInto followed by AppendResponse, without the
// scratch buffer and the copy between the two. dst must have
// ReadResponseMax(req) bytes to spare — making that room is the caller's
// business, so that it decides whether to grow or to flush. When the read
// fails nothing is appended and the file system's error is returned for the
// caller to encode as any other error response.
func AppendRead(dst []byte, c fsapi.Client, req *Request) ([]byte, error) {
	resp := dst[len(dst) : len(dst)+ReadResponseMax(req)]
	var n int
	var err error
	if req.Op == OpRead {
		n, err = c.Read(req.FD, resp[readRespHeader:])
	} else {
		n, err = c.Pread(req.FD, resp[readRespHeader:], req.Off)
	}
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(resp, req.ID)
	resp[4], resp[5] = byte(req.Op), byte(CodeOK)
	binary.LittleEndian.PutUint32(resp[6:], uint32(n))
	return dst[:len(dst)+readRespHeader+n], nil
}
