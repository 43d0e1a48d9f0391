package wire

import (
	"encoding/binary"

	"simurgh/internal/fsapi"
)

// Execute runs one decoded request against a client and builds its
// response. It is the single interpretation of the wire vocabulary in
// terms of fsapi, shared by the network server's batch workers and the
// replication layer's shadow replay (both must agree exactly, or replicas
// diverge). Unknown sizes were already bounded by the decoder.
func Execute(c fsapi.Client, req *Request) Response {
	resp, _ := ExecuteInto(c, req, nil)
	FillWriteOff(c, req, &resp)
	return resp
}

// FillWriteOff completes the response to a write with where the write left
// the descriptor: an O_APPEND write lands at an end of file only the server
// can name, and the client's open-file table follows it from here. It is the
// part of Execute that ExecuteInto leaves out, for a server path that calls
// ExecuteInto itself to spare the hot path Execute's copy of the response.
func FillWriteOff(c fsapi.Client, req *Request, resp *Response) {
	if req.Op == OpWrite && resp.Code == CodeOK {
		resp.Off, _ = c.Seek(req.FD, 0, fsapi.SeekCur) // the descriptor just took a write
	}
}

// ExecuteInto is Execute with a caller-owned read scratch buffer, for
// callers that run the codec in-process: read and pread responses land in
// scratch (grown as needed) and resp.Data aliases it. It returns the
// (possibly grown) scratch for reuse. The caller must not retain resp.Data
// past the scratch's next use. Followed by AppendResponse it is the
// definition of a read's reply bytes, which the server produces without the
// scratch (AppendRead).
//
// It calls the request's own fsapi method and no other, so a client that
// implements only what a workload uses can stand behind it (the ladder's
// no-op sink): a write's Off stays zero here (FillWriteOff sets it), and of
// the retired operations OpRead and OpFsync still run — a server never lets
// them get this far — while OpSeek is gone.
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
		scratch = readBuf(req.Size, scratch)
		var n int
		n, err = c.Read(req.FD, scratch)
		resp.Data = scratch[:n]
	case OpPread:
		scratch = readBuf(req.Size, scratch)
		var n int
		n, err = c.Pread(req.FD, scratch, req.Off)
		resp.Data = scratch[:n]
	case OpWrite:
		var n int
		n, err = c.Write(req.FD, req.Data)
		resp.N = uint32(n)
	case OpPwrite:
		var n int
		n, err = c.Pwrite(req.FD, req.Data, req.Off)
		resp.N = uint32(n)
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

// readBuf returns scratch with room for a size-byte read, grown if needed.
func readBuf(size uint32, scratch []byte) []byte {
	if cap(scratch) < int(size) {
		scratch = make([]byte, size)
	}
	return scratch[:size]
}

// readRespHeader is what precedes the data of a successful pread response:
// ID, op, code, data length.
const readRespHeader = 4 + 1 + 1 + 4

// ReadResponseMax returns the most bytes the response to the pread req
// occupies when it succeeds — the room AppendRead needs.
func ReadResponseMax(req *Request) int { return readRespHeader + int(req.Size) }

// AppendRead executes the pread req and appends its response to dst with the
// file system reading straight into dst's spare capacity: the bytes are
// exactly those of ExecuteInto followed by AppendResponse, without the
// scratch buffer and the copy between the two. dst must have
// ReadResponseMax(req) bytes to spare — making that room is the caller's
// business, so that it decides whether to grow or to flush. When the read
// fails nothing is appended and the file system's error is returned for the
// caller to encode as any other error response.
func AppendRead(dst []byte, c fsapi.Client, req *Request) ([]byte, error) {
	resp := dst[len(dst) : len(dst)+ReadResponseMax(req)]
	n, err := c.Pread(req.FD, resp[readRespHeader:], req.Off)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(resp, req.ID)
	resp[4], resp[5] = byte(req.Op), byte(CodeOK)
	binary.LittleEndian.PutUint32(resp[6:], uint32(n))
	return dst[:len(dst)+readRespHeader+n], nil
}
