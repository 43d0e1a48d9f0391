package server

// Reads land in the reply frame (wire.AppendRead) instead of a scratch buffer
// that is then encoded. The path that did the latter — wire.ExecuteInto, then
// wire.AppendResponse — stays the definition of the encoding, and these tests
// hold the server's reply bytes to it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
)

// fileClient is nullClient with one real file behind descriptor 3: reads
// return its bytes, stop at its end, and fail on any other descriptor.
type fileClient struct {
	nullClient
	data []byte
}

func newFileClient(size int) *fileClient {
	c := &fileClient{data: make([]byte, size)}
	for i := range c.data {
		c.data[i] = byte(i*131 ^ i>>11)
	}
	return c
}

func (c *fileClient) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	if fd != 3 {
		return 0, fmt.Errorf("%w: descriptor %d is not open here", fsapi.ErrBadFD, fd)
	}
	if off >= uint64(len(c.data)) {
		return 0, nil
	}
	return copy(p, c.data[off:]), nil
}

// fenceNth is a Sharding whose descriptor fence answers Moved on chosen
// calls (counted from zero) and lets every path through.
type fenceNth struct {
	moved map[int]bool
	calls int
}

func (f *fenceNth) MapFor(uint64) []byte                     { return nil }
func (f *fenceNth) Install([]byte) ([]byte, error)           { return nil, nil }
func (f *fenceNth) CheckAttach(wire.AttachClaim) *wire.Moved { return nil }
func (f *fenceNth) MovedPath(string) *wire.Moved             { return nil }
func (f *fenceNth) MovedShard(uint32, bool) *wire.Moved {
	f.calls++
	if f.moved[f.calls-1] {
		return &wire.Moved{Addr: "elsewhere:1", Epoch: 7}
	}
	return nil
}

// captureConn records what the server writes to the connection.
type captureConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// splitFrames cuts a captured reply stream into its frames' payloads.
func splitFrames(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(stream) > 0 {
		if len(stream) < 5 {
			t.Fatalf("%d stray bytes after the last frame", len(stream))
		}
		n := int(binary.LittleEndian.Uint32(stream))
		if n < 1 || n > wire.MaxFrame || 4+n > len(stream) {
			t.Fatalf("frame length %d with %d bytes left", n, len(stream)-4)
		}
		if k := wire.Kind(stream[4]); k != wire.KindReply {
			t.Fatalf("frame kind %d, want reply", k)
		}
		frames = append(frames, stream[5:4+n])
		stream = stream[4+n:]
	}
	return frames
}

// TestReadIntoFrameMatchesOracle executes batches twice — through execBatch,
// and request by request through ExecuteInto + AppendResponse over a client
// in the same state and the same fence — and requires the same reply bytes.
// The retired operations are the server's to refuse: the oracle answers them
// ErrInval where ExecuteInto would still run a read in-process.
// Frames may only be compared as a stream: a read is held to the frame
// budget by the most it may return, not by what it did, so a short read can
// open a new frame where the oracle's framing would not have. Where no
// reservation reaches the budget the framing is the old one: one frame.
func TestReadIntoFrameMatchesOracle(t *testing.T) {
	const fileSize = wire.MaxIO + 100
	pread := func(fd fsapi.FD, size, off int) wire.Request {
		return wire.Request{Op: wire.OpPread, FD: fd, Size: uint32(size), Off: uint64(off)}
	}
	read := func(size int) wire.Request { return wire.Request{Op: wire.OpRead, FD: 3, Size: uint32(size)} }
	for _, tc := range []struct {
		name   string
		reqs   []wire.Request
		moved  map[int]bool // descriptor-fence calls answered Moved
		frames int
	}{
		{name: "mixed", frames: 1, reqs: []wire.Request{
			pread(3, 4096, 0),
			pread(3, 4096, 8192),
			pread(3, 4096, fileSize-100), // short: the file ends inside it
			pread(3, 4096, fileSize),     // at the end: nothing
			pread(3, 4096, fileSize+1<<20),
			pread(3, 0, 64), // asks for nothing
			{Op: wire.OpStat, Path: "/f"},
			pread(9, 4096, 0), // bad descriptor between good ones
			pread(3, 1, 4095),
			read(4096), // retired: refused between reads that land in the frame
			{Op: wire.OpSeek, FD: 3, Off: 8},
			{Op: wire.OpFsync, FD: 3},
			{Op: wire.OpRead, FD: 9, Size: 16},
			pread(3, 4096, 4096),
		}},
		{name: "moved", frames: 1, moved: map[int]bool{1: true, 3: true}, reqs: []wire.Request{
			pread(3, 4096, 0),
			pread(3, 4096, 4096), // fenced
			{Op: wire.OpStat, Path: "/f"},
			pread(3, 4096, 8192),
			read(512), // fenced: Moved comes before the refusal
			read(512),
		}},
		{name: "reservation crosses the frame budget", frames: 2, reqs: []wire.Request{
			pread(3, wire.MaxIO, 0),
			pread(3, wire.MaxIO, 50),
			pread(3, wire.MaxIO, 100),
			pread(3, wire.MaxIO, fileSize-7), // 7 bytes come back; 1 MiB might have
			pread(3, wire.MaxIO, 1),
		}},
		{name: "error response crosses the frame budget", frames: 2, reqs: []wire.Request{
			pread(3, wire.MaxIO, 0),
			pread(3, wire.MaxIO, 0),
			pread(3, wire.MaxIO, 0),
			pread(3, wire.MaxIO-51, 0),
			pread(9, 0, 0), // the reservation just fits the frame; the error's message does not
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.reqs {
				tc.reqs[i].ID = uint32(100 + i)
			}
			s, sess, payload := steadyState(t, tc.reqs)
			conn := &captureConn{}
			sess.conn = conn
			sess.client = newFileClient(fileSize)
			s.cfg.Sharding = &fenceNth{moved: tc.moved}
			var cs connState
			if err := runSteady(s, sess, &cs, payload, time.Now()); err != nil {
				t.Fatal(err)
			}
			frames := splitFrames(t, conn.buf.Bytes())

			oracle, fence := newFileClient(fileSize), &fenceNth{moved: tc.moved}
			var want, scratch []byte
			for i := range tc.reqs {
				req := &tc.reqs[i]
				var resp wire.Response
				var mv *wire.Moved
				if req.Path == "" {
					mv = fence.MovedShard(0, false)
				}
				if mv != nil {
					resp = movedResponse(sess, req, mv)
				} else if req.Op.Retired() {
					resp = errResponse(req, fsapi.ErrInval)
				} else {
					resp, scratch = wire.ExecuteInto(oracle, req, scratch[:0:cap(scratch)])
				}
				want = wire.AppendResponse(want, &resp)
			}

			if got := bytes.Join(frames, nil); !bytes.Equal(got, want) {
				t.Fatalf("reply stream differs from ExecuteInto+AppendResponse: %d bytes, want %d", len(got), len(want))
			}
			if len(frames) != tc.frames {
				t.Errorf("%d reply frames, want %d", len(frames), tc.frames)
			}
			answered := 0
			for _, f := range frames {
				if len(f) > replyBudget {
					t.Errorf("frame payload of %d bytes exceeds the budget", len(f))
				}
				for rest := f; len(rest) > 0; answered++ {
					var err error
					if _, rest, err = wire.DecodeResponseInto(rest, nil); err != nil {
						t.Fatalf("frame does not end on a response boundary: %v", err)
					}
				}
			}
			if answered != len(tc.reqs) {
				t.Errorf("%d responses for %d requests", answered, len(tc.reqs))
			}
		})
	}
}

// TestReadReservationsStayWithinStagingBudget: a client may ask for MaxBatch
// reads of MaxIO each — four gigabytes — and get nothing, at end of file.
// What it asked for sizes the payload only up to the staging budget, and a
// reservation trimmed to nothing gives its room back to the next.
func TestReadReservationsStayWithinStagingBudget(t *testing.T) {
	reqs := make([]wire.Request, wire.MaxBatch)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint32(i + 1), Op: wire.OpPread, FD: 3, Size: wire.MaxIO, Off: 1 << 20}
	}
	s, sess, payload := steadyState(t, reqs)
	conn := &captureConn{}
	sess.conn = conn
	sess.client = newFileClient(1 << 20)
	var cs connState
	var err error
	if cs.reqs, err = wire.DecodeBatchInto(cs.reqs[:0], payload); err != nil {
		t.Fatal(err)
	}
	s.execBatch(sess, cs.reqs, &cs.rs, time.Now(), 0, true)
	if c := cap(cs.rs.payload); c > maxStagedReply {
		t.Errorf("payload grew to %d bytes, past the staging budget of %d", c, maxStagedReply)
	}
	frames := splitFrames(t, conn.buf.Bytes())
	if len(frames) != 1 || len(frames[0]) != len(reqs)*wire.ReadResponseMax(&wire.Request{}) {
		t.Errorf("%d frames, first of %d bytes; want one of %d empty reads", len(frames), len(frames[0]), len(reqs))
	}
}
