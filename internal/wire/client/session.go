package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
)

// Session is one attached process's view of a volume: the process's
// open-file table, and a link to every shard of its route table that it has
// touched. The route table is its Router's shard map, or, for a session a
// Remote handed out, one shard ("/") served by that Remote. Every request an
// fsapi call sends goes through doShard, one at a time, which routes it by
// path or by descriptor and follows Moved answers; nothing in that path asks
// which of the two tables it runs over, except that a Remote's fixed table
// declines to follow a Moved (see Router.fixed). It implements fsapi.Client and is
// safe for concurrent use; calls from many goroutines coalesce into shared
// batch frames on each link.
type Session struct {
	rt   *Router
	cred fsapi.Cred

	mu    sync.Mutex
	links map[uint32]*link
	// files is the process's open-file table: for each descriptor the session
	// handed out, the shard and shard descriptor behind it, how it was opened,
	// and where it stands in its file. The servers and the replication log
	// know only that a descriptor exists, so a position survives failover and
	// migration by never having left here. Descriptors are monotonic and never
	// reused, so a stale one can never alias a new file.
	files  map[fsapi.FD]openFile
	nextFD fsapi.FD
	closed bool

	// idle is Submit's working set between calls. A Submit takes it and puts
	// it back; one that finds it taken makes its own.
	idle atomic.Pointer[scatter]
}

// RoutedSession is Session under the name the sharded session had while it
// was a type of its own. The benchmark ladder still type-asserts that name;
// the alias goes once the ladder asserts Session alone.
type RoutedSession = Session

// openFile is one entry of a session's open-file table.
type openFile struct {
	shard uint32
	fd    fsapi.FD // the shard's own descriptor
	flags fsapi.OpenFlag
	pos   uint64
}

// newSession opens a session over rt's table. Links attach lazily, the first
// time an operation routes to their shard.
func (rt *Router) newSession(cred fsapi.Cred) *Session {
	return &Session{
		rt:     rt,
		cred:   cred,
		links:  make(map[uint32]*link),
		files:  make(map[fsapi.FD]openFile),
		nextFD: 1,
	}
}

// file returns fd's entry of the open-file table.
func (s *Session) file(fd fsapi.FD) (openFile, error) {
	s.mu.Lock()
	of, ok := s.files[fd]
	s.mu.Unlock()
	if !ok {
		return openFile{}, fsapi.ErrBadFD
	}
	return of, nil
}

// setPos moves fd's position, unless fd was closed meanwhile.
func (s *Session) setPos(fd fsapi.FD, pos uint64) {
	s.mu.Lock()
	if of, ok := s.files[fd]; ok {
		of.pos = pos
		s.files[fd] = of
	}
	s.mu.Unlock()
}

// track keeps the open-file table in step with one answered request, whether
// an fsapi method or a Submit made it. A create or open the shard answered
// gets a descriptor of the session's own at position zero, which replaces
// the shard's in resp; a close removes its descriptor — also one the server
// no longer knew. A session detached meanwhile has no table to add to:
// ErrClosed.
func (s *Session) track(shard uint32, req *wire.Request, resp *wire.Response) error {
	var flags fsapi.OpenFlag
	switch req.Op {
	case wire.OpCreate:
		flags = fsapi.OCreate | fsapi.OWronly | fsapi.OTrunc
	case wire.OpOpen:
		flags = fsapi.OpenFlag(req.Flags)
	case wire.OpClose:
		if resp.Code == wire.CodeOK || resp.Code == wire.CodeBadFD {
			s.mu.Lock()
			delete(s.files, req.FD)
			s.mu.Unlock()
		}
		return nil
	default:
		return nil
	}
	if resp.Code != wire.CodeOK {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	fd := s.nextFD
	s.nextFD++
	s.files[fd] = openFile{shard: shard, fd: resp.FD, flags: flags}
	resp.FD = fd
	return nil
}

// route names the shard req goes to under tab: a descriptor's table entry,
// whose shard descriptor replaces req's; Path2, where the symlink itself
// goes, for OpSymlink (the target is an uninterpreted string and may point
// anywhere); Path for everything else. false means req names a descriptor
// the table does not hold. Caller holds s.mu.
func (s *Session) route(tab *shard.Table, req *wire.Request) (uint32, bool) {
	switch req.Op {
	case wire.OpSymlink:
		return tab.Route(req.Path2).ID, true
	case wire.OpClose, wire.OpRead, wire.OpPread, wire.OpWrite, wire.OpPwrite, wire.OpSeek,
		wire.OpFsync, wire.OpFtruncate, wire.OpFallocate, wire.OpFstat:
		of, ok := s.files[req.FD]
		req.FD = of.fd
		return of.shard, ok
	}
	return tab.Route(req.Path).ID, true // Validate guarantees coverage
}

// anyShard makes doShard route a request by its own path or descriptor.
const anyShard = -1

// errCrossShard is doShard's answer to a rename or link whose two names the
// map puts on different shards.
var errCrossShard = errors.New("wire client: names on different shards")

// doShard sends one request to its shard and returns the answer, with the
// answer's error code as the error, and the shard. The shard is pin, or, for
// anyShard, the one route names. Moved answers are followed (refresh +
// rehome + backoff; on a fixed table moved declines, and the Moved is the
// answer) up to maxMovedHops, and every hop routes afresh, so a
// migration that re-routes the path mid-retry is picked up and a rename or
// link whose names a new map splits stops with errCrossShard. A descriptor
// stays on the shard it was opened on: migration moves the whole link
// (rehome), never a descriptor. Errors other than Moved pass through
// untouched.
func (s *Session) doShard(req wire.Request, pin int64, dst []byte) (wire.Response, uint32, error) {
	b := s.movedBackoff()
	var err error
	for hop := 0; hop <= maxMovedHops; hop++ {
		if hop > 0 {
			time.Sleep(b.next())
		}
		sent, id, ok := req, uint32(pin), true
		tab := s.rt.tab.Load()
		s.mu.Lock() // one hold routes the request and finds its link
		if pin == anyShard {
			id, ok = s.route(tab, &sent)
		}
		l := s.links[id]
		s.mu.Unlock()
		if !ok {
			return wire.Response{}, 0, fsapi.ErrBadFD
		}
		if pin == anyShard && (req.Op == wire.OpRename || req.Op == wire.OpLink) && tab.Route(req.Path2).ID != id {
			return wire.Response{}, id, errCrossShard
		}
		var resp wire.Response
		err = nil
		if l == nil {
			l, err = s.shardLink(id)
		}
		if err == nil {
			if resp, err = l.callDst(sent, dst); err == nil {
				if err = s.track(id, &req, &resp); err == nil {
					err = resp.Err()
				}
			}
		}
		if err == nil || !errors.Is(err, wire.ErrMoved) || !s.moved(id, err) {
			return resp, id, err
		}
	}
	return wire.Response{}, 0, fmt.Errorf("wire client: shard routing did not converge after %d moved hops: %w", maxMovedHops, err)
}

// do is doShard for a request routed by its own path or descriptor.
func (s *Session) do(req wire.Request) (wire.Response, error) {
	resp, _, err := s.doShard(req, anyShard, nil)
	return resp, err
}

// --- fsapi.Client ---------------------------------------------------------

// Create creates a regular file and opens it for writing.
func (s *Session) Create(path string, perm uint32) (fsapi.FD, error) {
	resp, err := s.do(wire.Request{Op: wire.OpCreate, Path: path, Perm: perm})
	if err != nil {
		return -1, err
	}
	return resp.FD, nil
}

// Open opens an existing file (or creates with OCreate).
func (s *Session) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	resp, err := s.do(wire.Request{Op: wire.OpOpen, Path: path, Flags: uint32(flags), Perm: perm})
	if err != nil {
		return -1, err
	}
	return resp.FD, nil
}

// Close releases the descriptor; like close(2), the descriptor is gone even
// when the call errors. The reply does not wait for the quorum (see
// server.execBatch): nothing the session can observe depends on the close
// having been replicated.
func (s *Session) Close(fd fsapi.FD) error {
	_, err := s.do(wire.Request{Op: wire.OpClose, FD: fd})
	s.mu.Lock()
	delete(s.files, fd)
	s.mu.Unlock()
	return err
}

// Read reads at the descriptor's position and advances it: a pread at the
// open-file table's offset, which the server answers without the replication
// log.
func (s *Session) Read(fd fsapi.FD, p []byte) (int, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	n, err := s.Pread(fd, p, of.pos)
	s.setPos(fd, of.pos+uint64(n))
	return n, err
}

// Pread reads at an explicit offset without moving the position, chunking
// requests larger than wire.MaxIO into sequential wire reads. Each chunk's
// destination slice rides the request down to the reply decoder, so the
// data is copied exactly once: frame buffer → p.
func (s *Session) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	total := 0
	for {
		ask := len(p) - total
		if ask > wire.MaxIO {
			ask = wire.MaxIO
		}
		dst := p[total : total+ask : total+ask]
		resp, _, err := s.doShard(wire.Request{Op: wire.OpPread, FD: fd, Size: uint32(ask), Off: off + uint64(total)}, anyShard, dst)
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		n := readInto(dst, resp.Data, p[total:])
		total += n
		if n < ask || total == len(p) {
			return total, nil
		}
	}
}

// readInto finalizes a read chunk: when the decoder already landed data in
// dst the bytes are in place, otherwise (oversized or foreign backing) they
// are copied into rest.
func readInto(dst, data, rest []byte) int {
	if len(data) == 0 {
		return 0
	}
	if &data[0] == &dst[0] && len(data) <= len(dst) {
		return len(data)
	}
	return copy(rest, data)
}

// Write writes at the descriptor's position and advances it: a pwrite at the
// open-file table's offset. On a descriptor opened O_APPEND the position is
// the end of the file, which only the server can name under the file's lock:
// those writes go as OpWrite, chunked like Pwrite's, and each reply says
// where it left the descriptor.
func (s *Session) Write(fd fsapi.FD, p []byte) (int, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	if of.flags&fsapi.OAppend == 0 {
		n, err := s.Pwrite(fd, p, of.pos)
		s.setPos(fd, of.pos+uint64(n))
		return n, err
	}
	total := 0
	for {
		chunk := p[total:]
		if len(chunk) > wire.MaxIO {
			chunk = chunk[:wire.MaxIO]
		}
		resp, err := s.do(wire.Request{Op: wire.OpWrite, FD: fd, Data: chunk})
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		s.setPos(fd, uint64(resp.Off))
		total += int(resp.N)
		if int(resp.N) < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Pwrite writes at an explicit offset without moving the position.
func (s *Session) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	total := 0
	for {
		chunk := p[total:]
		if len(chunk) > wire.MaxIO {
			chunk = chunk[:wire.MaxIO]
		}
		resp, err := s.do(wire.Request{Op: wire.OpPwrite, FD: fd, Data: chunk, Off: off + uint64(total)})
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		total += int(resp.N)
		if int(resp.N) < len(chunk) || total == len(p) {
			return total, nil
		}
	}
}

// Seek repositions the descriptor: arithmetic on the open-file table, with
// the file's size fetched from the server for SeekEnd and no frame otherwise.
func (s *Session) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	of, err := s.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case fsapi.SeekSet:
	case fsapi.SeekCur:
		base = int64(of.pos)
	case fsapi.SeekEnd:
		st, err := s.Fstat(fd)
		if err != nil {
			return 0, err
		}
		base = int64(st.Size)
	default:
		return 0, fsapi.ErrInval
	}
	if base+off < 0 {
		return 0, fsapi.ErrInval
	}
	s.setPos(fd, uint64(base+off))
	return base + off, nil
}

// Fsync has nothing to wait for: a write is persistent (NT stores and a
// fence) and covered by the quorum before it is acknowledged. It only checks
// the descriptor.
func (s *Session) Fsync(fd fsapi.FD) error {
	_, err := s.file(fd)
	return err
}

// Ftruncate sets the file size.
func (s *Session) Ftruncate(fd fsapi.FD, size uint64) error {
	_, err := s.do(wire.Request{Op: wire.OpFtruncate, FD: fd, Off: size})
	return err
}

// Fallocate preallocates space for [0, size).
func (s *Session) Fallocate(fd fsapi.FD, size uint64) error {
	_, err := s.do(wire.Request{Op: wire.OpFallocate, FD: fd, Off: size})
	return err
}

// Fstat stats an open descriptor.
func (s *Session) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	resp, err := s.do(wire.Request{Op: wire.OpFstat, FD: fd})
	return resp.Stat, err
}

// Stat resolves a path (following symlinks) and returns its attributes.
func (s *Session) Stat(path string) (fsapi.Stat, error) {
	resp, err := s.do(wire.Request{Op: wire.OpStat, Path: path})
	return resp.Stat, err
}

// Lstat is Stat without following a final symlink.
func (s *Session) Lstat(path string) (fsapi.Stat, error) {
	resp, err := s.do(wire.Request{Op: wire.OpLstat, Path: path})
	return resp.Stat, err
}

// Mkdir creates a directory.
func (s *Session) Mkdir(path string, perm uint32) error {
	_, err := s.do(wire.Request{Op: wire.OpMkdir, Path: path, Perm: perm})
	return err
}

// Rmdir removes an empty directory.
func (s *Session) Rmdir(path string) error {
	_, err := s.do(wire.Request{Op: wire.OpRmdir, Path: path})
	return err
}

// Unlink removes a file or symlink.
func (s *Session) Unlink(path string) error {
	_, err := s.do(wire.Request{Op: wire.OpUnlink, Path: path})
	return err
}

// Symlink creates a symbolic link at linkPath pointing to target.
func (s *Session) Symlink(target, linkPath string) error {
	_, err := s.do(wire.Request{Op: wire.OpSymlink, Path: target, Path2: linkPath})
	return err
}

// Readlink returns a symlink's target.
func (s *Session) Readlink(path string) (string, error) {
	resp, err := s.do(wire.Request{Op: wire.OpReadlink, Path: path})
	return resp.Str, err
}

// Chmod updates permission bits.
func (s *Session) Chmod(path string, perm uint32) error {
	_, err := s.do(wire.Request{Op: wire.OpChmod, Path: path, Perm: perm})
	return err
}

// Utimes sets access/modification times (unix nanoseconds).
func (s *Session) Utimes(path string, atime, mtime int64) error {
	_, err := s.do(wire.Request{Op: wire.OpUtimes, Path: path, Off: uint64(atime), Off2: uint64(mtime)})
	return err
}
