package client_test

// The open-file table — which descriptors a session holds, how each was
// opened and where it stands — lives in the client process. These tests hold
// it to what that means: positions follow POSIX without the server keeping
// any, fsync and seek cross no wire, a Submit's opens and closes keep the
// table in step, and a server refuses the requests that used to move its
// positions.

import (
	"bytes"
	"errors"
	"io"
	"regexp"
	"strconv"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

var framesReadRE = regexp.MustCompile(`(?m)^simurgh_wire_frames_read_total (\d+)$`)

// framesRead is how many frames the server has read off its connections.
func framesRead(t testing.TB, srv *server.Server) uint64 {
	t.Helper()
	var buf bytes.Buffer
	srv.WriteMetrics(&buf)
	m := framesReadRE.FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatal("no simurgh_wire_frames_read_total in the server's metrics")
	}
	n, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// smallSession attaches to a fresh 16 MiB volume.
func smallSession(t *testing.T) (*client.Session, *server.Server) {
	t.Helper()
	remote, srv := serveSized(t, 16<<20)
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Detach() })
	return c.(*client.Session), srv
}

// TestAppendPositionFollowsServer: an O_APPEND write lands at an end of file
// only the server can name, and the table follows it — a read right after it
// is at end of file, and the position is the file's size, however the file
// grew in between.
func TestAppendPositionFollowsServer(t *testing.T) {
	c, _ := smallSession(t)
	const path = "/f"
	w, err := c.Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(w, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	a, err := c.Open(path, fsapi.ORdwr|fsapi.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := c.Seek(a, 0, fsapi.SeekCur); err != nil || pos != 0 {
		t.Fatalf("fresh descriptor at %d, %v", pos, err)
	}
	// The other descriptor grows the file behind this one's back.
	if _, err := c.Write(w, []byte("abcde")); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Write(a, []byte("XYZ")); err != nil || n != 3 {
		t.Fatalf("append = %d, %v", n, err)
	}
	buf := make([]byte, 8)
	if n, err := c.Read(a, buf); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read after append = %d, %v; want end of file", n, err)
	}
	st, err := c.Fstat(a)
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := c.Seek(a, 0, fsapi.SeekCur); err != nil || uint64(pos) != st.Size || pos != 18 {
		t.Fatalf("position %d, %v after the append; the file has %d bytes", pos, err, st.Size)
	}
	if pos, err := c.Seek(a, -8, fsapi.SeekEnd); err != nil || pos != 10 {
		t.Fatalf("seek(-8, end) = %d, %v", pos, err)
	}
	if n, err := c.Read(a, buf); err != nil || string(buf[:n]) != "abcdeXYZ" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	// The writer's own position never saw the append.
	if pos, _ := c.Seek(w, 0, fsapi.SeekCur); pos != 15 {
		t.Fatalf("writer at %d, want 15", pos)
	}
	if _, err := c.Seek(a, -1, fsapi.SeekSet); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("seek before the start: %v", err)
	}
	if _, err := c.Seek(a, 0, 7); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("seek with whence 7: %v", err)
	}
}

// TestSeekFsyncCrossNoWire counts the frames the server reads: fsync and
// seek on an open descriptor add none, and on a closed one they fail where
// they are, as read, write and a second close do.
func TestSeekFsyncCrossNoWire(t *testing.T) {
	c, srv := smallSession(t)
	fd, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	before := framesRead(t, srv)
	for i := 0; i < 50; i++ {
		if err := c.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		if pos, err := c.Seek(fd, int64(i), fsapi.SeekSet); err != nil || pos != int64(i) {
			t.Fatalf("seek = %d, %v", pos, err)
		}
		if pos, err := c.Seek(fd, 1, fsapi.SeekCur); err != nil || pos != int64(i)+1 {
			t.Fatalf("seek = %d, %v", pos, err)
		}
	}
	if n := framesRead(t, srv) - before; n != 0 {
		t.Fatalf("100 seeks and 50 fsyncs sent %d frames", n)
	}
	if pos, err := c.Seek(fd, -10, fsapi.SeekEnd); err != nil || pos != 90 {
		t.Fatalf("seek(-10, end) = %d, %v", pos, err)
	}
	if n := framesRead(t, srv) - before; n != 1 {
		t.Fatalf("a seek from the end sent %d frames, want the one fstat", n)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	before = framesRead(t, srv)
	if err := c.Fsync(fd); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("fsync on a closed descriptor: %v", err)
	}
	if _, err := c.Seek(fd, 0, fsapi.SeekSet); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("seek on a closed descriptor: %v", err)
	}
	if _, err := c.Read(fd, make([]byte, 1)); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("read on a closed descriptor: %v", err)
	}
	if _, err := c.Write(fd, []byte{1}); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("write on a closed descriptor: %v", err)
	}
	if err := c.Close(fd); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("second close: %v", err)
	}
	if n := framesRead(t, srv) - before; n != 0 {
		t.Fatalf("calls on a closed descriptor sent %d frames", n)
	}
}

// TestSubmitKeepsOpenFilesInStep: a descriptor a batch opened is the fsapi
// methods' to position, one a batch closed is gone from them.
func TestSubmitKeepsOpenFilesInStep(t *testing.T) {
	// The routed session spans two shards and works on shard 1, so every
	// descriptor goes through the router's translation as well.
	kinds := map[string]func(t *testing.T) (batchClient, string){
		"session": func(t *testing.T) (batchClient, string) {
			c, _ := smallSession(t)
			return c, "/f"
		},
		"routed": func(t *testing.T) (batchClient, string) {
			rt, m := serveHashCluster(t, 2)
			c, err := rt.Attach(fsapi.Root)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Detach() })
			return c.(*client.Session), pathOnShard(t, m, "f", 1)
		},
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			c, path := mk(t)
			resps, err := c.Submit([]wire.Request{
				{Op: wire.OpCreate, Path: path, Perm: 0o644},
				{Op: wire.OpOpen, Path: path, Flags: uint32(fsapi.ORdwr | fsapi.OAppend)},
				{Op: wire.OpOpen, Path: path + ".missing", Flags: uint32(fsapi.ORdonly)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resps[0].Code != wire.CodeOK || resps[1].Code != wire.CodeOK || !errors.Is(resps[2].Err(), fsapi.ErrNotExist) {
				t.Fatalf("create %v, open %v, open of a missing file %v", resps[0].Err(), resps[1].Err(), resps[2].Err())
			}
			w, a := resps[0].FD, resps[1].FD
			if _, err := c.Write(w, []byte("hello, ")); err != nil {
				t.Fatalf("write on a descriptor a batch created: %v", err)
			}
			if _, err := c.Write(a, []byte("world")); err != nil {
				t.Fatalf("write on a descriptor a batch opened: %v", err)
			}
			if pos, err := c.Seek(w, 0, fsapi.SeekCur); err != nil || pos != 7 {
				t.Fatalf("created descriptor at %d, %v", pos, err)
			}
			if pos, err := c.Seek(a, 0, fsapi.SeekCur); err != nil || pos != 12 {
				t.Fatalf("the batch's open flags were lost: append left the descriptor at %d, %v", pos, err)
			}
			c.Seek(a, 0, fsapi.SeekSet)
			buf := make([]byte, 32)
			if n, err := c.Read(a, buf); err != nil || string(buf[:n]) != "hello, world" {
				t.Fatalf("read = %q, %v", buf[:n], err)
			}
			resps, err = c.Submit([]wire.Request{{Op: wire.OpClose, FD: a}, {Op: wire.OpClose, FD: a}})
			if err != nil {
				t.Fatal(err)
			}
			if resps[0].Code != wire.CodeOK || !errors.Is(resps[1].Err(), fsapi.ErrBadFD) {
				t.Fatalf("batched closes: %v, %v", resps[0].Err(), resps[1].Err())
			}
			if err := c.Fsync(a); !errors.Is(err, fsapi.ErrBadFD) {
				t.Fatalf("fsync on a descriptor a batch closed: %v", err)
			}
			if err := c.Fsync(w); err != nil {
				t.Fatalf("fsync on the descriptor left open: %v", err)
			}
		})
	}
}

// TestSubmitClosesEmptyOpenFiles: descriptors one batch creates and another
// closes leave the session's open-file table empty, and a call on one of
// them then fails in the process, with no frame sent. The routed session's
// batches span both shards.
func TestSubmitClosesEmptyOpenFiles(t *testing.T) {
	kinds := map[string]func(t *testing.T) (batchClient, []string, []*server.Server){
		"session": func(t *testing.T) (batchClient, []string, []*server.Server) {
			c, srv := smallSession(t)
			paths := make([]string, 16)
			for i := range paths {
				paths[i] = "/c" + strconv.Itoa(i)
			}
			return c, paths, []*server.Server{srv}
		},
		"routed": func(t *testing.T) (batchClient, []string, []*server.Server) {
			rt, m, _, srvs := serveClusterVols(t, make([]string, 2))
			c, err := rt.Attach(fsapi.Root)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Detach() })
			paths := make([]string, 16)
			for i := range paths {
				paths[i] = pathOnShard(t, m, "c"+strconv.Itoa(i)+"-", uint32(i%2))
			}
			return c.(*client.Session), paths, srvs
		},
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			c, paths, srvs := mk(t)
			for round := 0; round < 4; round++ {
				reqs := make([]wire.Request, len(paths))
				for i, p := range paths {
					reqs[i] = wire.Request{Op: wire.OpCreate, Path: p, Perm: 0o644}
				}
				resps, err := c.Submit(reqs)
				if err != nil {
					t.Fatal(err)
				}
				if n := c.OpenFiles(); n != len(paths) {
					t.Fatalf("round %d: %d descriptors open after %d creates", round, n, len(paths))
				}
				for i := range reqs {
					if resps[i].Code != wire.CodeOK {
						t.Fatalf("create %s: %v", paths[i], resps[i].Err())
					}
					reqs[i] = wire.Request{Op: wire.OpClose, FD: resps[i].FD}
				}
				if resps, err = c.Submit(reqs); err != nil {
					t.Fatal(err)
				}
				for i := range resps {
					if resps[i].Code != wire.CodeOK {
						t.Fatalf("close of descriptor %d: %v", reqs[i].FD, resps[i].Err())
					}
				}
				if n := c.OpenFiles(); n != 0 {
					t.Fatalf("round %d: %d descriptors left open after the batched closes", round, n)
				}
			}
			frames := func() (n uint64) {
				for _, srv := range srvs {
					n += framesRead(t, srv)
				}
				return n
			}
			before := frames()
			if _, err := c.Fstat(1); !errors.Is(err, fsapi.ErrBadFD) {
				t.Fatalf("fstat on a descriptor a batch closed: %v", err)
			}
			if n := frames() - before; n != 0 {
				t.Fatalf("fstat on a closed descriptor sent %d frames", n)
			}
		})
	}
}

// TestPlainAttachIsUnclaimed: a plain session claims no shard, so it
// attaches to a node of a sharded cluster whatever shard that node serves,
// and its calls are served there.
func TestPlainAttachIsUnclaimed(t *testing.T) {
	_, m := serveHashCluster(t, 2)
	remote, err := client.Dial(m.Shards[1].Addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatalf("plain attach to shard 1's node: %v", err)
	}
	defer c.Detach()
	fd, err := c.Create(pathOnShard(t, m, "u", 1), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fstat(fd); err != nil {
		t.Fatalf("fstat on the plain session's descriptor: %v", err)
	}
}

// TestPlainSessionMovedKeepsDescriptors: a plain session's table is its
// Remote's own, not a shard of the cluster's map, so a Moved answer goes
// back to the caller. It must not install the map the node serves, re-point
// the Remote or rehome the link: any of those would take the session's
// descriptors to another group's volume.
func TestPlainSessionMovedKeepsDescriptors(t *testing.T) {
	rt, m := serveHashCluster(t, 2)
	// A file on shard 0, held open, so that a descriptor number re-sent
	// to shard 0's node would name it.
	rc, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Detach()
	theirs, err := rc.Create(pathOnShard(t, m, "theirs", 0), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Write(theirs, []byte("theirs")); err != nil {
		t.Fatal(err)
	}

	remote, err := client.Dial(m.Shards[1].Addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	mine := pathOnShard(t, m, "mine", 1)
	fd, err := c.Open(mine, fsapi.OCreate|fsapi.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(pathOnShard(t, m, "other", 0)); !errors.Is(err, wire.ErrMoved) {
		t.Fatalf("plain Stat of a path shard 1 does not serve = %v, want ErrMoved", err)
	}
	buf := make([]byte, 16)
	n, err := c.Pread(fd, buf, 0)
	if err != nil || string(buf[:n]) != "mine" {
		t.Fatalf("Pread after the Moved = %q, %v; want the session's own file", buf[:n], err)
	}
	// The Remote still points at shard 1's node, unclaimed.
	c2, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	if _, err := c2.Stat(mine); err != nil {
		t.Fatalf("a second plain session on the same Remote: %v", err)
	}
}

// TestRetiredOpsRefused: a request that still asks the server to move a
// position, or to fsync, is answered ErrInval and touches nothing — by a
// standalone server and by a replicated one, where the first two used to
// travel the log.
func TestRetiredOpsRefused(t *testing.T) {
	attach := map[string]func(t *testing.T) fsapi.Client{
		"standalone": func(t *testing.T) fsapi.Client {
			c, _ := smallSession(t)
			return c
		},
		"replicated": func(t *testing.T) fsapi.Client {
			remote, err := client.Dial(startReplicatedServer(t), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { remote.Close() })
			c, err := remote.Attach(fsapi.Root)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Detach() })
			return c
		},
	}
	for name, mk := range attach {
		t.Run(name, func(t *testing.T) {
			c := mk(t).(*client.Session)
			fd, err := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(fd, []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			resps, err := c.Submit([]wire.Request{
				{Op: wire.OpRead, FD: fd, Size: 4},
				{Op: wire.OpSeek, FD: fd, Off: 4, Flags: fsapi.SeekSet},
				{Op: wire.OpFsync, FD: fd},
				{Op: wire.OpPread, FD: fd, Size: 4, Off: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if !errors.Is(resps[i].Err(), fsapi.ErrInval) || resps[i].Data != nil {
					t.Errorf("%v answered %v with %d bytes, want ErrInval", resps[i].Op, resps[i].Err(), len(resps[i].Data))
				}
			}
			if resps[3].Code != wire.CodeOK || string(resps[3].Data) != "2345" {
				t.Errorf("the pread beside them: %q, %v", resps[3].Data, resps[3].Err())
			}
			// A write through the server's own cursor, which raw OpWrite on a
			// descriptor not opened O_APPEND still uses, shows nothing moved it.
			resps, err = c.Submit([]wire.Request{{Op: wire.OpWrite, FD: fd, Data: []byte("ab")}})
			if err != nil || resps[0].Code != wire.CodeOK {
				t.Fatalf("raw write: %v, %v", err, resps[0].Err())
			}
			if resps[0].N != 2 || resps[0].Off != 2 {
				t.Errorf("raw write wrote %d bytes and left the server's cursor at %d, want 2 and 2", resps[0].N, resps[0].Off)
			}
		})
	}
}
