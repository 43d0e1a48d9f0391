package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"simurgh/internal/fsapi"
)

// Edge-case battery for the client layer.

func TestDeepDirectoryNesting(t *testing.T) {
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	path := ""
	for i := 0; i < 40; i++ {
		path += fmt.Sprintf("/level%d", i)
		if err := c.Mkdir(path, 0o755); err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
	}
	if _, err := c.Create(path+"/leaf", 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat(path + "/leaf")
	if err != nil || !fsapi.IsRegular(st.Mode) {
		t.Fatalf("deep stat = %v", err)
	}
}

func TestMaxNameLength(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	max := strings.Repeat("n", fsapi.MaxNameLen)
	if _, err := c.Create("/"+max, 0o644); err != nil {
		t.Fatalf("max-length name: %v", err)
	}
	if _, err := c.Stat("/" + max); err != nil {
		t.Fatal(err)
	}
	over := strings.Repeat("n", fsapi.MaxNameLen+1)
	if _, err := c.Create("/"+over, 0o644); !errors.Is(err, fsapi.ErrNameTooLong) {
		t.Fatalf("overlong name: %v", err)
	}
}

func TestDotAndDotDotResolution(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Mkdir("/a", 0o755)
	c.Mkdir("/a/b", 0o755)
	c.Create("/a/b/f", 0o644)
	for _, p := range []string{"/a/./b/f", "/a/b/../b/f", "/a/../a/b/./f", "/../a/b/f"} {
		if _, err := c.Stat(p); err != nil {
			t.Fatalf("stat %q: %v", p, err)
		}
	}
}

func TestOpenDirectoryForWriteFails(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Mkdir("/d", 0o755)
	if _, err := c.Open("/d", fsapi.OWronly, 0); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("open dir for write: %v", err)
	}
	if _, err := c.Open("/d", fsapi.ORdonly, 0); err != nil {
		t.Fatalf("open dir for read: %v", err)
	}
}

func TestPathThroughFileFails(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Create("/file", 0o644)
	if _, err := c.Stat("/file/sub"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("path through file: %v", err)
	}
	if _, err := c.Create("/file/sub", 0o644); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("create through file: %v", err)
	}
}

func TestZeroLengthIO(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
	if n, err := c.Write(fd, nil); n != 0 || err != nil {
		t.Fatalf("zero write = (%d, %v)", n, err)
	}
	if n, err := c.Read(fd, nil); n != 0 || err != nil {
		t.Fatalf("zero read = (%d, %v)", n, err)
	}
}

func TestSeekNegativeRejected(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
	if _, err := c.Seek(fd, -10, fsapi.SeekSet); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("negative seek: %v", err)
	}
	if _, err := c.Seek(fd, 0, 99); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("bad whence: %v", err)
	}
}

func TestSparseWriteReadsZeroHole(t *testing.T) {
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/sparse", fsapi.OCreate|fsapi.ORdwr, 0o644)
	// Write far past the start; the hole must read as zeros.
	if _, err := c.Pwrite(fd, []byte("end"), 1<<20); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := c.Pread(fd, buf, 4096)
	if err != nil || n != 4096 {
		t.Fatalf("hole read = (%d, %v)", n, err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

func TestRenameToSamePathIsNoop(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Create("/same", 0o644)
	if err := c.Rename("/same", "/same"); err != nil {
		t.Fatalf("self-rename: %v", err)
	}
	if _, err := c.Stat("/same"); err != nil {
		t.Fatal("file lost in self-rename")
	}
}

func TestRenameDirectoryReplacesEmptyDir(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Mkdir("/src", 0o755)
	c.Create("/src/x", 0o644)
	c.Mkdir("/dst", 0o755)
	if err := c.Rename("/src", "/dst"); err != nil {
		t.Fatalf("rename dir over empty dir: %v", err)
	}
	if _, err := c.Stat("/dst/x"); err != nil {
		t.Fatal("moved dir content lost")
	}
	// Replacing a non-empty directory must fail.
	c.Mkdir("/src2", 0o755)
	if err := c.Rename("/src2", "/dst"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rename over non-empty dir: %v", err)
	}
}

func TestHardLinkToDirectoryRejected(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Mkdir("/d", 0o755)
	if err := c.Link("/d", "/d2"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("hard link to dir: %v", err)
	}
}

func TestManyClientsIndependentFDTables(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c1 := rootClient(t, fs)
	c2 := rootClient(t, fs)
	fd1, _ := c1.Create("/shared-file", 0o644)
	// The fd belongs to c1's table only.
	if _, err := c2.Pwrite(fd1, []byte("x"), 0); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("cross-client fd use: %v", err)
	}
	// Both clients can open the same file independently.
	fd2, err := c2.Open("/shared-file", fsapi.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1.Write(fd1, []byte("from-c1"))
	buf := make([]byte, 16)
	n, _ := c2.Pread(fd2, buf, 0)
	if string(buf[:n]) != "from-c1" {
		t.Fatalf("cross-client visibility = %q", buf[:n])
	}
}

// TestReserveFDsOnlyRaises: after ReserveFDs(n) the next open gets n+1, and
// a reservation below what was already handed out changes nothing.
func TestReserveFDsOnlyRaises(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.(*Client).ReserveFDs(9)
	if fd, err := c.Create("/a", 0o644); err != nil || fd != 10 {
		t.Fatalf("create after ReserveFDs(9) = %d, %v; want 10", fd, err)
	}
	c.(*Client).ReserveFDs(4)
	if fd, err := c.Open("/a", fsapi.ORdonly, 0); err != nil || fd != 11 {
		t.Fatalf("open after ReserveFDs(4) = %d, %v; want 11", fd, err)
	}
	if _, err := c.Open("/missing", fsapi.ORdonly, 0); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
	if fd, err := c.Open("/a", fsapi.ORdonly, 0); err != nil || fd != 12 {
		t.Fatalf("open after a failed open = %d, %v; want 12", fd, err)
	}
}

func TestSymlinkTargetTooLong(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	long := "/" + strings.Repeat("x", 600)
	if err := c.Symlink(long, "/l"); !errors.Is(err, fsapi.ErrNameTooLong) {
		t.Fatalf("oversized symlink target: %v", err)
	}
}

func TestReadlinkOnRegularFile(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	c.Create("/plain", 0o644)
	if _, err := c.Readlink("/plain"); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("readlink on file: %v", err)
	}
}

func TestRmdirRootRejected(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	if err := c.Rmdir("/"); err == nil {
		t.Fatal("rmdir / succeeded")
	}
}

func TestFilesWithSameHashLine(t *testing.T) {
	// Stuff enough same-line names into one directory that the line's
	// slots overflow into chained blocks, then verify all lookups.
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	var sameLine []string
	line := lineOf(fnv32("seed"))
	for i := 0; len(sameLine) < 30; i++ {
		name := fmt.Sprintf("cand%d", i)
		if lineOf(fnv32(name)) == line {
			sameLine = append(sameLine, name)
		}
	}
	for _, n := range sameLine {
		if _, err := c.Create("/"+n, 0o644); err != nil {
			t.Fatalf("create %s: %v", n, err)
		}
	}
	for _, n := range sameLine {
		if _, err := c.Stat("/" + n); err != nil {
			t.Fatalf("stat %s: %v", n, err)
		}
	}
	// Delete every other one and re-verify.
	for i, n := range sameLine {
		if i%2 == 0 {
			if err := c.Unlink("/" + n); err != nil {
				t.Fatalf("unlink %s: %v", n, err)
			}
		}
	}
	for i, n := range sameLine {
		_, err := c.Stat("/" + n)
		if i%2 == 0 && !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("deleted %s visible: %v", n, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("%s lost: %v", n, err)
		}
	}
}

// TestCreateGrantsWhatItAsks: a create returns the descriptor its flags
// ask for, whatever permissions it gives the new file (POSIX open(2) with
// O_CREAT), and pays for the create only: no access check against the mode
// just given, no truncate of the empty file and none of its file-lock round
// trip.
func TestCreateGrantsWhatItAsks(t *testing.T) {
	dev, fs := newFSForTest(t, 32<<20)
	if err := rootClient(t, fs).Mkdir("/tmp", 0o777); err != nil {
		t.Fatal(err)
	}
	cl, _ := fs.Attach(fsapi.Cred{UID: 1000, GID: 1000})
	c := cl.(*Client)
	fd, err := c.Create("/tmp/ro", 0o444)
	if err != nil {
		t.Fatalf("create of a read-only file: %v", err)
	}
	if n, err := c.Write(fd, []byte("first")); err != nil || n != 5 {
		t.Fatalf("write through the create's descriptor = (%d, %v)", n, err)
	}
	c.Close(fd)
	if _, err := c.Open("/tmp/ro", fsapi.OWronly, 0); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("a later open for writing = %v, want a permission error", err)
	}

	for i := 0; i < 4; i++ {
		before := dev.Stats.Snapshot()
		fd, err := c.Create(fmt.Sprintf("/tmp/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if d := dev.Stats.Snapshot().Sub(before); d.Flushes != 8 || d.Fences != 4 {
			t.Fatalf("create %d: %d flushes and %d fences, want 8 and 4", i, d.Flushes, d.Fences)
		}
		c.Close(fd)
	}
}
