package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

func newFSForTest(t *testing.T, size uint64) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(size)
	fs, err := Format(dev, fsapi.Root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

func rootClient(t *testing.T, fs *FS) fsapi.Client {
	t.Helper()
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateWriteReadFile(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, err := c.Create("/hello.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, simurgh")
	if n, err := c.Write(fd, msg); err != nil || n != len(msg) {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	fd, err = c.Open("/hello.txt", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	n, err := c.Read(fd, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:n], msg) {
		t.Fatalf("read %q, want %q", got[:n], msg)
	}
	if _, err := c.Read(fd, got); err != io.EOF {
		t.Fatalf("read at EOF = %v, want io.EOF", err)
	}
}

func TestCreateExclusive(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if _, err := c.Open("/f", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("/f", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, 0o644); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("second excl create = %v, want ErrExist", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if _, err := c.Open("/nope", fsapi.ORdonly, 0); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if err := c.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/a/b/c/file", 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if !fsapi.IsDir(st.Mode) {
		t.Fatal("nested dir is not a dir")
	}
	if _, err := c.Stat("/a/b/c/file"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/missing/sub", 0o755); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("mkdir under missing parent = %v", err)
	}
}

func TestUnlink(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/f", 0o644)
	c.Write(fd, make([]byte, 10000))
	c.Close(fd)
	free := fs.FreeBlocks()
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after unlink = %v", err)
	}
	if fs.FreeBlocks() <= free {
		t.Fatal("unlink did not release data blocks")
	}
	if err := c.Unlink("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("double unlink = %v", err)
	}
}

func TestUnlinkRejectsDirectory(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Mkdir("/d", 0o755)
	if err := c.Unlink("/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("unlink dir = %v, want ErrIsDir", err)
	}
}

func TestRmdir(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Mkdir("/d", 0o755)
	c.Create("/d/f", 0o644)
	if err := c.Rmdir("/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v, want ErrNotEmpty", err)
	}
	c.Unlink("/d/f")
	if err := c.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after rmdir = %v", err)
	}
	c.Create("/plainfile", 0o644)
	if err := c.Rmdir("/plainfile"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("rmdir file = %v, want ErrNotDir", err)
	}
}

func TestRenameSameDirectory(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/old", 0o644)
	c.Write(fd, []byte("payload"))
	c.Close(fd)
	if err := c.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/old"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old name survives: %v", err)
	}
	fd, err := c.Open("/new", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "payload" {
		t.Fatalf("content after rename = %q", buf[:n])
	}
}

func TestRenameReplacesDestination(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/src", 0o644)
	c.Write(fd, []byte("SRC"))
	c.Close(fd)
	fd, _ = c.Create("/dst", 0o644)
	c.Write(fd, []byte("DST-old"))
	c.Close(fd)
	if err := c.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	fd, _ = c.Open("/dst", fsapi.ORdonly, 0)
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "SRC" {
		t.Fatalf("dst content = %q, want SRC", buf[:n])
	}
	if _, err := c.Stat("/src"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("src still present")
	}
}

func TestRenameCrossDirectory(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Mkdir("/a", 0o755)
	c.Mkdir("/b", 0o755)
	fd, _ := c.Create("/a/f", 0o644)
	c.Write(fd, []byte("xdir"))
	c.Close(fd)
	if err := c.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("source entry survives cross-dir rename")
	}
	fd, err := c.Open("/b/g", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "xdir" {
		t.Fatalf("content = %q", buf[:n])
	}
}

func TestRenameMissingSource(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if err := c.Rename("/none", "/other"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestRenameDirectoryIntoOther(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Mkdir("/x", 0o755)
	c.Mkdir("/y", 0o755)
	c.Create("/x/inner", 0o644)
	if err := c.Rename("/x", "/y/x2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/y/x2/inner"); err != nil {
		t.Fatalf("moved dir content lost: %v", err)
	}
}

func TestReadDir(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	names := map[string]bool{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("file-%02d", i)
		if _, err := c.Create("/"+name, 0o644); err != nil {
			t.Fatal(err)
		}
		names[name] = true
	}
	c.Mkdir("/subdir", 0o755)
	names["subdir"] = true
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(names) {
		t.Fatalf("ReadDir returned %d entries, want %d", len(ents), len(names))
	}
	for _, e := range ents {
		if !names[e.Name] {
			t.Fatalf("unexpected entry %q", e.Name)
		}
	}
}

func TestManyFilesInSharedDirectory(t *testing.T) {
	// Forces directory chain extension well past one hash block.
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := c.Create(fmt.Sprintf("/f%05d", i), 0o644); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 97 {
		if _, err := c.Stat(fmt.Sprintf("/f%05d", i)); err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
	}
	ents, _ := c.ReadDir("/")
	if len(ents) != n {
		t.Fatalf("ReadDir found %d, want %d", len(ents), n)
	}
	// Delete them all, then the directory must look empty again.
	for i := 0; i < n; i++ {
		if err := c.Unlink(fmt.Sprintf("/f%05d", i)); err != nil {
			t.Fatalf("unlink %d: %v", i, err)
		}
	}
	ents, _ = c.ReadDir("/")
	if len(ents) != 0 {
		t.Fatalf("%d entries survive mass delete", len(ents))
	}
}

func TestLongNames(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	long := ""
	for i := 0; i < 20; i++ {
		long += "abcdefghij"
	} // 200 chars > shortNameLen
	if _, err := c.Create("/"+long, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/" + long); err != nil {
		t.Fatalf("stat long name: %v", err)
	}
	ents, _ := c.ReadDir("/")
	if len(ents) != 1 || ents[0].Name != long {
		t.Fatalf("ReadDir long name = %+v", ents)
	}
	if err := c.Unlink("/" + long); err != nil {
		t.Fatal(err)
	}
}

func TestSymlink(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/target", 0o644)
	c.Write(fd, []byte("via-link"))
	c.Close(fd)
	if err := c.Symlink("/target", "/link"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Readlink("/link")
	if err != nil || got != "/target" {
		t.Fatalf("readlink = (%q, %v)", got, err)
	}
	// Open through the link.
	fd, err = c.Open("/link", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "via-link" {
		t.Fatalf("content through symlink = %q", buf[:n])
	}
	// Lstat sees the link, Stat follows it.
	lst, _ := c.Lstat("/link")
	if !fsapi.IsSymlink(lst.Mode) {
		t.Fatal("Lstat did not report a symlink")
	}
	st, _ := c.Stat("/link")
	if !fsapi.IsRegular(st.Mode) {
		t.Fatal("Stat did not follow the symlink")
	}
}

func TestSymlinkRelativeAndNested(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Mkdir("/d", 0o755)
	fd, _ := c.Create("/d/real", 0o644)
	c.Write(fd, []byte("R"))
	c.Close(fd)
	c.Symlink("real", "/d/rel") // relative target within /d
	fd, err := c.Open("/d/rel", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatalf("open relative symlink: %v", err)
	}
	buf := make([]byte, 4)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "R" {
		t.Fatalf("content = %q", buf[:n])
	}
	// Symlink used as a directory component.
	c.Symlink("/d", "/dirlink")
	if _, err := c.Stat("/dirlink/real"); err != nil {
		t.Fatalf("stat through dir symlink: %v", err)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Symlink("/b", "/a")
	c.Symlink("/a", "/b")
	if _, err := c.Stat("/a"); !errors.Is(err, fsapi.ErrLoop) {
		t.Fatalf("loop err = %v, want ErrLoop", err)
	}
}

func TestHardLink(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/f", 0o644)
	c.Write(fd, []byte("shared"))
	c.Close(fd)
	if err := c.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	st1, _ := c.Stat("/f")
	st2, _ := c.Stat("/g")
	if st1.Ino != st2.Ino {
		t.Fatal("hard link has different inode")
	}
	if st1.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", st1.Nlink)
	}
	// Removing one name keeps the data alive.
	c.Unlink("/f")
	fd, err := c.Open("/g", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "shared" {
		t.Fatalf("content after first unlink = %q", buf[:n])
	}
	st2, _ = c.Stat("/g")
	if st2.Nlink != 1 {
		t.Fatalf("nlink after unlink = %d", st2.Nlink)
	}
	c.Unlink("/g")
	if _, err := c.Stat("/g"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("file survives last unlink")
	}
}

func TestPermissions(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	rootC := rootClient(t, fs)
	alice := fsapi.Cred{UID: 1000, GID: 1000}
	bob := fsapi.Cred{UID: 1001, GID: 1001}
	ca, _ := fs.Attach(alice)
	cb, _ := fs.Attach(bob)

	// /home is world-writable so alice can make her own 0700 directory.
	rootC.Mkdir("/home", 0o777)
	if err := ca.Mkdir("/home/alice", 0o700); err != nil {
		t.Fatal(err)
	}
	fd, err := ca.(*Client).Create("/home/alice/secret", 0o600)
	if err != nil {
		t.Fatal(err)
	}
	ca.Write(fd, []byte("s3cr3t"))
	ca.Close(fd)

	// Bob cannot traverse alice's 0700 dir.
	if _, err := cb.Open("/home/alice/secret", fsapi.ORdonly, 0); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob open = %v, want ErrPerm", err)
	}
	if _, err := cb.Stat("/home/alice/secret"); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob stat = %v, want ErrPerm", err)
	}
	// Bob cannot create in alice's dir either.
	if _, err := cb.Create("/home/alice/evil", 0o644); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob create = %v, want ErrPerm", err)
	}
	// Root can.
	if _, err := rootC.Open("/home/alice/secret", fsapi.ORdonly, 0); err != nil {
		t.Fatalf("root open: %v", err)
	}
	// Alice opens her own file read-write.
	if _, err := ca.Open("/home/alice/secret", fsapi.ORdwr, 0); err != nil {
		t.Fatalf("alice open: %v", err)
	}
	// A 0600 file is not writable by bob even if reachable.
	fd, _ = ca.Create("/home/alice/shared-path", 0o644)
	ca.Close(fd)
	ca.Chmod("/home/alice", 0o755)
	if _, err := cb.Open("/home/alice/shared-path", fsapi.OWronly, 0); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob write-open 0644 = %v, want ErrPerm", err)
	}
	if _, err := cb.Open("/home/alice/shared-path", fsapi.ORdonly, 0); err != nil {
		t.Fatalf("bob read-open 0644: %v", err)
	}
}

func TestChmodOnlyOwnerOrRoot(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	alice := fsapi.Cred{UID: 1000, GID: 1000}
	bob := fsapi.Cred{UID: 1001, GID: 1001}
	ca, _ := fs.Attach(alice)
	cb, _ := fs.Attach(bob)
	rootC := rootClient(t, fs)
	rootC.Chmod("/", 0o777)
	fd, _ := ca.Create("/mine", 0o644)
	ca.Close(fd)
	if err := cb.Chmod("/mine", 0o777); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob chmod = %v, want ErrPerm", err)
	}
	if err := ca.Chmod("/mine", 0o600); err != nil {
		t.Fatal(err)
	}
	st, _ := ca.Stat("/mine")
	if st.Mode&fsapi.ModePermMask != 0o600 {
		t.Fatalf("mode = %o", st.Mode&fsapi.ModePermMask)
	}
}

func TestSeekAndPreadPwrite(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
	c.Write(fd, []byte("0123456789"))
	if pos, err := c.Seek(fd, 2, fsapi.SeekSet); err != nil || pos != 2 {
		t.Fatalf("seek = (%d, %v)", pos, err)
	}
	buf := make([]byte, 3)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "234" {
		t.Fatalf("read after seek = %q", buf[:n])
	}
	if pos, _ := c.Seek(fd, -2, fsapi.SeekEnd); pos != 8 {
		t.Fatalf("seek end = %d", pos)
	}
	if pos, _ := c.Seek(fd, 1, fsapi.SeekCur); pos != 9 {
		t.Fatalf("seek cur = %d", pos)
	}
	if _, err := c.Pwrite(fd, []byte("AB"), 4); err != nil {
		t.Fatal(err)
	}
	n, err := c.Pread(fd, buf, 3)
	if err != nil || string(buf[:n]) != "3AB" {
		t.Fatalf("pread = (%q, %v)", buf[:n], err)
	}
}

func TestAppendMode(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/log", fsapi.OCreate|fsapi.OWronly|fsapi.OAppend, 0o644)
	c.Write(fd, []byte("one,"))
	c.Write(fd, []byte("two,"))
	c.Close(fd)
	fd, _ = c.Open("/log", fsapi.OCreate|fsapi.OWronly|fsapi.OAppend, 0o644)
	c.Write(fd, []byte("three"))
	c.Close(fd)
	fd, _ = c.Open("/log", fsapi.ORdonly, 0)
	buf := make([]byte, 64)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "one,two,three" {
		t.Fatalf("appended content = %q", buf[:n])
	}
}

func TestTruncateGrowShrink(t *testing.T) {
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
	data := bytes.Repeat([]byte{0xAA}, 3*BlockSize)
	c.Write(fd, data)
	free := fs.FreeBlocks()
	if err := c.Ftruncate(fd, BlockSize); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Fstat(fd)
	if st.Size != BlockSize {
		t.Fatalf("size after shrink = %d", st.Size)
	}
	if fs.FreeBlocks() <= free {
		t.Fatal("shrink did not free blocks")
	}
	if err := c.Ftruncate(fd, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*BlockSize)
	n, _ := c.Pread(fd, buf, 0)
	if n != 2*BlockSize {
		t.Fatalf("read %d bytes after grow", n)
	}
	for i := 0; i < BlockSize; i++ {
		if buf[i] != 0xAA {
			t.Fatalf("kept byte %d = %x", i, buf[i])
		}
	}
}

func TestFallocate(t *testing.T) {
	_, fs := newFSForTest(t, 64<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/big", 0o644)
	if err := c.Fallocate(fd, 4<<20); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Fstat(fd)
	if st.Size != 4<<20 {
		t.Fatalf("size after fallocate = %d", st.Size)
	}
	// Unwritten preallocated space reads as zero... after a write past it.
	if _, err := c.Pwrite(fd, []byte{1}, 4<<20-1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c.Pread(fd, buf, 100)
	for i := 0; i < n; i++ {
		if buf[i] != 0 {
			t.Fatalf("preallocated byte %d = %d", i, buf[i])
		}
	}
}

func TestLargeFileCrossExtentBoundaries(t *testing.T) {
	_, fs := newFSForTest(t, 128<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/big", fsapi.OCreate|fsapi.ORdwr, 0o644)
	// Write a pattern in odd-sized chunks so extents mis-align with blocks.
	chunk := make([]byte, 12345)
	for i := range chunk {
		chunk[i] = byte(i % 251)
	}
	const rounds = 800 // ~9.9 MB
	for i := 0; i < rounds; i++ {
		if _, err := c.Write(fd, chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st, _ := c.Fstat(fd)
	if st.Size != uint64(rounds*len(chunk)) {
		t.Fatalf("size = %d, want %d", st.Size, rounds*len(chunk))
	}
	// Spot-check contents at random-ish offsets.
	buf := make([]byte, len(chunk))
	for _, r := range []int{0, 1, 37, 399, 799} {
		n, err := c.Pread(fd, buf, uint64(r*len(chunk)))
		if err != nil || n != len(chunk) {
			t.Fatalf("pread round %d = (%d, %v)", r, n, err)
		}
		if !bytes.Equal(buf, chunk) {
			t.Fatalf("content mismatch at round %d", r)
		}
	}
}

func TestStatFields(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	alice := fsapi.Cred{UID: 42, GID: 7}
	rootC := rootClient(t, fs)
	rootC.Chmod("/", 0o777)
	ca, _ := fs.Attach(alice)
	fd, _ := ca.Create("/f", 0o640)
	ca.Write(fd, []byte("12345"))
	st, err := ca.Fstat(fd)
	if err != nil {
		t.Fatal(err)
	}
	if st.UID != 42 || st.GID != 7 {
		t.Fatalf("owner = %d:%d", st.UID, st.GID)
	}
	if st.Mode&fsapi.ModePermMask != 0o640 {
		t.Fatalf("perm = %o", st.Mode&fsapi.ModePermMask)
	}
	if st.Size != 5 {
		t.Fatalf("size = %d", st.Size)
	}
	if st.Mtime == 0 || st.Ctime == 0 {
		t.Fatal("times not set")
	}
	if st.Ino == 0 {
		t.Fatal("ino (persistent pointer) is null")
	}
}

func TestUtimes(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	c.Create("/f", 0o644)
	if err := c.Utimes("/f", 111, 222); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stat("/f")
	if st.Atime != 111 || st.Mtime != 222 {
		t.Fatalf("times = %d/%d", st.Atime, st.Mtime)
	}
}

func TestBadFDOperations(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if _, err := c.Read(999, make([]byte, 4)); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("read bad fd = %v", err)
	}
	if err := c.Close(999); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("close bad fd = %v", err)
	}
	fd, _ := c.Create("/f", 0o644)
	c.Close(fd)
	if _, err := c.Write(fd, []byte("x")); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("write closed fd = %v", err)
	}
}

func TestReadOnlyWriteOnlyEnforcement(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/f", 0o644) // write-only
	if _, err := c.Read(fd, make([]byte, 4)); !errors.Is(err, fsapi.ErrWriteOnly) {
		t.Fatalf("read write-only fd = %v", err)
	}
	c.Close(fd)
	fd, _ = c.Open("/f", fsapi.ORdonly, 0)
	if _, err := c.Write(fd, []byte("x")); !errors.Is(err, fsapi.ErrReadOnly) {
		t.Fatalf("write read-only fd = %v", err)
	}
}

func TestUnmountRemountClean(t *testing.T) {
	dev, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd, _ := c.Create("/persist", 0o644)
	c.Write(fd, []byte("still here"))
	c.Close(fd)
	c.Mkdir("/dir", 0o755)
	fs.Unmount()

	fs2, stats, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WasClean {
		t.Fatal("clean unmount not detected")
	}
	c2 := rootClient(t, fs2)
	fd, err = c2.Open("/persist", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := c2.Read(fd, buf)
	if string(buf[:n]) != "still here" {
		t.Fatalf("content after remount = %q", buf[:n])
	}
	if _, err := c2.Stat("/dir"); err != nil {
		t.Fatal(err)
	}
	// Allocator state was rebuilt: new files must not clobber old data.
	fd2, _ := c2.Create("/new", 0o644)
	c2.Write(fd2, bytes.Repeat([]byte{0xFF}, 100000))
	fd, _ = c2.Open("/persist", fsapi.ORdonly, 0)
	n, _ = c2.Read(fd, buf)
	if string(buf[:n]) != "still here" {
		t.Fatalf("old content clobbered after remount: %q", buf[:n])
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	dev := pmem.New(16 << 20)
	if _, _, err := Mount(dev, Options{}); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

func TestRootStat(t *testing.T) {
	_, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	st, err := c.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if !fsapi.IsDir(st.Mode) {
		t.Fatal("root is not a directory")
	}
}

func TestUnlinkWhileOpenKeepsInodeAlive(t *testing.T) {
	// POSIX orphan semantics: an unlinked file stays usable through open
	// descriptors; the last close frees it.
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/orphan", fsapi.OCreate|fsapi.ORdwr, 0o644)
	c.Write(fd, []byte("before unlink"))
	if err := c.Unlink("/orphan"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/orphan"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("name still visible")
	}
	// The descriptor still works for reads AND writes.
	if _, err := c.Pwrite(fd, []byte(" + after"), 13); err != nil {
		t.Fatalf("write to orphan: %v", err)
	}
	buf := make([]byte, 32)
	n, err := c.Pread(fd, buf, 0)
	if err != nil || string(buf[:n]) != "before unlink + after" {
		t.Fatalf("read orphan = (%q, %v)", buf[:n], err)
	}
	free := fs.FreeBlocks()
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() <= free {
		t.Fatal("orphan inode not freed on last close")
	}
}

func TestUnlinkWhileOpenManyDescriptors(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd1, _ := c.Open("/f", fsapi.OCreate|fsapi.ORdwr, 0o644)
	c.Write(fd1, make([]byte, 8192))
	fd2, _ := c.Open("/f", fsapi.ORdonly, 0)
	c.Unlink("/f")
	free := fs.FreeBlocks()
	c.Close(fd1)
	if fs.FreeBlocks() != free {
		t.Fatal("inode freed while another descriptor is open")
	}
	buf := make([]byte, 16)
	if n, err := c.Pread(fd2, buf, 0); err != nil || n == 0 {
		t.Fatalf("second descriptor broken: (%d, %v)", n, err)
	}
	c.Close(fd2)
	if fs.FreeBlocks() <= free {
		t.Fatal("inode not freed after final close")
	}
}

func TestDetachFreesOrphans(t *testing.T) {
	_, fs := newFSForTest(t, 32<<20)
	c := rootClient(t, fs)
	fd, _ := c.Open("/g", fsapi.OCreate|fsapi.OWronly, 0o644)
	c.Write(fd, make([]byte, 8192))
	c.Unlink("/g")
	free := fs.FreeBlocks()
	c.Detach()
	if fs.FreeBlocks() <= free {
		t.Fatal("detach did not release the orphan")
	}
}

// TestGrownRegionReadsZero grows a file created right after another file
// full of 0xAB was freed, so that the new file reuses its inode and, by the
// placement hint, its blocks: whatever way a file grows, the bytes it gains
// and no write covers read zero, not the freed file's.
func TestGrownRegionReadsZero(t *testing.T) {
	const freed = 256 << 10
	for _, tc := range []struct {
		name string
		// spill is whose file is freed before /pub/g is created; nil frees
		// none.
		spill *fsapi.Cred
		// grow grows /pub/g, which must then read zero in [from, to).
		grow func(t *testing.T, c fsapi.Client, fd fsapi.FD) (from, to uint64)
	}{
		{"hole write", &fsapi.Root, func(t *testing.T, c fsapi.Client, fd fsapi.FD) (uint64, uint64) {
			if _, err := c.Pwrite(fd, []byte{1}, 200<<10); err != nil {
				t.Fatal(err)
			}
			return 0, 200 << 10
		}},
		{"ftruncate grow after another owner's file is freed", &fsapi.Cred{UID: 1000, GID: 1000}, func(t *testing.T, c fsapi.Client, fd fsapi.FD) (uint64, uint64) {
			if err := c.Ftruncate(fd, freed); err != nil {
				t.Fatal(err)
			}
			return 0, freed
		}},
		{"shrink then grow", nil, func(t *testing.T, c fsapi.Client, fd fsapi.FD) (uint64, uint64) {
			if _, err := c.Pwrite(fd, bytes.Repeat([]byte{0xAB}, 8<<10), 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Ftruncate(fd, 100); err != nil {
				t.Fatal(err)
			}
			if err := c.Ftruncate(fd, 8<<10); err != nil {
				t.Fatal(err)
			}
			return 100, 8 << 10
		}},
		{"fallocate then a write with a hole", &fsapi.Root, func(t *testing.T, c fsapi.Client, fd fsapi.FD) (uint64, uint64) {
			if err := c.Fallocate(fd, 64<<10); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Pwrite(fd, []byte{1}, 128<<10); err != nil {
				t.Fatal(err)
			}
			return 0, 128 << 10
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, fs := newFSForTest(t, 16<<20)
			c := rootClient(t, fs)
			if err := c.Mkdir("/pub", 0o777); err != nil {
				t.Fatal(err)
			}
			if tc.spill != nil {
				o, err := fs.Attach(*tc.spill)
				if err != nil {
					t.Fatal(err)
				}
				if err := writeFile(o, "/pub/spill", bytes.Repeat([]byte{0xAB}, freed)); err != nil {
					t.Fatal(err)
				}
				if err := o.Unlink("/pub/spill"); err != nil {
					t.Fatal(err)
				}
				o.Detach()
			}
			fd, err := c.Open("/pub/g", fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			from, to := tc.grow(t, c, fd)
			got := make([]byte, to-from)
			if n, err := c.Pread(fd, got, from); err != nil || uint64(n) != to-from {
				t.Fatalf("pread [%d, %d) = %d, %v", from, to, n, err)
			}
			if nonzero := len(got) - bytes.Count(got, []byte{0}); nonzero != 0 {
				t.Fatalf("%d of the %d grown bytes in [%d, %d) are not zero", nonzero, len(got), from, to)
			}
		})
	}
}

// TestRelaxedDisjointWritesIntoGrownFile runs concurrent writes to
// disjoint blocks of a fallocated file on a relaxed-write volume. Each
// writer goes from the top of its share down, so most writes land past the
// zero mark and zero a range below them: a write that zeroed over another
// writer's returned write would lose it.
func TestRelaxedDisjointWritesIntoGrownFile(t *testing.T) {
	const writers, blocks = 4, 64
	dev := pmem.New(16 << 20)
	fs, err := Format(dev, fsapi.Root, Options{RelaxedWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := range 20 {
		name := fmt.Sprintf("/g%d", round)
		c := rootClient(t, fs)
		fd, err := c.Open(name, fsapi.OCreate|fsapi.ORdwr, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fallocate(fd, blocks*BlockSize); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := fs.Attach(fsapi.Root)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Detach()
				fd, err := c.Open(name, fsapi.ORdwr, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for b := blocks - writers + w; b >= 0; b -= writers {
					p := bytes.Repeat([]byte{byte(b + 1)}, BlockSize)
					if _, err := c.Pwrite(fd, p, uint64(b)*BlockSize); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		got := make([]byte, BlockSize)
		for b := range blocks {
			if _, err := c.Pread(fd, got, uint64(b)*BlockSize); err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(got, []byte{byte(b + 1)}); n != BlockSize {
				t.Fatalf("round %d: block %d holds %d of its %d written bytes", round, b, n, BlockSize)
			}
		}
		c.Close(fd)
		if err := c.Unlink(name); err != nil {
			t.Fatal(err)
		}
		c.Detach()
	}
}

// TestFailedCreateStoresNothing pins what a create of a name that exists
// costs the device: nothing. It finds the name before it allocates.
func TestFailedCreateStoresNothing(t *testing.T) {
	dev, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	if err := writeFile(c, "/f", []byte("taken")); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
		want error
	}{
		{"mkdir over a directory", func() error { return c.Mkdir("/d", 0o755) }, fsapi.ErrExist},
		{"mkdir over a file", func() error { return c.Mkdir("/f", 0o755) }, fsapi.ErrExist},
		{"symlink", func() error { return c.Symlink("/target", "/f") }, fsapi.ErrExist},
		{"create over a directory", func() error { _, err := c.Create("/d", 0o644); return err }, fsapi.ErrIsDir},
		{"exclusive create", func() error {
			_, err := c.Open("/f", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, 0o644)
			return err
		}, fsapi.ErrExist},
		{"link", func() error { return c.Link("/f", "/d") }, fsapi.ErrExist},
	} {
		before := dev.Stats.Snapshot()
		if err := tc.op(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			continue
		}
		if d := dev.Stats.Snapshot().Sub(before); d.StoreBytes != 0 || d.NTBytes != 0 || d.Flushes != 0 || d.Fences != 0 {
			t.Errorf("%s: %d stored bytes, %d non-temporal, %d flushes, %d fences; want none",
				tc.name, d.StoreBytes, d.NTBytes, d.Flushes, d.Fences)
		}
	}
}

// TestSlabGrowthFlushesOneLine pins what growing a slab chain costs: the
// first Mkdir on a volume formats a directory-block segment, and the
// segment's body is zeroed with non-temporal stores, so the Mkdir flushes
// about what a steady-state one does, not one line per 64 bytes of segment.
func TestSlabGrowthFlushesOneLine(t *testing.T) {
	dev, fs := newFSForTest(t, 16<<20)
	c := rootClient(t, fs)
	before := dev.Stats.Snapshot()
	if err := c.Mkdir("/first", 0o755); err != nil {
		t.Fatal(err)
	}
	first := dev.Stats.Snapshot().Sub(before)
	before = dev.Stats.Snapshot()
	if err := c.Mkdir("/second", 0o755); err != nil {
		t.Fatal(err)
	}
	steady := dev.Stats.Snapshot().Sub(before)
	t.Logf("first mkdir: %d flushes, %d fences, %d B stored, %d B non-temporal; steady: %d flushes, %d fences",
		first.Flushes, first.Fences, first.StoreBytes, first.NTBytes, steady.Flushes, steady.Fences)
	if first.Flushes > 20 {
		t.Errorf("first mkdir: %d flushes, want at most 20", first.Flushes)
	}
	if first.NTBytes < 32<<10 {
		t.Errorf("first mkdir: %d B non-temporal, want the segment (32 KiB) zeroed with non-temporal stores", first.NTBytes)
	}
}
