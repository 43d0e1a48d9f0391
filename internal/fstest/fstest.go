// Package fstest provides a conformance battery exercised against every
// file system in the repository (Simurgh and the four baselines) through
// the shared fsapi interface, ensuring the benchmarks compare like for
// like.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"simurgh/internal/fsapi"
)

// Factory creates a fresh, empty file system.
type Factory func() fsapi.FileSystem

// RunConformance executes the full battery against the factory's FS.
func RunConformance(t *testing.T, mk Factory) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(*testing.T, fsapi.FileSystem)
	}{
		{"CreateReadBack", testCreateReadBack},
		{"CreateExclusive", testCreateExclusive},
		{"MissingFile", testMissingFile},
		{"MkdirTree", testMkdirTree},
		{"UnlinkFrees", testUnlink},
		{"Rmdir", testRmdir},
		{"RenameSameDir", testRenameSameDir},
		{"RenameCrossDir", testRenameCrossDir},
		{"RenameReplaces", testRenameReplaces},
		{"ReadDir", testReadDir},
		{"Symlink", testSymlink},
		{"HardLink", testHardLink},
		{"Permissions", testPermissions},
		{"SeekPreadPwrite", testSeekPreadPwrite},
		{"Append", testAppend},
		{"TruncateFallocate", testTruncateFallocate},
		{"LargeFile", testLargeFile},
		{"FsyncDurability", testFsync},
		{"ManyFilesSharedDir", testManyFiles},
		{"ConcurrentCreates", testConcurrentCreates},
		{"ConcurrentSharedAppends", testConcurrentSharedAppends},
		{"Utimes", testUtimes},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, mk())
		})
	}
}

// attach attaches as root; see attachAs.
func attach(t *testing.T, fs fsapi.FileSystem) fsapi.Client {
	t.Helper()
	return attachAs(t, fs, fsapi.Root)
}

// attachAs attaches with cred and detaches when the test ends, so that no
// session outlives its test: a remote one left attached would keep
// reconnecting to servers that later tests have stopped.
func attachAs(t *testing.T, fs fsapi.FileSystem, cred fsapi.Cred) fsapi.Client {
	t.Helper()
	c, err := fs.Attach(cred)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Detach() })
	return c
}

func testCreateReadBack(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("conformance payload")
	if n, err := c.Write(fd, data); err != nil || n != len(data) {
		t.Fatalf("write = (%d, %v)", n, err)
	}
	c.Close(fd)
	fd, err = c.Open("/f", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c.Read(fd, buf)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("read = (%q, %v)", buf[:n], err)
	}
}

func testCreateExclusive(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	if _, err := c.Open("/x", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("/x", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly, 0o644); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("err = %v, want ErrExist", err)
	}
}

func testMissingFile(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	if _, err := c.Open("/missing", fsapi.ORdonly, 0); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if _, err := c.Stat("/missing"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat err = %v", err)
	}
}

func testMkdirTree(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d"} {
		if err := c.Mkdir(p, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	if _, err := c.Create("/a/b/c/d/leaf", 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat("/a/b/c/d/leaf")
	if err != nil || !fsapi.IsRegular(st.Mode) {
		t.Fatalf("stat leaf = (%+v, %v)", st, err)
	}
	if err := c.Mkdir("/a/b", 0o755); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("re-mkdir = %v, want ErrExist", err)
	}
}

func testUnlink(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Create("/f", 0o644)
	c.Write(fd, make([]byte, 20000))
	c.Close(fd)
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after unlink = %v", err)
	}
	if err := c.Unlink("/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("double unlink = %v", err)
	}
}

func testRmdir(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	c.Mkdir("/d", 0o755)
	c.Create("/d/f", 0o644)
	if err := c.Rmdir("/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	c.Unlink("/d/f")
	if err := c.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
}

func testRenameSameDir(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Create("/from", 0o644)
	c.Write(fd, []byte("xyz"))
	c.Close(fd)
	if err := c.Rename("/from", "/to"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/from"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("old name survives")
	}
	fd, _ = c.Open("/to", fsapi.ORdonly, 0)
	buf := make([]byte, 8)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "xyz" {
		t.Fatalf("content = %q", buf[:n])
	}
}

func testRenameCrossDir(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	c.Mkdir("/d1", 0o755)
	c.Mkdir("/d2", 0o755)
	c.Create("/d1/f", 0o644)
	if err := c.Rename("/d1/f", "/d2/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d2/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/d1/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("source survives")
	}
}

func testRenameReplaces(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Create("/a", 0o644)
	c.Write(fd, []byte("A"))
	c.Close(fd)
	fd, _ = c.Create("/b", 0o644)
	c.Write(fd, []byte("B"))
	c.Close(fd)
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	fd, _ = c.Open("/b", fsapi.ORdonly, 0)
	buf := make([]byte, 4)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "A" {
		t.Fatalf("content = %q, want A", buf[:n])
	}
}

func testReadDir(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	want := map[string]bool{}
	for i := 0; i < 15; i++ {
		name := fmt.Sprintf("e%02d", i)
		c.Create("/"+name, 0o644)
		want[name] = true
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(want) {
		t.Fatalf("got %d entries, want %d", len(ents), len(want))
	}
	for _, e := range ents {
		if !want[e.Name] {
			t.Fatalf("unexpected entry %q", e.Name)
		}
	}
}

func testSymlink(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Create("/real", 0o644)
	c.Write(fd, []byte("deref"))
	c.Close(fd)
	if err := c.Symlink("/real", "/ln"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := c.Readlink("/ln"); err != nil || tgt != "/real" {
		t.Fatalf("readlink = (%q, %v)", tgt, err)
	}
	fd, err := c.Open("/ln", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "deref" {
		t.Fatalf("content via symlink = %q", buf[:n])
	}
	lst, _ := c.Lstat("/ln")
	if !fsapi.IsSymlink(lst.Mode) {
		t.Fatal("Lstat mode not symlink")
	}
}

func testHardLink(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Create("/h1", 0o644)
	c.Write(fd, []byte("linked"))
	c.Close(fd)
	if err := c.Link("/h1", "/h2"); err != nil {
		t.Fatal(err)
	}
	st1, _ := c.Stat("/h1")
	st2, _ := c.Stat("/h2")
	if st1.Ino != st2.Ino || st1.Nlink != 2 {
		t.Fatalf("ino %d/%d nlink %d", st1.Ino, st2.Ino, st1.Nlink)
	}
	c.Unlink("/h1")
	fd, err := c.Open("/h2", fsapi.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "linked" {
		t.Fatalf("content = %q", buf[:n])
	}
}

func testPermissions(t *testing.T, fs fsapi.FileSystem) {
	root := attach(t, fs)
	root.Chmod("/", 0o777)
	alice := attachAs(t, fs, fsapi.Cred{UID: 1000, GID: 1000})
	bob := attachAs(t, fs, fsapi.Cred{UID: 1001, GID: 1001})
	if err := alice.Mkdir("/priv", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Create("/priv/s", 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Open("/priv/s", fsapi.ORdonly, 0); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob read = %v, want ErrPerm", err)
	}
	if _, err := bob.Create("/priv/evil", 0o644); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("bob create = %v, want ErrPerm", err)
	}
	if _, err := root.Open("/priv/s", fsapi.ORdonly, 0); err != nil {
		t.Fatalf("root read: %v", err)
	}
}

func testSeekPreadPwrite(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Open("/s", fsapi.OCreate|fsapi.ORdwr, 0o644)
	c.Write(fd, []byte("0123456789"))
	if pos, _ := c.Seek(fd, 4, fsapi.SeekSet); pos != 4 {
		t.Fatalf("seek = %d", pos)
	}
	buf := make([]byte, 2)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "45" {
		t.Fatalf("read = %q", buf[:n])
	}
	c.Pwrite(fd, []byte("zz"), 1)
	n, _ = c.Pread(fd, buf, 1)
	if string(buf[:n]) != "zz" {
		t.Fatalf("pread = %q", buf[:n])
	}
}

func testAppend(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Open("/log", fsapi.OCreate|fsapi.OWronly|fsapi.OAppend, 0o644)
	c.Write(fd, []byte("aa"))
	c.Write(fd, []byte("bb"))
	c.Close(fd)
	fd, _ = c.Open("/log", fsapi.OWronly|fsapi.OAppend, 0)
	c.Write(fd, []byte("cc"))
	c.Close(fd)
	fd, _ = c.Open("/log", fsapi.ORdonly, 0)
	buf := make([]byte, 16)
	n, _ := c.Read(fd, buf)
	if string(buf[:n]) != "aabbcc" {
		t.Fatalf("appended = %q", buf[:n])
	}
	st, _ := c.Stat("/log")
	if st.Size != 6 {
		t.Fatalf("size = %d", st.Size)
	}
}

func testTruncateFallocate(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Open("/t", fsapi.OCreate|fsapi.ORdwr, 0o644)
	c.Write(fd, bytes.Repeat([]byte{1}, 10000))
	if err := c.Ftruncate(fd, 100); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Fstat(fd)
	if st.Size != 100 {
		t.Fatalf("size after truncate = %d", st.Size)
	}
	if err := c.Fallocate(fd, 1<<20); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Fstat(fd)
	if st.Size != 1<<20 {
		t.Fatalf("size after fallocate = %d", st.Size)
	}
}

func testLargeFile(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Open("/big", fsapi.OCreate|fsapi.ORdwr, 0o644)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 2<<20) // 2 MiB
	rng.Read(data)
	for off := 0; off < len(data); off += 100000 {
		end := off + 100000
		if end > len(data) {
			end = len(data)
		}
		if _, err := c.Pwrite(fd, data[off:end], uint64(off)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(data))
	for off := 0; off < len(got); {
		n, err := c.Pread(fd, got[off:], uint64(off))
		if err != nil || n == 0 {
			t.Fatalf("pread at %d = (%d, %v)", off, n, err)
		}
		off += n
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file content mismatch")
	}
}

func testFsync(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	fd, _ := c.Open("/d", fsapi.OCreate|fsapi.OWronly|fsapi.OAppend, 0o644)
	for i := 0; i < 10; i++ {
		c.Write(fd, make([]byte, 1000))
		if err := c.Fsync(fd); err != nil {
			t.Fatalf("fsync %d: %v", i, err)
		}
	}
	st, _ := c.Fstat(fd)
	if st.Size != 10000 {
		t.Fatalf("size = %d", st.Size)
	}
}

func testManyFiles(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := c.Create(fmt.Sprintf("/m%04d", i), 0o644); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, _ := c.ReadDir("/")
	if len(ents) != n {
		t.Fatalf("%d entries, want %d", len(ents), n)
	}
	for i := 0; i < n; i++ {
		if err := c.Unlink(fmt.Sprintf("/m%04d", i)); err != nil {
			t.Fatalf("unlink %d: %v", i, err)
		}
	}
	ents, _ = c.ReadDir("/")
	if len(ents) != 0 {
		t.Fatalf("%d entries survive", len(ents))
	}
}

func testConcurrentCreates(t *testing.T, fs fsapi.FileSystem) {
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := fs.Attach(fsapi.Root)
			defer c.Detach()
			for i := 0; i < per; i++ {
				if _, err := c.Create(fmt.Sprintf("/c%d-%d", w, i), 0o644); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := attach(t, fs)
	ents, _ := c.ReadDir("/")
	if len(ents) != workers*per {
		t.Fatalf("%d entries, want %d", len(ents), workers*per)
	}
}

func testConcurrentSharedAppends(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	c.Create("/shared-log", 0o666)
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw, _ := fs.Attach(fsapi.Root)
			defer cw.Detach()
			fd, err := cw.Open("/shared-log", fsapi.OWronly|fsapi.OAppend, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if _, err := cw.Write(fd, make([]byte, 64)); err != nil {
					t.Error(err)
					return
				}
			}
			cw.Fsync(fd)
			cw.Close(fd)
		}()
	}
	wg.Wait()
	st, _ := c.Stat("/shared-log")
	if st.Size != workers*per*64 {
		t.Fatalf("size = %d, want %d (lost appends)", st.Size, workers*per*64)
	}
}

func testUtimes(t *testing.T, fs fsapi.FileSystem) {
	c := attach(t, fs)
	c.Create("/u", 0o644)
	if err := c.Utimes("/u", 1234, 5678); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stat("/u")
	if st.Atime != 1234 || st.Mtime != 5678 {
		t.Fatalf("times = %d/%d", st.Atime, st.Mtime)
	}
}
