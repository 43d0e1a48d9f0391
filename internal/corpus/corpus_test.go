package corpus

import (
	"bytes"
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

func newClient(t *testing.T) fsapi.Client {
	t.Helper()
	dev := pmem.New(256 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	return c
}

func TestGenerateIsDeterministic(t *testing.T) {
	spec := Spec{Depth: 2, Fanout: 2, FilesPerDir: 3, MeanFileSize: 1000, Seed: 5}
	c1 := newClient(t)
	c1.Mkdir("/a", 0o755)
	st1, err := Generate(c1, "/a", spec)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newClient(t)
	c2.Mkdir("/a", 0o755)
	st2, err := Generate(c2, "/a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("non-deterministic: %+v vs %+v", st1, st2)
	}
	if st := spec.Stats(); st != st1 {
		t.Fatalf("Spec.Stats() = %+v, Generate wrote %+v", st, st1)
	}
	// Identical trees file-by-file.
	var paths1 []string
	Walk(c1, "/a", func(p string, st fsapi.Stat) error {
		paths1 = append(paths1, p)
		return nil
	})
	i := 0
	Walk(c2, "/a", func(p string, st fsapi.Stat) error {
		if paths1[i] != p {
			t.Fatalf("walk order differs at %d: %s vs %s", i, paths1[i], p)
		}
		i++
		return nil
	})
}

func TestGenerateShape(t *testing.T) {
	spec := LinuxLike(1)
	c := newClient(t)
	c.Mkdir("/src", 0o755)
	st, err := Generate(c, "/src", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 3, fanout 6: 6+36+216 = 258 dirs; files = 259 dirs * 7.
	if st.Dirs != 258 {
		t.Fatalf("dirs = %d, want 258", st.Dirs)
	}
	if st.Files != 259*7 {
		t.Fatalf("files = %d, want %d", st.Files, 259*7)
	}
	if st.Bytes == 0 {
		t.Fatal("no bytes generated")
	}
	// Walk must visit exactly the generated files.
	var count uint64
	if err := Walk(c, "/src", func(string, fsapi.Stat) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != st.Files {
		t.Fatalf("walk found %d files, generated %d", count, st.Files)
	}
}

func TestFileContentDeterministic(t *testing.T) {
	a := FileContent(7, 500)
	b := FileContent(7, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("FileContent not deterministic")
	}
	c := FileContent(8, 500)
	if bytes.Equal(a, c) {
		t.Fatal("different files have identical content")
	}
	if len(FileContent(0, 0)) != 0 {
		t.Fatal("zero-size content")
	}
	if len(FileContent(3, 3_000_000)) != 3_000_000 {
		t.Fatal("large content wrong size")
	}
}

// TestRemoveAllEmptiesATree: fsapi.RemoveAll takes a generated tree away,
// root included, and a tree generated and removed again leaves the same
// free space as the first (what a repeated pass and its reset rely on).
func TestRemoveAllEmptiesATree(t *testing.T) {
	dev := pmem.New(64 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	var free []uint64
	for i := 0; i < 3; i++ {
		c.Mkdir("/a", 0o755)
		if _, err := Generate(c, "/a", Spec{Depth: 2, Fanout: 3, FilesPerDir: 4, MeanFileSize: 5000, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if err := fsapi.RemoveAll(c, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat("/a"); err != fsapi.ErrNotExist {
			t.Fatalf("stat after RemoveAll: %v, want ErrNotExist", err)
		}
		free = append(free, fs.FreeBlocks())
	}
	if free[1] != free[0] || free[2] != free[0] {
		t.Fatalf("free blocks after each generate and remove: %v, want one value", free)
	}
}
