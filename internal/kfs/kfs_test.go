package kfs

import (
	"bytes"
	"sync"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/vfs"
)

func newKFS(t *testing.T, kind Kind) *FS {
	t.Helper()
	return New(kind, pmem.New(256<<20))
}

func TestAllKindsBasicCycle(t *testing.T) {
	for _, kind := range []Kind{KindNova, KindPMFS, KindExtDax} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newKFS(t, kind)
			root := fs.Root()
			id, err := fs.Create(root, "f", fsapi.ModeRegular|0o644, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(id, []byte("hello"), 0); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			n, err := fs.ReadAt(id, buf, 0)
			if err != nil || string(buf[:n]) != "hello" {
				t.Fatalf("read = (%q, %v)", buf[:n], err)
			}
			got, err := fs.Lookup(root, "f")
			if err != nil || got != id {
				t.Fatalf("lookup = (%d, %v), want %d", got, err, id)
			}
			if err := fs.Unlink(root, "f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Lookup(root, "f"); err != fsapi.ErrNotExist {
				t.Fatalf("lookup after unlink = %v", err)
			}
		})
	}
}

func TestPMFSUsesLinearDirectory(t *testing.T) {
	fs := newKFS(t, KindPMFS)
	id, _ := fs.Mkdir(fs.Root(), "d", fsapi.ModeDir|0o755, 0, 0)
	n := fs.node(id)
	if n.dirList == nil || n.dirMap != nil {
		t.Fatal("PMFS directory is not a linear list")
	}
	fs2 := newKFS(t, KindNova)
	id2, _ := fs2.Mkdir(fs2.Root(), "d", fsapi.ModeDir|0o755, 0, 0)
	n2 := fs2.node(id2)
	if n2.dirMap == nil || n2.dirList != nil {
		t.Fatal("NOVA directory is not a map")
	}
}

func TestHardLinkCounts(t *testing.T) {
	fs := newKFS(t, KindNova)
	root := fs.Root()
	id, _ := fs.Create(root, "a", fsapi.ModeRegular|0o644, 0, 0)
	if err := fs.Link(root, "b", id); err != nil {
		t.Fatal(err)
	}
	attr, _ := fs.GetAttr(id)
	if attr.Nlink != 2 {
		t.Fatalf("nlink = %d", attr.Nlink)
	}
	fs.Unlink(root, "a")
	attr, err := fs.GetAttr(id)
	if err != nil || attr.Nlink != 1 {
		t.Fatalf("after unlink: nlink=%d err=%v", attr.Nlink, err)
	}
	if _, err := fs.Lookup(root, "b"); err != nil {
		t.Fatal("second link lost")
	}
}

func TestRenameReplacesAndFrees(t *testing.T) {
	fs := newKFS(t, KindExtDax)
	root := fs.Root()
	a, _ := fs.Create(root, "a", fsapi.ModeRegular|0o644, 0, 0)
	fs.WriteAt(a, make([]byte, 100000), 0)
	bID, _ := fs.Create(root, "b", fsapi.ModeRegular|0o644, 0, 0)
	fs.WriteAt(bID, make([]byte, 100000), 0)
	free := fs.ba.FreeBlocks()
	if err := fs.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	if fs.ba.FreeBlocks() <= free {
		t.Fatal("replaced file's blocks not freed")
	}
	got, err := fs.Lookup(root, "b")
	if err != nil || got != a {
		t.Fatalf("b -> %d (%v), want %d", got, err, a)
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	fs := newKFS(t, KindNova)
	id, _ := fs.Create(fs.Root(), "f", fsapi.ModeRegular|0o644, 0, 0)
	fs.WriteAt(id, make([]byte, 10*BlockSize), 0)
	free := fs.ba.FreeBlocks()
	if err := fs.Truncate(id, BlockSize); err != nil {
		t.Fatal(err)
	}
	if fs.ba.FreeBlocks() != free+9 {
		t.Fatalf("free %d -> %d, want +9", free, fs.ba.FreeBlocks())
	}
}

func TestDataSurvivesOddOffsets(t *testing.T) {
	fs := newKFS(t, KindPMFS)
	id, _ := fs.Create(fs.Root(), "f", fsapi.ModeRegular|0o644, 0, 0)
	pattern := []byte("0123456789abcdef")
	for off := uint64(0); off < 50000; off += 13007 {
		if _, err := fs.WriteAt(id, pattern, off); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, len(pattern))
	for off := uint64(0); off < 50000; off += 13007 {
		n, err := fs.ReadAt(id, buf, off)
		if err != nil || !bytes.Equal(buf[:n], pattern[:n]) {
			t.Fatalf("off %d: (%q, %v)", off, buf[:n], err)
		}
	}
}

func TestJournalsDoRealNVMMWork(t *testing.T) {
	// Each design's journal must actually write to the device: compare
	// flush counts across an op batch.
	for _, kind := range []Kind{KindNova, KindPMFS, KindExtDax} {
		dev := pmem.New(256 << 20)
		fs := New(kind, dev)
		before := dev.Stats.Flushes.Load()
		for i := 0; i < 50; i++ {
			fs.Create(fs.Root(), string(rune('a'+i%26))+string(rune('0'+i/26)), fsapi.ModeRegular|0o644, 0, 0)
		}
		if delta := dev.Stats.Flushes.Load() - before; delta < 100 {
			t.Fatalf("%s: only %d flushes for 50 creates", kind, delta)
		}
	}
}

func TestPMFSJournalSerializes(t *testing.T) {
	// The undo journal's fence count scales with ops (every op fences);
	// jbd2 batches fences.
	devP := pmem.New(256 << 20)
	pmfs := New(KindPMFS, devP)
	devE := pmem.New(256 << 20)
	ext := New(KindExtDax, devE)
	pBefore := devP.Stats.Fences.Load()
	eBefore := devE.Stats.Fences.Load()
	for i := 0; i < 100; i++ {
		name := "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		pmfs.Create(pmfs.Root(), name, fsapi.ModeRegular|0o644, 0, 0)
		ext.Create(ext.Root(), name, fsapi.ModeRegular|0o644, 0, 0)
	}
	pf := devP.Stats.Fences.Load() - pBefore
	ef := devE.Stats.Fences.Load() - eBefore
	if pf <= ef*2 {
		t.Fatalf("undo journal fences (%d) should far exceed jbd2's batched fences (%d)", pf, ef)
	}
}

func TestConcurrentCreatesUnderVFS(t *testing.T) {
	fs := New(KindNova, pmem.New(256<<20))
	v := vfs.New(fs, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := v.Attach(fsapi.Root)
			for i := 0; i < 100; i++ {
				name := "/x" + string(rune('a'+w)) + string(rune('a'+i%26)) + string(rune('a'+i/26))
				if _, err := c.Create(name, 0o644); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, _ := v.Attach(fsapi.Root)
	ents, _ := c.ReadDir("/")
	if len(ents) != 400 {
		t.Fatalf("%d entries, want 400", len(ents))
	}
}

func TestSplitFSHelpers(t *testing.T) {
	fs := newKFS(t, KindExtDax)
	id, _ := fs.Create(fs.Root(), "f", fsapi.ModeRegular|0o644, 0, 0)
	start, err := fs.AllocBlocks(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Write directly into the staged blocks, then relink them.
	payload := bytes.Repeat([]byte{0x5A}, 4*BlockSize)
	fs.Device().NTStore(start*BlockSize, payload)
	fs.Device().Fence()
	if err := fs.AppendRun(id, start, 4); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetSize(id, uint64(len(payload))); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	n, err := fs.ReadAt(id, buf, 0)
	if err != nil || n != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("relinked data mismatch (n=%d err=%v)", n, err)
	}
}

// TestUnlinkWhileOpenUnderVFS: a descriptor keeps its file alive (the
// kernel's inode reference): unlinking the last name — or renaming over it —
// must not fail later reads and writes, nor hand the node to a new file, and
// the last close frees it.
func TestUnlinkWhileOpenUnderVFS(t *testing.T) {
	for _, kind := range []Kind{KindNova, KindPMFS, KindExtDax} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newKFS(t, kind)
			c, _ := vfs.New(fs, nil).Attach(fsapi.Root)
			for _, replace := range []bool{false, true} {
				fd, err := c.Open("/victim", fsapi.OCreate|fsapi.ORdwr, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Write(fd, []byte("before")); err != nil {
					t.Fatal(err)
				}
				if replace {
					other, _ := c.Create("/other", 0o644)
					c.Close(other)
					err = c.Rename("/other", "/victim")
				} else {
					err = c.Unlink("/victim")
				}
				if err != nil {
					t.Fatal(err)
				}
				// A new file must not land on the held node.
				nfd, err := c.Create("/newcomer", 0o644)
				if err != nil {
					t.Fatal(err)
				}
				c.Write(nfd, []byte("XXXXXXXXXXXX"))
				c.Close(nfd)
				if _, err := c.Pwrite(fd, []byte(" after"), 6); err != nil {
					t.Fatalf("replace=%v: write through the descriptor of an unlinked file: %v", replace, err)
				}
				buf := make([]byte, 32)
				n, err := c.Pread(fd, buf, 0)
				if err != nil || string(buf[:n]) != "before after" {
					t.Fatalf("replace=%v: read %q (%v), want %q", replace, buf[:n], err, "before after")
				}
				if err := c.Close(fd); err != nil {
					t.Fatal(err)
				}
				c.Unlink("/newcomer")
				c.Unlink("/victim")
			}
			// The last Release is what frees an orphan.
			id, _ := fs.Create(fs.Root(), "held", fsapi.ModeRegular|0o644, 0, 0)
			if err := fs.Hold(id); err != nil {
				t.Fatal(err)
			}
			if err := fs.Unlink(fs.Root(), "held"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.GetAttr(id); err != nil {
				t.Fatalf("held node gone after unlink: %v", err)
			}
			fs.Release(id)
			if _, err := fs.GetAttr(id); err != fsapi.ErrNotExist {
				t.Fatalf("orphan after its last release: %v", err)
			}
			if err := fs.Hold(id); err != fsapi.ErrNotExist {
				t.Fatalf("hold of a freed node: %v", err)
			}
		})
	}
}
