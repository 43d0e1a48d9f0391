package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// mountStatsBase builds a volume that holds every object the mark phase
// visits: nested directories (more than one block of entries), files with
// data across several extents, hard links, symlinks and long names (blobs).
// It is deterministic: the same calls in the same order on a fresh device.
func mountStatsBase(t *testing.T) ([]byte, []string) {
	t.Helper()
	dev := pmem.New(32 << 20)
	fs, err := Format(dev, fsapi.Root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	rng := rand.New(rand.NewSource(7))
	var files []string
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("/d%d", d)
		must(t, c.Mkdir(dir, 0o755))
		must(t, c.Mkdir(dir+"/sub", 0o755))
		n := 50
		if d == 0 {
			n = 450 // more names than one block has slots
		}
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			if i%10 == 0 {
				p += "-" + strings.Repeat("n", 40+i%150) // a long name lives in a blob
			}
			fd, err := c.Open(p, fsapi.OCreate|fsapi.ORdwr, 0o644)
			must(t, err)
			for k := 0; k < rng.Intn(4); k++ {
				// Scattered writes leave holes, so a file needs several extents.
				data := make([]byte, 1+rng.Intn(6000))
				rng.Read(data)
				_, err := c.Pwrite(fd, data, uint64(rng.Intn(16))*BlockSize)
				must(t, err)
			}
			must(t, c.Close(fd))
			files = append(files, p)
		}
		for i := 0; i < 10; i++ {
			must(t, c.Link(files[len(files)-1-i], fmt.Sprintf("%s/sub/l%d", dir, i)))
			must(t, c.Symlink(files[len(files)-1-i], fmt.Sprintf("%s/sub/s%d", dir, i)))
		}
	}
	var img bytes.Buffer
	if _, err := dev.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes(), files
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mountStatsKey is a RecoveryStats without its clock reading.
func mountStatsKey(st *RecoveryStats) string {
	return fmt.Sprintf("dirs=%d files=%d symlinks=%d dirblocks=%d used=%d slots=%d creates=%d renames=%d logs=%d links=%d reclaimed=%d clean=%v",
		st.Dirs, st.Files, st.Symlinks, st.DirBlocks, st.UsedDataBlock, st.FixedSlots, st.FixedCreates,
		st.FixedRenames, st.FixedLogs, st.FixedLinks, st.Reclaimed, st.WasClean)
}

// TestMountStatsPinned mounts a fixed series of images — the base volume
// clean, then crashed at a seeded fence of a seeded run of namespace and
// data operations, strictly or torn — and checks what each mount's
// recovery found against a digest of all of them. The digest was recorded
// with Go maps as the mark phase's sets; the bitmaps that replaced them must
// find exactly the same. A change to what recovery finds or does changes
// the digest: check the first mount's line, printed on failure, by hand
// before re-recording it.
func TestMountStatsPinned(t *testing.T) {
	const wantDigest = 0x710496dffda2345f
	base, files := mountStatsBase(t)
	h := fnv.New64a()
	var lines []string
	mount := func(dev *pmem.Device) *FS {
		fs, st, err := Mount(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		line := mountStatsKey(st)
		lines = append(lines, line)
		h.Write([]byte(line + "\n"))
		return fs
	}
	// The base image was taken from a live volume (an unclean mount);
	// unmounting that makes the next mount a clean one.
	dev, err := pmem.ReadImage(bytes.NewReader(base))
	must(t, err)
	mount(dev).Unmount()
	mount(dev)

	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		dev, err := pmem.ReadImage(bytes.NewReader(base))
		must(t, err)
		fs, _, err := Mount(dev, Options{})
		must(t, err)
		c, _ := fs.Attach(fsapi.Root)
		dev.SetMode(pmem.ModeTracked)
		dev.StopAt(dev.Stats.Fences.Load() + 1 + uint64(rng.Intn(120)))
		stopped := false
		for i := 0; i < 60 && !stopped; i++ {
			p := files[rng.Intn(len(files))]
			stopped = pmem.Run(func() {
				switch rng.Intn(7) {
				case 0:
					c.Unlink(p)
				case 1:
					c.Rename(p, fmt.Sprintf("/d%d/r%d-%d", rng.Intn(4), trial, i))
				case 2:
					c.Link(p, fmt.Sprintf("/d%d/sub/h%d-%d", rng.Intn(4), trial, i))
				case 3:
					fd, err := c.Open(fmt.Sprintf("/d%d/sub/n%d-%d", rng.Intn(4), trial, i), fsapi.OCreate|fsapi.ORdwr, 0o644)
					if err == nil {
						c.Pwrite(fd, make([]byte, 1+rng.Intn(9000)), uint64(rng.Intn(8))*BlockSize)
						c.Close(fd)
					}
				case 4:
					if fd, err := c.Open(p, fsapi.ORdwr, 0); err == nil {
						c.Ftruncate(fd, uint64(rng.Intn(3*BlockSize)))
						c.Close(fd)
					}
				case 5:
					c.Mkdir(fmt.Sprintf("/d%d/m%d-%d", rng.Intn(4), trial, i), 0o755)
				case 6:
					c.Symlink(p, fmt.Sprintf("/d%d/y%d-%d", rng.Intn(4), trial, i))
				}
			})
		}
		dev.StopAt(0)
		if trial%2 == 0 {
			dev.Crash()
		} else {
			dev.CrashPartial(rng)
		}
		mount(dev)
	}
	if got := h.Sum64(); got != wantDigest {
		t.Errorf("recovery digest %#x over %d mounts, want %#x; first mount: %s", got, len(lines), uint64(wantDigest), lines[0])
		for i, l := range lines {
			t.Logf("mount %d: %s", i, l)
		}
	}
}
