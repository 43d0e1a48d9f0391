package pmem_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// fullScanImage is the run image of d found the way WriteTo found it before
// the device kept a written map: every page of the arena read and compared
// with zero.
func fullScanImage(d *pmem.Device) []byte {
	img := binary.LittleEndian.AppendUint64(nil, pmem.ImageMagic)
	img = binary.LittleEndian.AppendUint64(img, d.Size())
	page := make([]byte, pmem.ImagePage)
	var zero [pmem.ImagePage]byte
	runHdr := -1 // offset in img of the open run's header, -1 when none
	var runEnd uint64
	for off := uint64(0); off < d.Size(); off += pmem.ImagePage {
		p := page[:min(pmem.ImagePage, d.Size()-off)]
		d.ReadAt(off, p)
		if bytes.Equal(p, zero[:len(p)]) {
			runHdr = -1
			continue
		}
		if runHdr < 0 || runEnd != off {
			runHdr = len(img)
			img = binary.LittleEndian.AppendUint64(img, off)
			img = binary.LittleEndian.AppendUint64(img, 0)
		}
		img = append(img, p...)
		runEnd = off + uint64(len(p))
		n := binary.LittleEndian.Uint64(img[runHdr+8:])
		binary.LittleEndian.PutUint64(img[runHdr+8:], n+uint64(len(p)))
	}
	return append(img, make([]byte, 16)...)
}

// checkImage compares d's WriteTo image with the full-scan reference and
// checks that WriteTo compared no page the map had not marked.
func checkImage(t *testing.T, d *pmem.Device, step string) {
	t.Helper()
	var got bytes.Buffer
	if _, err := d.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if want := fullScanImage(d); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteTo image (%d B) differs from the full-scan image (%d B)", step, got.Len(), len(want))
	}
	if c, m := d.ComparedPages(), d.MarkedPages(); c != m {
		t.Fatalf("%s: WriteTo compared %d pages, %d are marked", step, c, m)
	}
}

// TestWrittenMapMatchesFullScan runs seeded random file-system operations —
// creates and scattered writes, unlinks, truncates, writes past a file's
// end that NT-zero the hole, directory renames, a switch to tracked mode,
// power cuts at a seeded fence (strict or torn) followed by a mount, and an
// image round trip whose device then takes more writes — and after each
// step requires WriteTo's image to be byte-identical to the one a scan of
// every page finds.
func TestWrittenMapMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dev := pmem.New(2<<20 + 192) // a partial last page
			fs, err := core.Format(dev, fsapi.Root, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c, _ := fs.Attach(fsapi.Root)
			c.Mkdir("/a", 0o755)
			c.Mkdir("/b", 0o755)
			checkImage(t, dev, "format")
			remount := func() {
				fs, _, err = core.Mount(dev, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				c, _ = fs.Attach(fsapi.Root)
			}
			name := func() string { return fmt.Sprintf("/%c/f%d", 'a'+rng.Intn(2), rng.Intn(24)) }
			for step := 0; step < 40; step++ {
				mutate(rng, c, name)
				switch rng.Intn(10) {
				case 0:
					dev.SetMode(pmem.ModeTracked)
				case 1:
					if dev.Mode() != pmem.ModeTracked {
						break
					}
					dev.StopAt(dev.Stats.Fences.Load() + 1 + uint64(rng.Intn(30)))
					for i := 0; i < 10 && !pmem.Run(func() { mutate(rng, c, name) }); i++ {
					}
					dev.StopAt(0)
					if rng.Intn(2) == 0 {
						dev.Crash()
					} else {
						dev.CrashPartial(rng)
					}
					remount()
				case 2:
					var img bytes.Buffer
					if _, err := dev.WriteTo(&img); err != nil {
						t.Fatal(err)
					}
					if dev, err = pmem.ReadImage(&img); err != nil {
						t.Fatal(err)
					}
					checkImage(t, dev, fmt.Sprintf("step %d, read back", step))
					remount()
				}
				checkImage(t, dev, fmt.Sprintf("step %d", step))
			}
		})
	}
}

// mutate runs a few random operations; errors (a full volume, a name that
// is not there) are part of the mix.
func mutate(rng *rand.Rand, c fsapi.Client, name func() string) {
	for i := 0; i < 1+rng.Intn(6); i++ {
		switch rng.Intn(6) {
		case 0, 1:
			fd, err := c.Open(name(), fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				continue
			}
			data := make([]byte, 1+rng.Intn(3*pmem.ImagePage))
			rng.Read(data)
			c.Pwrite(fd, data, uint64(rng.Intn(8*pmem.ImagePage)))
			c.Close(fd)
		case 2:
			c.Unlink(name())
		case 3:
			if fd, err := c.Open(name(), fsapi.ORdwr, 0); err == nil {
				c.Ftruncate(fd, uint64(rng.Intn(8*pmem.ImagePage)))
				c.Close(fd)
			}
		case 4:
			// A write far past the end: the file's hole is NT-zeroed.
			if fd, err := c.Open(name(), fsapi.ORdwr, 0); err == nil {
				st, _ := c.Fstat(fd)
				c.Pwrite(fd, []byte{byte(1 + rng.Intn(255))}, st.Size+uint64(rng.Intn(5*pmem.ImagePage)))
				c.Close(fd)
			}
		case 5:
			c.Rename(name(), name())
		}
	}
}

// TestWriteToComparesWrittenPagesOnly: on a 128 MiB volume that holds one
// small file, the snapshot compares the few dozen pages the volume's
// stores reached, not the arena's 32,768.
func TestWriteToComparesWrittenPagesOnly(t *testing.T) {
	dev := pmem.New(128 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	fd, err := c.Create("/small", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(fd, []byte("a small file"))
	c.Close(fd)
	compared, marked := dev.ComparedPages(), dev.MarkedPages()
	if compared != marked || compared > 64 {
		t.Fatalf("WriteTo compares %d pages (%d marked) of %d, want the marked ones, at most 64",
			compared, marked, dev.Size()/pmem.ImagePage)
	}
	t.Logf("%d of %d pages compared", compared, dev.Size()/pmem.ImagePage)
}
