package pmem

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// runImage builds a run image of a size-byte device by hand: each run is
// (offset, length) filled with 0xa5, and a zero-length run ends it.
func runImage(size uint64, runs ...imageRun) []byte {
	img := binary.LittleEndian.AppendUint64(nil, imageMagic)
	img = binary.LittleEndian.AppendUint64(img, size)
	for _, r := range runs {
		img = binary.LittleEndian.AppendUint64(img, r.off)
		img = binary.LittleEndian.AppendUint64(img, r.n)
		img = append(img, bytes.Repeat([]byte{0xa5}, int(r.n))...)
	}
	return append(img, make([]byte, imageHdrSize)...)
}

func TestImageRoundTrip(t *testing.T) {
	const size = 16 * imagePage
	withContent := func(d *Device) *Device {
		d.WriteAt(100, []byte("persisted across serialization"))
		d.Store64(imagePage, 0xfeedface)
		return d
	}
	allSet := New(size)
	allSet.WriteAt(0, bytes.Repeat([]byte{0x5a}, size))
	alternating := New(size)
	for p := uint64(0); p < size/imagePage; p += 2 {
		// A different byte of each page, so no position within a page is
		// assumed to be where its data starts.
		alternating.WriteAt(p*imagePage+(p*517)%imagePage, []byte{byte(p + 1)})
	}
	partial := New(3*imagePage + 192)
	partial.WriteAt(partial.Size()-1, []byte{1})

	cases := []struct {
		name    string
		dev     *Device
		wantLen int // exact image length
	}{
		{name: "all-zero", dev: New(size), wantLen: 2 * imageHdrSize},
		{name: "all-nonzero", dev: allSet, wantLen: 3*imageHdrSize + size},
		{name: "alternating-pages", dev: alternating, wantLen: 2*imageHdrSize + 8*(imageHdrSize+imagePage)},
		{name: "partial-last-page", dev: partial, wantLen: 3*imageHdrSize + 192},
		{name: "content", dev: withContent(New(size)), wantLen: 3*imageHdrSize + 2*imagePage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := tc.dev.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			if buf.Len() != tc.wantLen {
				t.Fatalf("image is %d bytes, want %d", buf.Len(), tc.wantLen)
			}
			img := buf.Bytes()
			if got := ImageSize(img); got != tc.dev.Size() {
				t.Fatalf("ImageSize = %d, want %d", got, tc.dev.Size())
			}
			d2, err := ReadImage(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			if d2.Size() != tc.dev.Size() {
				t.Fatalf("size %d != %d", d2.Size(), tc.dev.Size())
			}
			if !bytes.Equal(d2.buf, tc.dev.buf) {
				t.Fatal("loaded arena differs from the saved one")
			}
		})
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	if _, err := ReadImage(strings.NewReader("this is not a device image at all")); err == nil {
		t.Fatal("garbage image accepted")
	}
}

func TestReadImageRejectsTruncated(t *testing.T) {
	d := New(1 << 14)
	d.WriteAt(0, bytes.Repeat([]byte{1}, 1<<14))
	var buf bytes.Buffer
	d.WriteTo(&buf)
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
	if _, err := ReadImage(trunc); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestReadImageRejectsBadRuns(t *testing.T) {
	const size = 1 << 14
	valid := runImage(size, imageRun{0, 2 * imagePage})
	// A run whose offset+length wraps around 2^64.
	wraps := binary.LittleEndian.AppendUint64(valid[:imageHdrSize:imageHdrSize], imagePage)
	wraps = binary.LittleEndian.AppendUint64(wraps, ^uint64(0)-imagePage+2)
	cases := []struct {
		name string
		img  []byte
	}{
		{"overlapping", runImage(size, imageRun{0, 2 * imagePage}, imageRun{imagePage, imagePage})},
		{"out-of-order", runImage(size, imageRun{2 * imagePage, imagePage}, imageRun{0, imagePage})},
		{"past-size", runImage(size, imageRun{3 * imagePage, 2 * imagePage})},
		{"offset-past-size", runImage(size, imageRun{size + imagePage, 1})},
		{"length-wraps", wraps},
		{"truncated-mid-run", valid[:2*imageHdrSize+100]},
		{"unterminated", valid[:len(valid)-imageHdrSize]},
	}
	if _, err := ReadImage(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the well-formed image is refused: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadImage(bytes.NewReader(tc.img)); err == nil {
				t.Fatal("bad image accepted")
			}
		})
	}
}

func FuzzReadImage(f *testing.F) {
	d := New(1 << 14)
	d.WriteAt(5000, []byte("some written bytes"))
	var buf bytes.Buffer
	d.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add(runImage(1<<13, imageRun{0, 100}, imageRun{4096, 4096}))
	f.Add(runImage(1<<13, imageRun{4096, 100}, imageRun{0, 100}))
	f.Add([]byte("this is not a device image at all"))
	f.Fuzz(func(t *testing.T, img []byte) {
		if ImageSize(img) > 1<<20 {
			t.Skip("arena too large for a fuzz case")
		}
		d, err := ReadImage(bytes.NewReader(img))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadImage(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted image's rewrite: %v", err)
		}
		if d2.Size() != d.Size() || !bytes.Equal(d2.buf, d.buf) {
			t.Fatal("arena changed across WriteTo → ReadImage")
		}
		if buf.Len() != 0 {
			t.Fatalf("ReadImage left %d bytes of a WriteTo image unread", buf.Len())
		}
	})
}

func TestLatencyChargesSpin(t *testing.T) {
	d := New(1 << 12)
	var charged uint64
	d.SetLatency(Latency{FlushNs: 7, FenceNs: 11, NTStoreNsPerLine: 3},
		func(ns uint64) { charged += ns })
	d.Flush(0, 64)                  // 1 line -> 7
	d.Fence()                       // 11
	d.NTStore(0, make([]byte, 128)) // 2 lines -> 6
	if charged != 7+11+6 {
		t.Fatalf("charged %d ns, want 24", charged)
	}
}

func TestZeroLatencyChargesNothing(t *testing.T) {
	d := New(1 << 12)
	called := false
	d.SetLatency(Latency{}, func(uint64) { called = true })
	d.Flush(0, 64)
	d.Fence()
	if called {
		t.Fatal("zero latency model still spun")
	}
}

// TestEveryStoreMarksItsPage drives each store path once, on a page of a
// fresh device, and requires the written map to hold that page (and no
// other) and the image to ship it. The file system's metadata stores land
// in slab segments that a Zero has already marked, so a run of file-system
// operations alone would not notice a word store that forgot its mark.
func TestEveryStoreMarksItsPage(t *testing.T) {
	const at = 2*imagePage + 64
	stores := []struct {
		name  string
		store func(d *Device)
		zero  bool // stores only zero bytes: marked, but shipped in no run
	}{
		{"Store64", func(d *Device) { d.Store64(at, 1) }, false},
		{"Store32", func(d *Device) { d.Store32(at, 1) }, false},
		{"AtomicStore64", func(d *Device) { d.AtomicStore64(at, 1) }, false},
		{"AtomicStore32", func(d *Device) { d.AtomicStore32(at, 1) }, false},
		{"CompareAndSwap64", func(d *Device) { d.CompareAndSwap64(at, 0, 1) }, false},
		{"AtomicAdd64", func(d *Device) { d.AtomicAdd64(at, 1) }, false},
		{"AtomicOr64", func(d *Device) { d.AtomicOr64(at, 1) }, false},
		{"AtomicAnd64", func(d *Device) { d.AtomicAnd64(at, 1) }, true},
		{"WriteAt", func(d *Device) { d.WriteAt(at, []byte{1}) }, false},
		{"NTStore", func(d *Device) { d.NTStore(at, []byte{1}) }, false},
		{"AtomicWriteAt", func(d *Device) { d.AtomicWriteAt(at, []byte{1}) }, false},
		{"Zero", func(d *Device) { d.Zero(at, 64) }, true},
		{"NTZero", func(d *Device) { d.NTZero(at, 64) }, true},
		{"AtomicZero", func(d *Device) { d.AtomicZero(at, 64) }, true},
	}
	for _, tc := range stores {
		for _, mode := range []Mode{ModeFast, ModeTracked} {
			d := New(4 * imagePage)
			d.SetMode(mode)
			tc.store(d)
			if got := d.written[0]; got != 1<<2 {
				t.Errorf("%s (mode %d): written map %#b, want only page 2", tc.name, mode, got)
			}
			runs, compared := d.writtenRuns()
			want := []imageRun{{2 * imagePage, imagePage}}
			if tc.zero {
				want = nil
			}
			if compared != 1 || !slices.Equal(runs, want) {
				t.Errorf("%s (mode %d): runs %v after comparing %d pages, want %v after 1", tc.name, mode, runs, compared, want)
			}
		}
	}
	// A failed compare-and-swap stores nothing.
	d := New(4 * imagePage)
	if d.CompareAndSwap64(at, 5, 1) || d.written[0] != 0 {
		t.Errorf("a failed CompareAndSwap64 marked %#b", d.written[0])
	}
}
