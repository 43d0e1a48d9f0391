package pmem

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// denseImage builds an image in the format earlier builds wrote: the header
// with the dense magic, then the raw arena.
func denseImage(d *Device) []byte {
	img := binary.LittleEndian.AppendUint64(nil, denseImageMagic)
	img = binary.LittleEndian.AppendUint64(img, d.size)
	return append(img, d.buf...)
}

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
		dense   bool // load the dense image of dev instead of its run image
		wantLen int  // exact run-image length, 0 to skip the check
	}{
		{name: "all-zero", dev: New(size), wantLen: 2 * imageHdrSize},
		{name: "all-nonzero", dev: allSet, wantLen: 3*imageHdrSize + size},
		{name: "alternating-pages", dev: alternating, wantLen: 2*imageHdrSize + 8*(imageHdrSize+imagePage)},
		{name: "partial-last-page", dev: partial, wantLen: 3*imageHdrSize + 192},
		{name: "content", dev: withContent(New(size)), wantLen: 3*imageHdrSize + 2*imagePage},
		{name: "dense", dev: withContent(New(size)), dense: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var img []byte
			if tc.dense {
				img = denseImage(tc.dev)
			} else {
				var buf bytes.Buffer
				n, err := tc.dev.WriteTo(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(buf.Len()) {
					t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
				}
				if tc.wantLen != 0 && buf.Len() != tc.wantLen {
					t.Fatalf("image is %d bytes, want %d", buf.Len(), tc.wantLen)
				}
				img = buf.Bytes()
			}
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
	if _, err := ReadImage(bytes.NewReader(denseImage(d)[:1<<13])); err == nil {
		t.Fatal("truncated dense image accepted")
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
	f.Add(denseImage(d))
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
