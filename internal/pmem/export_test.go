package pmem

import "math/bits"

// Test-only windows into the package's unexported state.

const (
	ImageMagic = imageMagic
	ImagePage  = imagePage
)

// MarkedPages counts the pages the written map has marked.
func (d *Device) MarkedPages() int {
	n := 0
	for _, w := range d.written {
		n += bits.OnesCount64(w)
	}
	return n
}

// ComparedPages is how many pages WriteTo compares against zero: the pages
// writtenRuns visits.
func (d *Device) ComparedPages() int {
	_, n := d.writtenRuns()
	return n
}
