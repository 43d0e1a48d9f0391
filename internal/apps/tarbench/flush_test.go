package tarbench

import (
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
	"simurgh/internal/kfs"
	"simurgh/internal/pmem"
	"simurgh/internal/vfs"
)

// TestUnpackFlushesPerFile pins Simurgh's unpack at or below PMFS's device
// flushes per file on the same corpus: tar creates, writes, chmods and
// utimes every file, so a flush count per file above a journaling kernel
// file system's is a regression of Simurgh's metadata path.
func TestUnpackFlushesPerFile(t *testing.T) {
	spec := corpus.Spec{Depth: 2, Fanout: 4, FilesPerDir: 6, MeanFileSize: 10 << 10, Seed: 42}
	perFile := func(fs fsapi.FileSystem, dev *pmem.Device) float64 {
		t.Helper()
		if _, err := Prepare(fs, spec); err != nil {
			t.Fatalf("%s prepare: %v", fs.Name(), err)
		}
		if _, err := Pack(fs); err != nil {
			t.Fatalf("%s pack: %v", fs.Name(), err)
		}
		before := dev.StatsSnapshot().Flushes
		res, err := Unpack(fs)
		if err != nil {
			t.Fatalf("%s unpack: %v", fs.Name(), err)
		}
		if res.Files == 0 {
			t.Fatalf("%s unpacked no files", fs.Name())
		}
		flushes := float64(dev.StatsSnapshot().Flushes-before) / float64(res.Files)
		t.Logf("%s: %d files, %.1f flushes per file", fs.Name(), res.Files, flushes)
		return flushes
	}
	sim, err := core.Format(pmem.New(256<<20), fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pmfs := kfs.New(kfs.KindPMFS, pmem.New(256<<20))
	if s, p := perFile(sim, sim.Device()), perFile(vfs.New(pmfs, nil), pmfs.Device()); s > p {
		t.Errorf("simurgh unpack issues %.1f flushes per file, pmfs %.1f", s, p)
	}
}
