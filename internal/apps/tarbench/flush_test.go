package tarbench

import (
	"math"
	"testing"

	"simurgh/internal/bench"
	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
)

// counts is what one pass cost per file it reports: crossings charged to
// the system's cost model, and device flushes and fences.
type counts struct{ crossings, flushes, fences float64 }

// countPass makes a fresh volume of the named system holding a fixed-seed
// corpus at /src, packs it, unpacks it too if unpack is set, and returns
// what the last pass cost per file. The counts do not depend on the host:
// the model tallies without spinning, and one client runs everything in
// order.
func countPass(t *testing.T, name string, unpack bool) counts {
	t.Helper()
	fs, m, dev, err := bench.MakeFSModel(name, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.Disabled = true
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.Generate(c, "/src", corpus.Spec{Depth: 2, Fanout: 4, FilesPerDir: 6, MeanFileSize: 10 << 10, Seed: 42}); err != nil {
		t.Fatalf("%s corpus: %v", name, err)
	}
	run := Pack
	if unpack {
		if _, err := Pack(c); err != nil {
			t.Fatalf("%s pack: %v", name, err)
		}
		run = Unpack
	}
	calls, before := m.Calls(), dev.StatsSnapshot()
	res, err := run(c)
	if err != nil || res.Files == 0 {
		t.Fatalf("%s: %d files, %v", name, res.Files, err)
	}
	after, files := dev.StatsSnapshot(), float64(res.Files)
	got := counts{float64(m.Calls()-calls) / files, float64(after.Flushes-before.Flushes) / files, float64(after.Fences-before.Fences) / files}
	t.Logf("%s: %d files, %.2f crossings, %.2f flushes, %.2f fences per file", name, res.Files, got.crossings, got.flushes, got.fences)
	return got
}

// pin fails t unless every count is within half of one per file of want,
// so one more flush, fence or crossing per file fails it.
func pin(t *testing.T, what, name string, got, want counts) {
	t.Helper()
	if math.Abs(got.crossings-want.crossings) > 0.5 || math.Abs(got.flushes-want.flushes) > 0.5 || math.Abs(got.fences-want.fences) > 0.5 {
		t.Errorf("%s on %s: %+v per file, want %+v ± 0.5", what, name, got, want)
	}
}

// TestUnpackFlushesPerFile pins Simurgh's unpack at or below PMFS's device
// flushes per file on the same corpus: tar creates, writes, chmods and
// utimes every file, so a flush count per file above a journaling kernel
// file system's is a regression of Simurgh's metadata path.
func TestUnpackFlushesPerFile(t *testing.T) {
	if s, p := countPass(t, "simurgh", true), countPass(t, "pmfs", true); s.flushes > p.flushes {
		t.Errorf("simurgh unpack issues %.1f flushes per file, pmfs %.1f", s.flushes, p.flushes)
	}
}

// TestPackCountsPerFile pins what a pack pass costs per packed file, on
// this corpus, on Simurgh and on the two journaling kernel systems: all
// three make the same crossings (a stat, an open, reads, a close and the
// archive's writes), Simurgh flushes and fences under 8 times a file, and
// PMFS and EXT4-DAX flush 13 and 16 times as often.
func TestPackCountsPerFile(t *testing.T) {
	for _, want := range []struct {
		name string
		counts
	}{
		{"simurgh", counts{8.21, 7.84, 7.78}},
		{"pmfs", counts{8.21, 100.60, 10.96}},
		{"ext4-dax", counts{8.21, 127.93, 4.14}},
	} {
		pin(t, "pack", want.name, countPass(t, want.name, false), want.counts)
	}
}
