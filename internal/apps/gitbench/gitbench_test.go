package gitbench

import (
	"math"
	"testing"

	"simurgh/internal/bench"
	"simurgh/internal/corpus"
	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// setupRepo makes a fresh volume of the named system with a corpus at /src
// and a repository at /repo; it also returns the volume's cost model and
// device for tests that count.
func setupRepo(t *testing.T, fsName string, spec corpus.Spec) (*Repo, fsapi.Client, corpus.Stats, *cost.Model, *pmem.Device) {
	t.Helper()
	fs, m, dev, err := bench.MakeFSModel(fsName, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.Disabled = true
	c, _ := fs.Attach(fsapi.Root)
	if err := c.Mkdir("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := corpus.Generate(c, "/src", spec)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := Init(c, "/repo", "/src")
	if err != nil {
		t.Fatal(err)
	}
	return repo, c, st, m, dev
}

var small = corpus.Spec{Depth: 2, Fanout: 2, FilesPerDir: 4, MeanFileSize: 2048, Seed: 3}

func TestAddCommitResetCycle(t *testing.T) {
	repo, c, st, _, _ := setupRepo(t, "simurgh", small)
	add, err := repo.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	if add.Files != st.Files {
		t.Fatalf("added %d files, corpus has %d", add.Files, st.Files)
	}
	commit, err := repo.Commit(c, "initial")
	if err != nil {
		t.Fatal(err)
	}
	if commit.Files != st.Files {
		t.Fatalf("commit stated %d files, want %d", commit.Files, st.Files)
	}
	if err := repo.DeleteWorkTree(c); err != nil {
		t.Fatal(err)
	}
	// Everything tracked must be gone.
	for path := range repo.idx {
		if _, err := c.Stat(path); err == nil {
			t.Fatalf("%s survives DeleteWorkTree", path)
		}
	}
	reset, err := repo.Reset(c)
	if err != nil {
		t.Fatal(err)
	}
	if reset.Files != st.Files {
		t.Fatalf("reset restored %d files, want %d", reset.Files, st.Files)
	}
	// Contents must round-trip through the object store.
	for path, h := range repo.idx {
		fst, err := c.Stat(path)
		if err != nil {
			t.Fatalf("restored %s: %v", path, err)
		}
		data := make([]byte, fst.Size)
		fd, _ := c.Open(path, fsapi.ORdonly, 0)
		n, _ := c.Pread(fd, data, 0)
		c.Close(fd)
		if hashOf(data[:n]) != h {
			t.Fatalf("%s content hash mismatch after reset", path)
		}
	}
}

func TestAddIsIdempotentOnObjects(t *testing.T) {
	repo, c, _, _, _ := setupRepo(t, "simurgh", small)
	a1, err := repo.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := repo.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Files != a2.Files || a2.Bytes != 0 {
		t.Fatalf("second add: %+v after %+v, want the same files and no object written", a2, a1)
	}
}

func TestGitCycleOnAllFS(t *testing.T) {
	for _, name := range bench.FSNames {
		repo, c, st, _, _ := setupRepo(t, name, small)
		if _, err := repo.Add(c); err != nil {
			t.Fatalf("%s add: %v", name, err)
		}
		if _, err := repo.Commit(c, "c"); err != nil {
			t.Fatalf("%s commit: %v", name, err)
		}
		if err := repo.DeleteWorkTree(c); err != nil {
			t.Fatalf("%s delete: %v", name, err)
		}
		reset, err := repo.Reset(c)
		if err != nil {
			t.Fatalf("%s reset: %v", name, err)
		}
		if reset.Files != st.Files {
			t.Fatalf("%s: reset %d files, want %d", name, reset.Files, st.Files)
		}
	}
}

// TestEveryPassRepeatsTheFirst runs add, commit and reset through the pass
// window with Undo as its reset, as the Fig 12 command does: every pass
// must report the files and bytes the first did. Commit's bytes are the
// tree and commit objects it wrote, so a commit that found the last pass's
// trees still in the store would report fewer.
func TestEveryPassRepeatsTheFirst(t *testing.T) {
	repo, c, st, _, _ := setupRepo(t, "simurgh", small)
	for _, op := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"add", func() (Result, error) { return repo.Add(c) }},
		{"commit", func() (Result, error) { return repo.Commit(c, "bench") }},
		{"reset", func() (Result, error) { return repo.Reset(c) }},
	} {
		if op.name == "reset" {
			if err := repo.DeleteWorkTree(c); err != nil {
				t.Fatal(err)
			}
		}
		var results []Result
		p, err := bench.RunPasses(func() error {
			res, err := op.run()
			results = append(results, res)
			return err
		}, func() error { return repo.Undo(c) })
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if p.N < 2 || results[0].Files != st.Files || results[0].Bytes == 0 {
			t.Fatalf("%s: %d passes, the first %+v (corpus %d files), want several passes that write", op.name, p.N, results[0], st.Files)
		}
		for i, res := range results {
			if res != results[0] {
				t.Fatalf("%s pass %d reported %+v, the first %+v", op.name, i, res, results[0])
			}
		}
	}
}

// TestCommitCountsPerFile pins what a commit costs per committed file, on
// a fixed-seed corpus, on Simurgh and on the two journaling kernel systems:
// the same crossings everywhere (a stat a file, and the tree and commit
// objects' mkdirs, creates, writes and closes, which the wide directories
// amortise). Simurgh flushes more than PMFS here and fences about as
// often; EXPERIMENTS.md's Fig 12 reads these columns. One more flush, fence
// or crossing a file fails it; the commit object's directory, new or not
// with its time-dependent hash, moves a count by about 0.1.
func TestCommitCountsPerFile(t *testing.T) {
	spec := corpus.Spec{Depth: 2, Fanout: 4, FilesPerDir: 6, MeanFileSize: 10 << 10, Seed: 42}
	for _, want := range []struct {
		name                       string
		crossings, flushes, fences float64
	}{
		{"simurgh", 1.90, 4.58, 2.51},
		{"pmfs", 1.90, 3.28, 2.70},
		{"ext4-dax", 1.90, 11.44, 0.22},
	} {
		repo, c, _, m, dev := setupRepo(t, want.name, spec)
		if _, err := repo.Add(c); err != nil {
			t.Fatal(err)
		}
		calls, before := m.Calls(), dev.StatsSnapshot()
		res, err := repo.Commit(c, "bench")
		if err != nil {
			t.Fatal(err)
		}
		after, files := dev.StatsSnapshot(), float64(res.Files)
		crossings := float64(m.Calls()-calls) / files
		flushes := float64(after.Flushes-before.Flushes) / files
		fences := float64(after.Fences-before.Fences) / files
		t.Logf("%s: %d files, %.2f crossings, %.2f flushes, %.2f fences per file", want.name, res.Files, crossings, flushes, fences)
		if math.Abs(crossings-want.crossings) > 0.5 || math.Abs(flushes-want.flushes) > 0.5 || math.Abs(fences-want.fences) > 0.5 {
			t.Errorf("commit on %s: %.2f crossings, %.2f flushes, %.2f fences per file, want %.2f, %.2f, %.2f ± 0.5",
				want.name, crossings, flushes, fences, want.crossings, want.flushes, want.fences)
		}
	}
}
