package tarbench

import (
	"testing"

	"simurgh/internal/bench"
	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
)

// prepare makes a fresh volume of the named system holding spec's corpus
// at /src, and returns a client of it.
func prepare(t *testing.T, name string, spec corpus.Spec) (fsapi.Client, corpus.Stats) {
	t.Helper()
	fs, err := bench.MakeFS(name, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := corpus.Generate(c, "/src", spec)
	if err != nil {
		t.Fatalf("%s corpus: %v", name, err)
	}
	return c, st
}

func TestPackUnpackRoundTrip(t *testing.T) {
	c, st := prepare(t, "simurgh", corpus.Spec{Depth: 2, Fanout: 3, FilesPerDir: 4, MeanFileSize: 4096, Seed: 1})
	if st.Files == 0 || st.Dirs == 0 {
		t.Fatalf("empty corpus: %+v", st)
	}
	pack, err := Pack(c)
	if err != nil {
		t.Fatal(err)
	}
	if pack.Files != st.Files || pack.Bytes != st.Bytes {
		t.Fatalf("packed %+v, corpus has %+v", pack, st)
	}
	unpack, err := Unpack(c)
	if err != nil {
		t.Fatal(err)
	}
	if unpack != pack {
		t.Fatalf("unpacked %+v, packed %+v", unpack, pack)
	}
	if err := Verify(c); err != nil {
		t.Fatal(err)
	}
}

func TestPackOnAllFS(t *testing.T) {
	spec := corpus.Spec{Depth: 1, Fanout: 2, FilesPerDir: 3, MeanFileSize: 2048, Seed: 2}
	for _, name := range bench.FSNames {
		c, _ := prepare(t, name, spec)
		if _, err := Pack(c); err != nil {
			t.Fatalf("%s pack: %v", name, err)
		}
		if _, err := Unpack(c); err != nil {
			t.Fatalf("%s unpack: %v", name, err)
		}
		if err := Verify(c); err != nil {
			t.Fatalf("%s verify: %v", name, err)
		}
	}
}

// TestEveryPassRepeatsTheFirst runs pack and unpack through the pass window
// with their undos as its resets, as the Fig 11 command does: every pass
// must move the files and bytes the first moved, and the tree unpacked by
// the last pass must match the source.
func TestEveryPassRepeatsTheFirst(t *testing.T) {
	c, st := prepare(t, "simurgh", corpus.Spec{Depth: 2, Fanout: 3, FilesPerDir: 4, MeanFileSize: 4096, Seed: 1})
	for _, op := range []struct {
		name string
		run  func(fsapi.Client) (Result, error)
		undo func(fsapi.Client) error
	}{{"pack", Pack, UndoPack}, {"unpack", Unpack, UndoUnpack}} {
		var results []Result
		p, err := bench.RunPasses(func() error {
			res, err := op.run(c)
			results = append(results, res)
			return err
		}, func() error { return op.undo(c) })
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if p.N < 2 || len(results) != p.N {
			t.Fatalf("%s: %d passes in the window (%d run), want several", op.name, p.N, len(results))
		}
		for i, res := range results {
			if res != results[0] || res.Files != st.Files {
				t.Fatalf("%s pass %d moved %+v, the first %+v (corpus %d files)", op.name, i, res, results[0], st.Files)
			}
		}
	}
	if err := Verify(c); err != nil {
		t.Fatal(err)
	}
}
