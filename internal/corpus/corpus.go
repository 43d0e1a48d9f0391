// Package corpus generates deterministic synthetic source trees standing in
// for the Linux kernel sources the paper uses in its tar, git and recovery
// benchmarks (linux-5.6.14: 672,940 files and 88,780 directories, mostly
// small text files). The generator reproduces the *shape* — deep
// directories, many small files with a long-tailed size distribution — at a
// configurable scale, with contents derived from the seed so runs are
// reproducible.
package corpus

import (
	"fmt"
	"math/rand"

	"simurgh/internal/fsapi"
)

// Spec describes a synthetic tree.
type Spec struct {
	// Depth is the directory nesting depth.
	Depth int
	// Fanout is the number of subdirectories per directory.
	Fanout int
	// FilesPerDir is the number of files in each directory.
	FilesPerDir int
	// MeanFileSize controls the size distribution (long-tailed around it).
	MeanFileSize int
	// Seed makes generation deterministic.
	Seed int64
}

// LinuxLike returns a scaled-down linux-source-like spec: scale=1 yields
// roughly 340 dirs / 2,400 files; each +1 on Depth multiplies by Fanout.
func LinuxLike(scale int) Spec {
	if scale < 1 {
		scale = 1
	}
	return Spec{
		Depth:        3,
		Fanout:       6,
		FilesPerDir:  7 * scale,
		MeanFileSize: 10 * 1024,
		Seed:         42,
	}
}

// Stats reports what was generated.
type Stats struct {
	Dirs  uint64
	Files uint64
	Bytes uint64
}

// pattern is a shared pseudo-random content pool files are sliced from.
var pattern = func() []byte {
	p := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(0xC0FFEE))
	rng.Read(p)
	return p
}()

// FileContent returns the deterministic content of the i-th generated file
// of the given size (a slice of the shared pattern at a seeded offset).
func FileContent(i int, size int) []byte {
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	off := (i * 131071) % (len(pattern) - 1)
	for n := 0; n < size; {
		c := copy(out[n:], pattern[off:])
		n += c
		off = 0
	}
	return out
}

// sizeFor draws a long-tailed file size: mostly small, some 10x mean.
func sizeFor(rng *rand.Rand, mean int) int {
	f := rng.ExpFloat64()
	if f > 8 {
		f = 8
	}
	return int(float64(mean)*f*0.5) + 64
}

// Stats returns the Stats that Generate reports for s, without writing
// anything: a file's size is its draw from the seeded generator, one draw
// per file, so the sizes do not depend on the tree's shape.
func (s Spec) Stats() Stats {
	rng := rand.New(rand.NewSource(s.Seed))
	var st Stats
	for level, n := 0, uint64(1); level <= s.Depth; level, n = level+1, n*uint64(s.Fanout) {
		if level > 0 {
			st.Dirs += n
		}
		st.Files += n * uint64(s.FilesPerDir)
	}
	for i := uint64(0); i < st.Files; i++ {
		st.Bytes += uint64(sizeFor(rng, s.MeanFileSize))
	}
	return st
}

// Generate builds the tree under root (which must exist) using c.
func Generate(c fsapi.Client, root string, spec Spec) (Stats, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	var st Stats
	var fileIdx int
	var build func(dir string, depth int) error
	build = func(dir string, depth int) error {
		for f := 0; f < spec.FilesPerDir; f++ {
			size := sizeFor(rng, spec.MeanFileSize)
			name := fmt.Sprintf("%s/file_%d_%d.c", dir, depth, f)
			fd, err := c.Create(name, 0o644)
			if err != nil {
				return fmt.Errorf("corpus create %s: %w", name, err)
			}
			data := FileContent(fileIdx, size)
			fileIdx++
			if _, err := c.Write(fd, data); err != nil {
				c.Close(fd)
				return fmt.Errorf("corpus write %s: %w", name, err)
			}
			c.Close(fd)
			st.Files++
			st.Bytes += uint64(size)
		}
		if depth >= spec.Depth {
			return nil
		}
		for d := 0; d < spec.Fanout; d++ {
			sub := fmt.Sprintf("%s/dir_%d_%d", dir, depth, d)
			if err := c.Mkdir(sub, 0o755); err != nil {
				return fmt.Errorf("corpus mkdir %s: %w", sub, err)
			}
			st.Dirs++
			if err := build(sub, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(root, 0); err != nil {
		return st, err
	}
	return st, nil
}

// Walk visits every file in a generated tree in a deterministic order.
func Walk(c fsapi.Client, root string, fn func(path string, st fsapi.Stat) error) error {
	ents, err := c.ReadDir(root)
	if err != nil {
		return err
	}
	// Files first, then directories (deterministic by readdir order is not
	// guaranteed; sort lexically).
	sortEntries(ents)
	for _, e := range ents {
		p := root + "/" + e.Name
		if root == "/" {
			p = "/" + e.Name
		}
		if fsapi.IsDir(e.Mode) {
			if err := Walk(c, p, fn); err != nil {
				return err
			}
			continue
		}
		st, err := c.Stat(p)
		if err != nil {
			return err
		}
		if err := fn(p, st); err != nil {
			return err
		}
	}
	return nil
}

func sortEntries(ents []fsapi.DirEntry) {
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].Name < ents[j-1].Name; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
}
