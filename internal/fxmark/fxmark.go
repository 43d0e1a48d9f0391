// Package fxmark implements the FxMark-derived microbenchmarks of the
// paper's Figure 6 and Figure 7 as bench.Workloads: metadata benchmarks
// (create/delete/rename/resolve in private and shared directories) and data
// benchmarks (append, fallocate, random read/overwrite of shared and
// private files). The paper's adaptation is preserved: reads use
// pseudo-random offsets so the CPU cache does not inflate results; the
// original (cache-hot) variant exists separately for the Fig 6 comparison.
package fxmark

import (
	"fmt"
	"math/rand"

	"simurgh/internal/bench"
	"simurgh/internal/fsapi"
)

const (
	// dataDev sizes the device for data-heavy benchmarks.
	dataDev = 1 << 30 // 1 GiB
	// metaDev sizes the device for metadata benchmarks.
	metaDev = 512 << 20

	sharedFileSize  = 64 << 20 // Fig 7i/7k shared file
	privateFileSize = 16 << 20 // Fig 7j/7l per-thread files
	ioSize          = 4096
)

// attached runs one thread's setup (a bench.Workload's Prepare) on a client
// of its own.
func attached(fs fsapi.FileSystem, setup func(c fsapi.Client) error) error {
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer c.Detach()
	return setup(c)
}

// loop runs fn until stop closes, returning the completed count.
func loop(stop <-chan struct{}, fn func(i int) error) (uint64, error) {
	var ops uint64
	for i := 0; ; i++ {
		select {
		case <-stop:
			return ops, nil
		default:
		}
		if err := fn(i); err != nil {
			return ops, err
		}
		ops++
	}
}

// CreatePrivate is Fig 7a: file creation, one directory per thread.
func CreatePrivate() bench.Workload {
	return bench.Workload{
		Name:    "create-private",
		DevSize: metaDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				return c.Mkdir(fmt.Sprintf("/t%d", tid), 0o755)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			dir := fmt.Sprintf("/t%d", tid)
			ops, err := loop(stop, func(i int) error {
				fd, err := c.Create(fmt.Sprintf("%s/f%d", dir, i), 0o644)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
			return ops, 0, err
		},
	}
}

// CreateShared is Fig 7b: file creation, all threads in one directory.
func CreateShared() bench.Workload {
	return bench.Workload{
		Name:    "create-shared",
		DevSize: metaDev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			return nil, c.Mkdir("/shared", 0o777)
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			ops, err := loop(stop, func(i int) error {
				fd, err := c.Create(fmt.Sprintf("/shared/t%d-f%d", tid, i), 0o644)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
			return ops, 0, err
		},
	}
}

// UnlinkPrivate is Fig 7c: deleting empty files from private directories.
// Each thread's first pool is stocked before the window opens; workers
// restock (uncounted, but inside the window) when a pool runs dry.
func UnlinkPrivate() bench.Workload {
	const stock = 512
	restock := func(c fsapi.Client, dir string, gen int) error {
		for i := 0; i < stock; i++ {
			fd, err := c.Create(fmt.Sprintf("%s/g%d-f%d", dir, gen, i), 0o644)
			if err != nil {
				return err
			}
			c.Close(fd)
		}
		return nil
	}
	return bench.Workload{
		Name:    "unlink-private",
		DevSize: metaDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				dir := fmt.Sprintf("/t%d", tid)
				if err := c.Mkdir(dir, 0o755); err != nil {
					return err
				}
				return restock(c, dir, 0)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			dir := fmt.Sprintf("/t%d", tid)
			var ops uint64
			for gen := 0; ; gen++ {
				if gen > 0 {
					if err := restock(c, dir, gen); err != nil {
						return ops, 0, err
					}
				}
				for i := 0; i < stock; i++ {
					select {
					case <-stop:
						return ops, 0, nil
					default:
					}
					if err := c.Unlink(fmt.Sprintf("%s/g%d-f%d", dir, gen, i)); err != nil {
						return ops, 0, err
					}
					ops++
				}
			}
		},
	}
}

// RenameShared is Fig 7d: renaming files within one shared directory.
func RenameShared() bench.Workload {
	return bench.Workload{
		Name:    "rename-shared",
		DevSize: metaDev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			return nil, c.Mkdir("/shared", 0o777)
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			cur := fmt.Sprintf("/shared/t%d-gen0", tid)
			fd, err := c.Create(cur, 0o644)
			if err != nil {
				return 0, 0, err
			}
			c.Close(fd)
			ops, err := loop(stop, func(i int) error {
				next := fmt.Sprintf("/shared/t%d-gen%d", tid, i+1)
				if err := c.Rename(cur, next); err != nil {
					return err
				}
				cur = next
				return nil
			})
			return ops, 0, err
		},
	}
}

// ResolvePrivate is Fig 7e: opening files in private directories of depth 5.
func ResolvePrivate() bench.Workload {
	target := func(tid int) string { return fmt.Sprintf("/p%d/d/d/d/d/target", tid) }
	return bench.Workload{
		Name:    "resolve-private",
		DevSize: metaDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				path := fmt.Sprintf("/p%d", tid)
				if err := c.Mkdir(path, 0o755); err != nil {
					return err
				}
				for d := 0; d < 4; d++ {
					path += "/d"
					if err := c.Mkdir(path, 0o755); err != nil {
						return err
					}
				}
				fd, err := c.Create(target(tid), 0o644)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			file := target(tid)
			ops, err := loop(stop, func(int) error {
				fd, err := c.Open(file, fsapi.ORdonly, 0)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
			return ops, 0, err
		},
	}
}

// ResolveShared is Fig 7f: all threads resolve paths sharing the same
// directory components (dentry-cache lockref contention for kernel FSes).
func ResolveShared() bench.Workload {
	return bench.Workload{
		Name:    "resolve-shared",
		DevSize: metaDev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			path := "/common"
			if err := c.Mkdir(path, 0o777); err != nil {
				return nil, err
			}
			for d := 0; d < 4; d++ {
				path += "/d"
				if err := c.Mkdir(path, 0o777); err != nil {
					return nil, err
				}
			}
			for t := 0; t < 16; t++ {
				fd, err := c.Create(fmt.Sprintf("%s/target%d", path, t), 0o644)
				if err != nil {
					return nil, err
				}
				c.Close(fd)
			}
			return path, nil
		},
		Worker: func(fs fsapi.FileSystem, ctx any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			file := fmt.Sprintf("%s/target%d", ctx.(string), tid%16)
			ops, err := loop(stop, func(int) error {
				fd, err := c.Open(file, fsapi.ORdonly, 0)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
			return ops, 0, err
		},
	}
}

// AppendPrivate is Fig 7g: 4 kB appends to private files.
func AppendPrivate() bench.Workload {
	return bench.Workload{
		Name:    "append-private",
		DevSize: dataDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				fd, err := c.Create(fmt.Sprintf("/app%d", tid), 0o644)
				if err != nil {
					return err
				}
				return c.Close(fd)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			fd, err := c.Open(fmt.Sprintf("/app%d", tid), fsapi.OWronly|fsapi.OAppend, 0)
			if err != nil {
				return 0, 0, err
			}
			buf := make([]byte, ioSize)
			var bytes uint64
			ops, err := loop(stop, func(i int) error {
				// Bound file growth so long runs fit the device.
				if (uint64(i)+1)*ioSize > 512<<20 {
					if err := c.Ftruncate(fd, 0); err != nil {
						return err
					}
				}
				n, err := c.Write(fd, buf)
				bytes += uint64(n)
				return err
			})
			return ops, bytes, err
		},
	}
}

// Fallocate is Fig 7h: preallocating 4 MB chunks for private files.
func Fallocate() bench.Workload {
	const chunk = 4 << 20
	return bench.Workload{
		Name:    "fallocate",
		DevSize: dataDev,
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			ops, err := loop(stop, func(i int) error {
				name := fmt.Sprintf("/fa%d-%d", tid, i)
				fd, err := c.Create(name, 0o644)
				if err != nil {
					return err
				}
				if err := c.Fallocate(fd, chunk); err != nil {
					return err
				}
				if err := c.Fsync(fd); err != nil {
					return err
				}
				c.Close(fd)
				return c.Unlink(name)
			})
			return ops, ops * chunk, err
		},
	}
}

// prepFile creates a file of the given size filled with pattern data.
func prepFile(c fsapi.Client, name string, size uint64) error {
	fd, err := c.Create(name, 0o666)
	if err != nil {
		return err
	}
	defer c.Close(fd)
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		if _, err := c.Pwrite(fd, buf, off); err != nil {
			return err
		}
	}
	return nil
}

// ReadShared is Fig 7i: random 4 kB reads of one shared file.
func ReadShared() bench.Workload {
	return bench.Workload{
		Name:    "read-shared",
		DevSize: dataDev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			return nil, prepFile(c, "/bigfile", sharedFileSize)
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			fd, err := c.Open("/bigfile", fsapi.ORdonly, 0)
			if err != nil {
				return 0, 0, err
			}
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			buf := make([]byte, ioSize)
			var bytes uint64
			ops, err := loop(stop, func(int) error {
				off := uint64(rng.Int63n(sharedFileSize - ioSize))
				n, err := c.Pread(fd, buf, off)
				bytes += uint64(n)
				return err
			})
			return ops, bytes, err
		},
	}
}

// ReadPrivate is Fig 7j: random 4 kB reads of per-thread files.
func ReadPrivate() bench.Workload {
	return bench.Workload{
		Name:    "read-private",
		DevSize: dataDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				return prepFile(c, fmt.Sprintf("/priv%d", tid), privateFileSize)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			fd, err := c.Open(fmt.Sprintf("/priv%d", tid), fsapi.ORdonly, 0)
			if err != nil {
				return 0, 0, err
			}
			rng := rand.New(rand.NewSource(int64(tid) + 7))
			buf := make([]byte, ioSize)
			var bytes uint64
			ops, err := loop(stop, func(int) error {
				off := uint64(rng.Int63n(privateFileSize - ioSize))
				n, err := c.Pread(fd, buf, off)
				bytes += uint64(n)
				return err
			})
			return ops, bytes, err
		},
	}
}

// ReadSharedCacheHot is the *original* FxMark DRBL behaviour for Fig 6:
// every thread re-reads the same 4 kB block, so results reflect the CPU
// cache rather than NVMM.
func ReadSharedCacheHot() bench.Workload {
	w := ReadShared()
	w.Name = "read-shared-cachehot"
	w.Worker = func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
		c, err := fs.Attach(fsapi.Root)
		if err != nil {
			return 0, 0, err
		}
		fd, err := c.Open("/bigfile", fsapi.ORdonly, 0)
		if err != nil {
			return 0, 0, err
		}
		buf := make([]byte, ioSize)
		var bytes uint64
		ops, err := loop(stop, func(int) error {
			n, err := c.Pread(fd, buf, 0)
			bytes += uint64(n)
			return err
		})
		return ops, bytes, err
	}
	return w
}

// OverwriteShared is Fig 7k: random 4 kB overwrites of one shared file.
// Run it with fs "simurgh-relaxed" as well to reproduce the relaxed series.
func OverwriteShared() bench.Workload {
	return bench.Workload{
		Name:    "overwrite-shared",
		DevSize: dataDev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			return nil, prepFile(c, "/bigfile", sharedFileSize)
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			fd, err := c.Open("/bigfile", fsapi.ORdwr, 0)
			if err != nil {
				return 0, 0, err
			}
			rng := rand.New(rand.NewSource(int64(tid) + 13))
			buf := make([]byte, ioSize)
			var bytes uint64
			ops, err := loop(stop, func(int) error {
				off := uint64(rng.Int63n(sharedFileSize-ioSize)) &^ (ioSize - 1)
				n, err := c.Pwrite(fd, buf, off)
				bytes += uint64(n)
				return err
			})
			return ops, bytes, err
		},
	}
}

// WritePrivate is Fig 7l: random 4 kB writes to private preallocated files.
func WritePrivate() bench.Workload {
	return bench.Workload{
		Name:    "write-private",
		DevSize: dataDev,
		Prepare: func(fs fsapi.FileSystem, _ any, tid int) error {
			return attached(fs, func(c fsapi.Client) error {
				fd, err := c.Create(fmt.Sprintf("/wpriv%d", tid), 0o644)
				if err != nil {
					return err
				}
				if err := c.Fallocate(fd, privateFileSize); err != nil {
					return err
				}
				return c.Close(fd)
			})
		},
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			fd, err := c.Open(fmt.Sprintf("/wpriv%d", tid), fsapi.ORdwr, 0)
			if err != nil {
				return 0, 0, err
			}
			rng := rand.New(rand.NewSource(int64(tid) + 29))
			buf := make([]byte, ioSize)
			var bytes uint64
			ops, err := loop(stop, func(int) error {
				off := uint64(rng.Int63n(privateFileSize-ioSize)) &^ (ioSize - 1)
				n, err := c.Pwrite(fd, buf, off)
				bytes += uint64(n)
				return err
			})
			return ops, bytes, err
		},
	}
}

// All returns every Fig 7 workload keyed by CLI name.
func All() map[string]bench.Workload {
	ws := []bench.Workload{
		CreatePrivate(), CreateShared(), UnlinkPrivate(), RenameShared(),
		ResolvePrivate(), ResolveShared(), AppendPrivate(), Fallocate(),
		ReadShared(), ReadPrivate(), OverwriteShared(), WritePrivate(),
		ReadSharedCacheHot(),
	}
	m := make(map[string]bench.Workload, len(ws))
	for _, w := range ws {
		m[w.Name] = w
	}
	return m
}
