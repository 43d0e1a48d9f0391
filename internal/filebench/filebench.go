// Package filebench reimplements the four Filebench personalities the paper
// uses (Table 2, Figure 8) — varmail, webserver, webproxy and fileserver —
// as operation loops with the default parameter sets:
//
//	Workload    Files   Dir Width  File Size  Threads
//	varmail     1,000   1,000,000  16 KB      16
//	webserver   1,000   20         16-128 KB  100
//	webproxy    10,000  1,000,000  16 KB      100
//	fileserver  10,000  20         128 KB     50
//
// Each personality follows the canonical Filebench flowop sequence and runs
// as a bench.Workload; the measured figure is flowops per second, as
// Filebench reports.
package filebench

import (
	"fmt"
	"math/rand"
	"sync"

	"simurgh/internal/bench"
	"simurgh/internal/fsapi"
)

// Personality is one Filebench workload description.
type Personality struct {
	Name     string
	Files    int
	FileSize int
	// Loop runs one iteration for a thread; it returns how many flowops it
	// performed.
	Loop func(w *worker) (int, error)
}

type worker struct {
	c     fsapi.Client
	rng   *rand.Rand
	files int
	size  int
	buf   []byte
	tid   int
	seq   int
}

func (w *worker) pick() string { return fmt.Sprintf("/data/f%06d", w.rng.Intn(w.files)) }

func (w *worker) readWhole(path string) error {
	fd, err := w.c.Open(path, fsapi.ORdonly, 0)
	if err == fsapi.ErrNotExist {
		// Another thread is between delete and re-create of this file —
		// part of the varmail mix, not an error.
		return nil
	}
	if err != nil {
		return err
	}
	defer w.c.Close(fd)
	for off := uint64(0); ; off += uint64(len(w.buf)) {
		n, err := w.c.Pread(fd, w.buf, off)
		if err != nil || n < len(w.buf) {
			return nil // EOF
		}
	}
}

func (w *worker) appendTo(path string, n int, sync bool) error {
	fd, err := w.c.Open(path, fsapi.OCreate|fsapi.OWronly|fsapi.OAppend, 0o644)
	if err != nil {
		return err
	}
	defer w.c.Close(fd)
	if _, err := w.c.Write(fd, w.buf[:n]); err != nil {
		return err
	}
	if sync {
		return w.c.Fsync(fd)
	}
	return nil
}

func (w *worker) createWrite(path string, n int, sync bool) error {
	fd, err := w.c.Create(path, 0o644)
	if err != nil {
		return err
	}
	defer w.c.Close(fd)
	for off := 0; off < n; off += len(w.buf) {
		chunk := n - off
		if chunk > len(w.buf) {
			chunk = len(w.buf)
		}
		if _, err := w.c.Write(fd, w.buf[:chunk]); err != nil {
			return err
		}
	}
	if sync {
		return w.c.Fsync(fd)
	}
	return nil
}

// varmail: deletefile; createfile+append+fsync; openfile+read+append+fsync;
// openfile+read (the classic mail-server cycle; metadata dominated).
func varmailLoop(w *worker) (int, error) {
	victim := w.pick()
	w.c.Unlink(victim) // may not exist; both outcomes are part of the mix
	if err := w.createWrite(victim, w.size/2, true); err != nil {
		return 0, err
	}
	target := w.pick()
	if err := w.readWhole(target); err != nil {
		return 0, err
	}
	if err := w.appendTo(target, w.size/2, true); err != nil {
		return 0, err
	}
	if err := w.readWhole(w.pick()); err != nil {
		return 0, err
	}
	return 16, nil // flowops per iteration in the varmail personality
}

// webserver: open+read ten files, append 16 KB to a shared log. The logs
// rotate: a thread deletes its log after every 1 MiB it appended, so the
// logs hold at most 1 MiB a thread however long the window.
func webserverLoop(w *worker) (int, error) {
	for i := 0; i < 10; i++ {
		if err := w.readWhole(w.pick()); err != nil {
			return 0, err
		}
	}
	log := fmt.Sprintf("/logs/log%d", w.tid%4)
	if w.seq++; w.seq%64 == 0 {
		w.c.Unlink(log) // another thread may have rotated it already
	}
	if err := w.appendTo(log, 16<<10, false); err != nil {
		return 0, err
	}
	return 21, nil
}

// webproxy: delete, create+append, then five whole-file reads.
func webproxyLoop(w *worker) (int, error) {
	w.seq++
	name := fmt.Sprintf("/data/t%d-%d", w.tid, w.seq)
	if w.seq > 1 {
		w.c.Unlink(fmt.Sprintf("/data/t%d-%d", w.tid, w.seq-1))
	}
	if err := w.createWrite(name, w.size, false); err != nil {
		return 0, err
	}
	for i := 0; i < 5; i++ {
		if err := w.readWhole(w.pick()); err != nil {
			return 0, err
		}
	}
	return 9, nil
}

// fileserver: create+write whole file, open+append, whole-file read,
// delete, stat.
func fileserverLoop(w *worker) (int, error) {
	w.seq++
	name := fmt.Sprintf("/data/t%d-%d", w.tid, w.seq)
	if err := w.createWrite(name, w.size, false); err != nil {
		return 0, err
	}
	if err := w.appendTo(name, 16<<10, false); err != nil {
		return 0, err
	}
	if err := w.readWhole(w.pick()); err != nil {
		return 0, err
	}
	if err := w.c.Unlink(name); err != nil {
		return 0, err
	}
	if _, err := w.c.Stat(w.pick()); err != nil {
		return 0, err
	}
	return 10, nil
}

// Personalities returns the four workloads with the paper's Table 2 file
// counts and sizes. A point's thread count is the caller's (bench.RunPoint's
// threads), not the table's.
func Personalities() []Personality {
	return []Personality{
		{Name: "varmail", Files: 1000, FileSize: 16 << 10, Loop: varmailLoop},
		{Name: "webserver", Files: 1000, FileSize: 64 << 10, Loop: webserverLoop},
		{Name: "webproxy", Files: 10000, FileSize: 16 << 10, Loop: webproxyLoop},
		{Name: "fileserver", Files: 10000, FileSize: 128 << 10, Loop: fileserverLoop},
	}
}

// ByName finds a personality.
func ByName(name string) (Personality, error) {
	for _, p := range Personalities() {
		if p.Name == name {
			return p, nil
		}
	}
	return Personality{}, fmt.Errorf("filebench: unknown personality %q", name)
}

// fileset is a point's shared state: each thread's worker, registered by
// Prepare.
type fileset struct {
	mu      sync.Mutex
	workers map[int]*worker
}

// Workload returns p as a bench.Workload over a fileset of files files (0
// is the personality's default): Setup populates the fileset, Prepare
// attaches each thread's client, and Worker runs the personality's loop.
func (p Personality) Workload(files int) bench.Workload {
	if files == 0 {
		files = p.Files
	}
	return bench.Workload{
		Name: p.Name,
		// The fileset twice over (a varmail file grows by appends until it
		// is deleted), and 64 MiB for what the threads hold besides:
		// webproxy's and fileserver's files in flight and the rotating logs.
		DevSize: 64<<20 + 2*uint64(files)*uint64(p.FileSize),
		Setup: func(fs fsapi.FileSystem) (any, error) {
			return &fileset{workers: map[int]*worker{}}, populate(fs, files, p.FileSize)
		},
		Prepare: func(fs fsapi.FileSystem, ctx any, tid int) error {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return err
			}
			set := ctx.(*fileset)
			set.mu.Lock()
			defer set.mu.Unlock()
			set.workers[tid] = &worker{
				c: c, rng: rand.New(rand.NewSource(int64(tid) + 1)),
				files: files, size: p.FileSize,
				buf: make([]byte, 64<<10), tid: tid,
			}
			return nil
		},
		Worker: func(_ fsapi.FileSystem, ctx any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			set := ctx.(*fileset)
			set.mu.Lock()
			w := set.workers[tid]
			set.mu.Unlock()
			var ops uint64
			for {
				select {
				case <-stop:
					return ops, 0, nil
				default:
				}
				n, err := p.Loop(w)
				if err != nil {
					return ops, 0, fmt.Errorf("thread %d: %w", tid, err)
				}
				ops += uint64(n)
			}
		},
	}
}

// populate creates the fileset: /data holds files files of size bytes, and
// /logs is the webserver's log directory.
func populate(fs fsapi.FileSystem, files, size int) error {
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer c.Detach()
	if err := c.Mkdir("/data", 0o777); err != nil {
		return err
	}
	if err := c.Mkdir("/logs", 0o777); err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for i := 0; i < files; i++ {
		fd, err := c.Create(fmt.Sprintf("/data/f%06d", i), 0o666)
		if err != nil {
			return err
		}
		for off := 0; off < size; off += len(buf) {
			if _, err := c.Write(fd, buf[:min(size-off, len(buf))]); err != nil {
				return err
			}
		}
		c.Close(fd)
	}
	return nil
}
