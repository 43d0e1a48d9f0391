// Package bench provides the shared harness for the paper's evaluation:
// file-system factories for all five systems, fixed-duration points
// measuring throughput at a thread count, the stopwatch client behind the
// time breakdown, and the series formatting that mirrors the paper's
// figures.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/kfs"
	"simurgh/internal/kfs/splitfs"
	"simurgh/internal/pmem"
	"simurgh/internal/vfs"
)

// FSNames lists the systems in the paper's presentation order.
var FSNames = []string{"simurgh", "nova", "pmfs", "ext4-dax", "splitfs"}

// MakeFS creates a fresh instance of the named file system over an
// emulated NVMM device of the given size, with the paper's cost accounting
// (jmpp delta for Simurgh, syscall cost for the kernel systems).
func MakeFS(name string, devSize uint64) (fsapi.FileSystem, error) {
	fs, _, err := MakeFSModel(name, devSize)
	return fs, err
}

// MakeFSModel is MakeFS that also hands back the cost model the system's
// calls are charged through, for experiments that read its tally (set
// Disabled on it before the first call to count without spinning).
func MakeFSModel(name string, devSize uint64) (fsapi.FileSystem, *cost.Model, error) {
	// Free the arenas of earlier instances first, so that this one reuses
	// their memory instead of adding to it.
	runtime.GC()
	dev := pmem.New(devSize)
	// Benchmarks run with the Optane persistence-latency model so flushes,
	// fences and non-temporal stores cost realistic time; unit tests use
	// devices without it. Pre-faulting keeps host page faults out of the
	// measured windows.
	dev.Prefault()
	dev.SetLatency(pmem.OptaneLatency(), cost.SpinNs)
	m := cost.KernelModel()
	mkKernel := func(kind kfs.Kind) fsapi.FileSystem {
		inner := kfs.New(kind, dev)
		inner.EnableSoftwareCosts(cost.Spin)
		return vfs.New(inner, m)
	}
	// A generous busy-wait threshold: on an oversubscribed benchmark host a
	// live lock holder can be descheduled long enough to look dead, and a
	// waiter must not "recover" its lock out from under it.
	opts := core.Options{LineLockTimeout: 10 * time.Second}
	var fs fsapi.FileSystem
	var err error
	switch name {
	case "simurgh", "simurgh-relaxed":
		m = cost.SimurghModel()
		opts.Cost, opts.RelaxedWrites = m, name == "simurgh-relaxed"
		fs, err = core.Format(dev, fsapi.Root, opts)
	case "simurgh-syscall":
		// Ablation: Simurgh's design but with a full syscall charged per
		// operation instead of the jmpp delta — isolates how much of the
		// win comes from protected functions vs. the file-system design.
		// Simurgh enters through ProtectedCall whatever the crossing costs,
		// so the syscall's cycles are this model's protected entry (a
		// KernelModel, which charges SyscallEntry, charged this variant
		// nothing and made it the faster of the two).
		m = &cost.Model{ProtectedEntry: cost.SyscallCycles}
		opts.Cost = m
		fs, err = core.Format(dev, fsapi.Root, opts)
	case "nova":
		fs = mkKernel(kfs.KindNova)
	case "pmfs":
		fs = mkKernel(kfs.KindPMFS)
	case "ext4-dax":
		fs = mkKernel(kfs.KindExtDax)
	case "splitfs":
		sfs := splitfs.New(dev, m)
		sfs.Inner().EnableSoftwareCosts(cost.Spin)
		fs = sfs
	default:
		return nil, nil, fmt.Errorf("bench: unknown file system %q", name)
	}
	return fs, m, err
}

// Result is one measured point: a file system at a thread count.
type Result struct {
	FS      string
	Threads int
	Ops     uint64
	Bytes   uint64
	Elapsed time.Duration
}

// OpsPerSec returns throughput in operations per second.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MBPerSec returns data throughput in MiB/s.
func (r Result) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// Workload is a benchmark that can run against any file system.
type Workload struct {
	// Name identifies the benchmark (e.g. "create-private").
	Name string
	// DevSize overrides the device size when nonzero.
	DevSize uint64
	// Setup prepares the volume (shared across all workers); it may return
	// a context value passed to every worker.
	Setup func(fs fsapi.FileSystem) (any, error)
	// Worker runs one thread's loop until stop is closed; it reports how
	// many operations and bytes it completed via the returned counters.
	Worker func(fs fsapi.FileSystem, ctx any, tid int, stop <-chan struct{}) (ops, bytes uint64, err error)
}

// RunPoint measures one (fs, threads) point for the given duration.
func RunPoint(w Workload, fsName string, devSize uint64, threads int, d time.Duration) (Result, error) {
	if w.DevSize != 0 {
		devSize = w.DevSize
	}
	fs, err := MakeFS(fsName, devSize)
	if err != nil {
		return Result{}, err
	}
	ctx := any(nil)
	if w.Setup != nil {
		ctx, err = w.Setup(fs)
		if err != nil {
			return Result{}, fmt.Errorf("%s setup on %s: %w", w.Name, fsName, err)
		}
	}
	// Collect the setup's garbage outside the measured window (MakeFS has
	// already freed earlier points' arenas).
	runtime.GC()
	var ops, bytes atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, b, err := w.Worker(fs, ctx, t, stop)
			ops.Add(o)
			bytes.Add(b)
			if err != nil {
				errs <- err
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return Result{}, fmt.Errorf("%s on %s: %w", w.Name, fsName, err)
	default:
	}
	return Result{FS: fsName, Threads: threads, Ops: ops.Load(), Bytes: bytes.Load(), Elapsed: elapsed}, nil
}

// DefaultThreads returns the paper's 1..10 sweep clamped to the host.
func DefaultThreads() []int {
	max := runtime.NumCPU()
	if max > 10 {
		max = 10
	}
	var ts []int
	for t := 1; t <= max; t++ {
		ts = append(ts, t)
	}
	if len(ts) == 0 {
		ts = []int{1}
	}
	return ts
}

// PrintSeries renders results as one row per fs with a column per thread
// count, in ops/s (like the Fig 7 series).
func PrintSeries(w io.Writer, title string, results []Result, inMB bool) {
	fmt.Fprintf(w, "\n## %s\n", title)
	threads := map[int]bool{}
	byFS := map[string]map[int]Result{}
	var fsOrder []string
	for _, r := range results {
		threads[r.Threads] = true
		if byFS[r.FS] == nil {
			byFS[r.FS] = map[int]Result{}
			fsOrder = append(fsOrder, r.FS)
		}
		byFS[r.FS][r.Threads] = r
	}
	var ths []int
	for t := range threads {
		ths = append(ths, t)
	}
	sort.Ints(ths)
	fmt.Fprintf(w, "%-16s", "fs \\ threads")
	for _, t := range ths {
		fmt.Fprintf(w, "%12d", t)
	}
	fmt.Fprintln(w)
	for _, fsName := range fsOrder {
		fmt.Fprintf(w, "%-16s", fsName)
		for _, t := range ths {
			r, ok := byFS[fsName][t]
			if !ok {
				fmt.Fprintf(w, "%12s", "-")
				continue
			}
			if inMB {
				fmt.Fprintf(w, "%12.1f", r.MBPerSec())
			} else {
				fmt.Fprintf(w, "%12.0f", r.OpsPerSec())
			}
		}
		fmt.Fprintln(w)
	}
	if inMB {
		fmt.Fprintln(w, "(MiB/s)")
	} else {
		fmt.Fprintln(w, "(ops/s)")
	}
}

// RawReadBandwidth measures the emulated NVMM's raw read bandwidth (the
// "max bandwidth" line of Fig 6 / Fig 7i): threads copy 4 kB blocks from
// random offsets straight off the device, with no file system involved.
// Every page is written first: an unwritten page is the host's shared zero
// page, which a read finds in L1 whatever its offset.
func RawReadBandwidth(devSize uint64, threads int, d time.Duration) Result {
	dev := pmem.New(devSize)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i) | 1
	}
	for off := uint64(0); off < dev.Size(); off += uint64(len(page)) {
		dev.WriteAt(off, page[:min(uint64(len(page)), dev.Size()-off)])
	}
	stop := make(chan struct{})
	reads := make([]uint64, threads) // per goroutine; summed after the window
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			// Simple LCG for offsets; no rand contention.
			x := uint64(t)*2654435761 + 12345
			var n uint64
			for {
				select {
				case <-stop:
					reads[t] = n
					return
				default:
				}
				x = x*6364136223846793005 + 1442695040888963407
				off := (x % (devSize - 4096)) &^ 63
				dev.ReadAt(off, buf)
				n++
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	var ops uint64
	for _, n := range reads {
		ops += n
	}
	return Result{FS: "max-bandwidth", Threads: threads, Ops: ops,
		Bytes: ops * 4096, Elapsed: elapsed}
}
