// Package bench provides the shared harness for the paper's evaluation:
// file-system factories for all five systems, the two measured windows
// (RunPoint's fixed-duration, multi-thread point and RunPasses' repeated
// sequential pass), the repetition schedule every figure takes its points
// through, the stopwatch client behind the time breakdown, and the series
// formatting that mirrors the paper's figures.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
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
	fs, _, _, err := MakeFSModel(name, devSize)
	return fs, err
}

// MakeFSModel is MakeFS that also hands back the cost model the system's
// calls are charged through and its device, for experiments that read
// their tallies (set Disabled on the model before the first call to count
// without spinning).
func MakeFSModel(name string, devSize uint64) (fsapi.FileSystem, *cost.Model, *pmem.Device, error) {
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
		return nil, nil, nil, fmt.Errorf("bench: unknown file system %q", name)
	}
	return fs, m, dev, err
}

// Result is one measured point: what a window counted and how long it was.
type Result struct {
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
	// DevSize is the size of the device the point runs on: what the
	// workload holds at its peak, with headroom.
	DevSize uint64
	// Setup prepares the volume (shared across all workers); it may return
	// a context value passed to every worker.
	Setup func(fs fsapi.FileSystem) (any, error)
	// Prepare, when set, does one thread's own setup (its private
	// directory or file) on that thread's goroutine. The measured window
	// opens once every thread's Prepare has returned.
	Prepare func(fs fsapi.FileSystem, ctx any, tid int) error
	// Worker runs one thread's loop until stop is closed; it reports how
	// many operations and bytes it completed via the returned counters.
	Worker func(fs fsapi.FileSystem, ctx any, tid int, stop <-chan struct{}) (ops, bytes uint64, err error)
}

// RunPoint measures one (fs, threads) point for the given duration, on a
// fresh volume of w.DevSize bytes.
func RunPoint(w Workload, fsName string, threads int, d time.Duration) (Result, error) {
	fs, err := MakeFS(fsName, w.DevSize)
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
	stop, begin := make(chan struct{}), make(chan struct{})
	errs := make(chan error, threads)
	var prepared, wg sync.WaitGroup
	prepared.Add(threads)
	for t := 0; t < threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.Prepare != nil {
				if err := w.Prepare(fs, ctx, t); err != nil {
					errs <- err
					prepared.Done()
					return
				}
			}
			prepared.Done()
			<-begin
			o, b, err := w.Worker(fs, ctx, t, stop)
			ops.Add(o)
			bytes.Add(b)
			if err != nil {
				errs <- err
			}
		}()
	}
	prepared.Wait()
	start := time.Now()
	close(begin)
	if len(errs) == 0 { // a failed Prepare ends the run at once
		time.Sleep(d)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return Result{}, fmt.Errorf("%s on %s: %w", w.Name, fsName, err)
	default:
	}
	return Result{Ops: ops.Load(), Bytes: bytes.Load(), Elapsed: elapsed}, nil
}

// PassWindow is the least timed work RunPasses takes of a pass: the one
// window of every sequential application point (tar, git, the breakdown).
const PassWindow = 500 * time.Millisecond

// Passes is what RunPasses measured.
type Passes struct {
	N      int           // timed passes
	Median time.Duration // the median pass
	Total  time.Duration // every timed pass together
}

// RunPasses is the window of a sequential point, one that changes the
// volume and must be undone to run again: it times pass until the timed
// passes add up to PassWindow (at least one pass), and between passes runs
// reset, untimed, which restores the state the first pass started from.
// A collection runs before the window, and between passes only when the
// heap has grown so far since the last one that the next pass could start
// the collector itself, so no pass pays for the garbage of the ones before
// it. The state after the last pass is left as it is.
func RunPasses(pass, reset func() error) (Passes, error) {
	var p Passes
	var times []time.Duration
	runtime.GC()
	var mark uint64 // bytes allocated when the last pass started
	for p.Total < PassWindow {
		if p.N > 0 {
			if err := reset(); err != nil {
				return p, err
			}
			// The runtime starts a collection no earlier than 70 % of the
			// way from the live heap to its goal; collect now if one more
			// pass and reset like the last would pass the half-way mark.
			h := readHeap()
			if h.now+h.allocs-mark >= h.live+(h.goal-h.live)/2 {
				runtime.GC()
			}
		}
		mark = readHeap().allocs
		start := time.Now()
		if err := pass(); err != nil {
			return p, err
		}
		times = append(times, time.Since(start))
		p.Total += times[p.N]
		p.N++
	}
	slices.Sort(times)
	p.Median = (times[(p.N-1)/2] + times[p.N/2]) / 2
	return p, nil
}

// heapState is what RunPasses reads of the collector.
type heapState struct {
	live   uint64 // marked live by the last collection
	goal   uint64 // the heap size the next collection is paced to finish by
	now    uint64 // the heap now: live objects and garbage not yet freed
	allocs uint64 // bytes allocated since the process started
}

func readHeap() heapState {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return heapState{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()}
}

// DefaultThreads returns the paper's 1..10 sweep clamped to the host.
func DefaultThreads() []int {
	ts := []int{1}
	for t := 2; t <= min(runtime.NumCPU(), 10); t++ {
		ts = append(ts, t)
	}
	return ts
}

// Reps is how many measured points Medians takes of every system.
const Reps = 3

// Medians is the one repetition schedule of the paper's figures: it runs
// point on every named system Reps times and returns each system's median
// per column. A discarded warm-up point runs first, and the order of the
// systems reverses on every repetition, so neither the process's first
// point nor a fixed position favours one system.
func Medians(names []string, point func(name string) ([]float64, error)) (map[string][]float64, error) {
	if _, err := point(names[0]); err != nil {
		return nil, err
	}
	runs := map[string][][]float64{}
	order := slices.Clone(names)
	for r := 0; r < Reps; r++ {
		for _, name := range order {
			v, err := point(name)
			if err != nil {
				return nil, err
			}
			runs[name] = append(runs[name], v)
		}
		slices.Reverse(order)
	}
	med := map[string][]float64{}
	for name, rs := range runs {
		for col := range rs[0] {
			vs := make([]float64, len(rs))
			for i, v := range rs {
				vs[i] = v[col]
			}
			slices.Sort(vs)
			med[name] = append(med[name], (vs[(len(vs)-1)/2]+vs[len(vs)/2])/2)
		}
	}
	return med, nil
}

// PrintSeries renders a figure's series (like the Fig 7 ones): one row per
// system with a column per thread count, in MiB/s or ops/s.
func PrintSeries(w io.Writer, title string, threads []int, names []string, vals map[string][]float64, inMB bool) {
	fmt.Fprintf(w, "\n## %s\n%-16s", title, "fs \\ threads")
	for _, t := range threads {
		fmt.Fprintf(w, "%12d", t)
	}
	fmt.Fprintln(w)
	format, unit := "%12.0f", "(ops/s)"
	if inMB {
		format, unit = "%12.1f", "(MiB/s)"
	}
	for _, name := range names {
		fmt.Fprintf(w, "%-16s", name)
		for _, v := range vals[name] {
			fmt.Fprintf(w, format, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, unit)
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
	var reads atomic.Uint64 // each goroutine adds its count once, at the end
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
					reads.Add(n)
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
	return Result{Ops: reads.Load(), Bytes: reads.Load() * 4096, Elapsed: time.Since(start)}
}
