package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simurgh/internal/pmem"
	"simurgh/internal/wire/client"
)

// pointSpec is one timed point: a rung, a client count, a batch size and the
// window plan. Every point gets a fresh populated rig, a GC, an untimed
// warm-up and then windows of fixed length; its figures are taken over the
// windows by bestQuarter.
type pointSpec struct {
	name    string // ledger name of the point
	rung    string
	clients int
	batch   int // ops per client call
	windows int
	window  time.Duration
	warmup  time.Duration
	traced  bool // install the span decorators
	lat     bool // keep every call's latency, for percentiles
	lag     bool // sample the replication commit lag at 10 Hz
}

// counters are the public counters read before and after a point's windows.
type counters struct {
	dev           pmem.StatsSnapshot
	lockWaitNs    uint64
	shardOps      []uint64
	shipBytes     uint64
	remote        client.Stats
	router        client.RouterStats
	mallocs       uint64
	syscalls      uint64
	gcCPU, allCPU float64
	gcPauses      *metrics.Float64Histogram
	schedLat      *metrics.Float64Histogram
	heapLive      uint64
	stealMs       float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func (r *rig) snapshot() counters {
	var c counters
	for _, v := range r.primaries() {
		s := v.dev.StatsSnapshot()
		c.dev.LoadBytes += s.LoadBytes
		c.dev.StoreBytes += s.StoreBytes
		c.dev.NTBytes += s.NTBytes
		c.dev.Flushes += s.Flushes
		c.dev.Fences += s.Fences
		o := v.fs.Obs().Snapshot()
		for _, lw := range o.LockWaits {
			c.lockWaitNs += lw.TotalNs
		}
		var calls uint64
		for _, op := range o.Ops {
			calls += op.Calls
		}
		c.shardOps = append(c.shardOps, calls)
	}
	for _, g := range r.groups {
		if g.node != nil {
			_, b := g.node.ShipStats()
			c.shipBytes += b
		}
	}
	if r.remote != nil {
		c.remote = r.remote.Stats()
	}
	if r.router != nil {
		c.router = r.router.Stats()
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	metrics.Read(samples)
	c.mallocs = samples[0].Value.Uint64()
	c.gcCPU = samples[1].Value.Float64()
	c.allCPU = samples[2].Value.Float64()
	c.gcPauses = samples[3].Value.Float64Histogram()
	c.schedLat = samples[4].Value.Float64Histogram()
	c.heapLive = samples[5].Value.Uint64()
	c.syscalls = procSyscalls()
	c.stealMs = hostStealMs()
	return c
}

// hostStealMs is the steal column of /proc/stat's cpu line, in ms: time a
// runnable vCPU spent waiting for the hypervisor.
func hostStealMs() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks * 10 // USER_HZ is 100 on every Linux Go supports
}

// procSyscalls is syscr+syscw of /proc/self/io: read and write system calls
// of the whole process, which hosts clients, servers and backups alike.
func procSyscalls() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n uint64
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseUint(v, 10, 64)
			n += x
		}
	}
	return n
}

// peakRSSMiB is VmHWM of this process.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// histDeltaQuantile is quantile q of the observations a runtime histogram
// gained between two reads, as the upper edge of the bucket holding it.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// driveResult is what the closed loop measured.
type driveResult struct {
	windowOps  []float64 // successful ops/s, per window
	p50, p99   []float64 // per-window call latency percentiles, ns
	calls      []int     // calls per window
	attempted  uint64
	failed     uint64
	before     counters
	after      counters
	commitLag  []float64 // Seq − CommitFloor, sampled at 10 Hz
	windowSecs float64
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}

// bestQuarter is the statistic every windowed figure is reported by: the mean
// of the best quarter of the point's windows — the highest per-window
// throughputs, the lowest per-window latency percentiles. On a shared host
// what the neighbours do to the cache, the memory and the vCPUs only ever
// makes a window worse, for seconds at a time, so the median follows
// whichever state fills more than half of a point and the best windows are
// as close to a quiet machine as the point got. In a noisy hour the best
// quarter moved between runs about half as much as the median or the lower
// quartile, in a quiet one no more than they (README, "Why the best quarter
// of the windows").
func bestQuarter(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func (d *driveResult) opsPerS() float64 { return bestQuarter(d.windowOps, true) }

// latency returns the call-latency percentiles in ns, by the best quarter of
// the windows, and the number of calls they rest on.
func (d *driveResult) latency() (p50, p99 float64, calls int) {
	for _, n := range d.calls {
		calls += n
	}
	return bestQuarter(d.p50, false), bestQuarter(d.p99, false), calls
}

// totalOps is the number of successful ops inside the windows.
func (d *driveResult) totalOps() float64 {
	var n float64
	for _, w := range d.windowOps {
		n += w * d.windowSecs
	}
	return n
}

// drive runs the closed loop: each client issues its next call when the
// previous one has returned, through a warm-up and then spec.windows windows.
// A call is counted in the window its return falls in. snap, when non-nil,
// reads the counters at the first window's start and the last one's end; lag,
// when non-nil, is sampled at 10 Hz in between.
func drive(spec pointSpec, clients []worker, tr *tracer, snap func() counters, lag func() float64) *driveResult {
	type slot struct {
		ops               []uint64
		lats              [][]uint32
		attempted, failed uint64
		_                 [64]byte
	}
	slots := make([]slot, len(clients))
	for i := range slots {
		slots[i].ops = make([]uint64, spec.windows)
		if spec.lat {
			slots[i].lats = make([][]uint32, spec.windows)
			for w := range slots[i].lats {
				slots[i].lats[w] = make([]uint32, 0, 1<<15)
			}
		}
	}
	start := time.Now()
	measure := start.Add(spec.warmup)
	end := measure.Add(time.Duration(spec.windows) * spec.window)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := clients[i], &slots[i]
			prev := start
			var call int32
			for {
				a, f := c.step()
				t := time.Now()
				s.attempted += uint64(a)
				s.failed += uint64(f)
				if tr != nil {
					tr.root(i, call, prev, t)
					call++
				}
				if !t.Before(measure) {
					w := int(t.Sub(measure) / spec.window)
					if w >= spec.windows {
						if c.settled() {
							return
						}
					} else {
						s.ops[w] += uint64(a - f)
						if spec.lat {
							s.lats[w] = append(s.lats[w], uint32(min(t.Sub(prev), math.MaxUint32)))
						}
					}
				}
				prev = t
			}
		}(i)
	}
	res := &driveResult{windowSecs: spec.window.Seconds()}
	time.Sleep(time.Until(measure))
	if snap != nil {
		res.before = snap()
	}
	if tr != nil {
		tr.recording.Store(true)
	}
	for lag != nil && time.Until(end) > 100*time.Millisecond {
		time.Sleep(100 * time.Millisecond)
		res.commitLag = append(res.commitLag, lag())
	}
	time.Sleep(time.Until(end))
	if tr != nil {
		tr.recording.Store(false)
	}
	if snap != nil {
		res.after = snap()
	}
	wg.Wait()

	for w := 0; w < spec.windows; w++ {
		var ops uint64
		var lats []uint32
		for i := range slots {
			ops += slots[i].ops[w]
			if spec.lat {
				lats = append(lats, slots[i].lats[w]...)
			}
		}
		res.windowOps = append(res.windowOps, float64(ops)/spec.window.Seconds())
		if spec.lat && len(lats) > 0 {
			slices.Sort(lats)
			res.p50 = append(res.p50, float64(lats[len(lats)/2]))
			res.p99 = append(res.p99, float64(lats[len(lats)*99/100]))
			res.calls = append(res.calls, len(lats))
		}
	}
	for i := range slots {
		res.attempted += slots[i].attempted
		res.failed += slots[i].failed
	}
	return res
}

// gcPercent is the collector setting the process started with (GOGC).
var gcPercent = func() int {
	p := debug.SetGCPercent(100)
	debug.SetGCPercent(p)
	return p
}()

// ready is a point whose rig is up and whose clients are attached: set-up is
// over, nothing is timed yet.
type ready struct {
	spec    pointSpec
	w       workload
	rig     *rig
	tr      *tracer
	clients []worker
	setup   time.Duration
	spinErr float64
}

// prepare checks the spin calibration, builds the point's rig and attaches
// its clients one after the other, timing the whole of it as set-up.
//
// close leaves the collector off (after collecting by hand). While the heap
// holds a torn-down rig's arenas to reuse, prepare leaves it off too: with it
// on, the runtime hands those arenas back to the OS in the background, and
// how much of them this set-up has to fault in again (at 2 to 20 µs and more
// a page on this VM; README, "Memory is the benchmark's largest exposure") is
// then a matter of timing. A set-up with nothing to reuse
// turns the collector on, which recycles the snapshot transfer's garbage
// instead of faulting in fresh pages for it. Either way it is on again
// before anything is measured.
func prepare(spec pointSpec, sc scale, w workload) (*ready, error) {
	free := []metrics.Sample{{Name: "/memory/classes/heap/free:bytes"}}
	if metrics.Read(free); free[0].Value.Uint64() < sc.VolumeBytes {
		debug.SetGCPercent(gcPercent)
	}
	defer debug.SetGCPercent(gcPercent)
	p := &ready{spec: spec, w: w, spinErr: checkSpin()}
	if spec.traced {
		p.tr = newTracer(spec.rung, spec.clients)
	}
	t0 := time.Now()
	var err error
	if p.rig, err = buildRig(spec.rung, sc, w, spec.clients, p.tr); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	for i := 0; i < spec.clients; i++ {
		if p.tr != nil {
			p.tr.attaching.Store(int32(i))
		}
		t, err := p.rig.attach()
		if err == nil {
			var c worker
			if c, err = w.newClient(i, spec.clients, t, spec.batch); err == nil {
				p.clients = append(p.clients, c)
			}
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("%s: client %d: %w", spec.name, i, err)
		}
	}
	if p.tr != nil {
		p.tr.attaching.Store(-1)
	}
	p.setup = time.Since(t0)
	return p, nil
}

// close tears the point down and collects its arenas. They stay mapped (see
// prepare): the next set-up reuses them instead of faulting fresh pages in,
// which on this VM costs more than everything else in a set-up put together.
func (p *ready) close() {
	for _, c := range p.clients {
		c.release()
	}
	p.clients = nil
	p.rig.close()
	p.rig = nil
	debug.SetGCPercent(-1)
	runtime.GC()
}

// pointResult is one measured point.
type pointResult struct {
	spec       pointSpec
	drive      *driveResult
	sums       traceSums
	mismatches uint64
	opHash     uint64
	setupS     float64
	verifyS    float64
	spinErrPct float64
	liveBytes  uint64
	usedBytes  uint64
	coreOpNs   []uint32
	codecOps   uint64
	reqBytes   uint64
	respBytes  uint64
	verifyErr  error
	failures   []string
}

// run measures the point, verifies its outputs and leaves the rig up (the
// caller closes it). traceOut, when set on a traced point, receives the
// Chrome trace.
func (p *ready) run(traceOut string) (*pointResult, error) {
	runtime.GC()
	var lag func() float64
	if p.spec.lag && len(p.rig.groups) > 0 && p.rig.groups[0].node != nil {
		lag = func() float64 {
			var n uint64
			for _, g := range p.rig.groups {
				n += g.node.Seq() - g.node.CommitFloor()
			}
			return float64(n)
		}
	}
	res := &pointResult{spec: p.spec, setupS: p.setup.Seconds(), spinErrPct: p.spinErr}
	res.drive = drive(p.spec, p.clients, p.tr, p.rig.snapshot, lag)
	if p.tr != nil {
		res.sums = p.tr.finish()
		if traceOut != "" {
			if err := p.tr.writeChrome(traceOut); err != nil {
				return nil, fmt.Errorf("%s: writing trace: %w", p.spec.name, err)
			}
		}
	}
	for _, c := range p.clients {
		t := c.tally()
		res.mismatches += t.mismatches
		res.opHash = mix(res.opHash ^ t.hash)
		res.failures = append(res.failures, t.failures...)
	}
	for _, t := range p.rig.targets {
		switch t := t.(type) {
		case *coreTarget:
			res.coreOpNs = append(res.coreOpNs, t.opNs...)
		case *codecTarget:
			res.codecOps += t.ops
			res.reqBytes += t.reqBytes
			res.respBytes += t.respBytes
		}
	}

	// Verification, untimed by the windows but timed for bench.verify_s.
	v0 := time.Now()
	res.verifyErr = p.verify(res)
	res.verifyS = time.Since(v0).Seconds()
	return res, nil
}

// verify checks the point's outputs: the cluster is quiescent and never
// failed over or moved a shard, and the volume holds what the model and the
// clients' acknowledged operations say it must.
func (p *ready) verify(res *pointResult) error {
	if err := p.rig.settle(); err != nil {
		return err
	}
	end := p.rig.snapshot()
	if end.remote.Failovers != 0 || end.router.Moves != 0 {
		return fmt.Errorf("%s: %d failovers and %d shard moves during the point, want none",
			p.spec.name, end.remote.Failovers, end.router.Moves)
	}
	t, err := p.rig.attach()
	if err != nil {
		return fmt.Errorf("%s: verification attach: %w", p.spec.name, err)
	}
	if res.liveBytes, err = p.w.verify(t, p.clients); err != nil {
		return fmt.Errorf("%s: %w", p.spec.name, err)
	}
	for _, v := range p.rig.primaries() {
		res.usedBytes += v.usedBytes()
	}
	if res.mismatches != 0 {
		return fmt.Errorf("%s: %d outputs differed from the model during the run", p.spec.name, res.mismatches)
	}
	return nil
}

// measure is prepare + run + close for a point nothing else needs the rig of.
func measure(spec pointSpec, sc scale, w workload, traceOut string) (*pointResult, error) {
	p, err := prepare(spec, sc, w)
	if err != nil {
		return nil, err
	}
	defer p.close()
	return p.run(traceOut)
}

// rawDevice measures the pmem rung: random aligned 4 KiB ReadAt, and 4 KiB
// NTStore+Fence, on a bare arena with the same latency model and no file
// system, from clients goroutines, in MiB/s.
func rawDevice(m *model, clients, windows int, window time.Duration) (readMiBps, ntMiBps float64) {
	checkSpin()
	dev := pmem.New(m.sc.VolumeBytes)
	dev.Prefault()
	dev.SetLatency(pmem.OptaneLatency(), spinNs)
	// Each client keeps to its own share of the arena, as the data workloads'
	// clients keep to their own files.
	blocks := m.sc.VolumeBytes / blockSize / uint64(clients)
	run := func(write bool) float64 {
		cs := make([]worker, clients)
		for i := range cs {
			cs[i] = &rawClient{dev: dev, m: m, r: rng{s: mix(m.seed ^ uint64(i+1)<<24)},
				first: uint64(i) * blocks, blocks: blocks, write: write, buf: make([]byte, blockSize)}
		}
		spec := pointSpec{windows: windows, window: window, warmup: window / 2}
		runtime.GC()
		d := drive(spec, cs, nil, nil, nil)
		return d.opsPerS() * blockSize / (1 << 20)
	}
	return run(false), run(true)
}

type rawClient struct {
	dev    *pmem.Device
	m      *model
	r      rng
	first  uint64 // first block of this client's share
	blocks uint64
	write  bool
	buf    []byte
}

func (c *rawClient) step() (int, int) {
	// 32 ops per step, as a batch client call carries.
	for i := 0; i < batchSize; i++ {
		x := c.r.next()
		off := (c.first + x%c.blocks) * blockSize
		if c.write {
			c.dev.NTStore(off, c.m.window(uint32(x>>40)%keySlots))
			c.dev.Fence()
		} else {
			c.dev.ReadAt(off, c.buf)
		}
	}
	return batchSize, 0
}
func (c *rawClient) settled() bool      { return true }
func (c *rawClient) tally() clientTally { return clientTally{} }
func (c *rawClient) release()           {}

// unloaded drives one client of w against a target with no file system
// behind it and returns the ns one op costs: the generator alone (a
// nopTarget) or the generator plus the codec (a codecTarget over a
// nopClient).
func unloaded(w workload, t target, batch, windows int, window time.Duration) (float64, error) {
	c, err := w.newClient(0, 1, t, batch)
	if err != nil {
		return 0, err
	}
	spec := pointSpec{windows: windows, window: window, warmup: window / 2}
	return div(1e9, drive(spec, []worker{c}, nil, nil, nil).opsPerS()), nil
}
