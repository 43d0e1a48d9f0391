package simurgh_test

import (
	"fmt"
	"testing"
	"time"

	"simurgh/internal/bench"
	"simurgh/internal/core"
	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/fxmark"
	"simurgh/internal/pmem"
)

// Shape regression tests: the paper's qualitative findings that this
// reproduction is expected to preserve, checked at small scale with
// generous margins so they hold on noisy CI hosts. These are the claims
// EXPERIMENTS.md makes; if a change to the cost models or the file systems
// breaks one, this fails before the docs go stale.
//
// The timed ones are skipped in -short mode (each point runs a real timed
// workload). Two claims are asserted here in their counted form — charged
// cycles per crossing, bytes loaded per read — and keep their wall-clock
// form in shape_timing_test.go, behind the timing build tag, for a host
// quiet enough to be asked for it (EXPERIMENTS.md says which is which).

// medianRates measures w at one thread on every named system through the
// figures' schedule (bench.Medians: a warm-up, alternating order, medians)
// and returns each system's median ops/s.
func medianRates(t *testing.T, w bench.Workload, d time.Duration, names ...string) map[string]float64 {
	t.Helper()
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		r, err := bench.RunPoint(w, fsName, 1, d)
		return []float64{r.OpsPerSec()}, err
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	rates := map[string]float64{}
	for name, v := range med {
		rates[name] = v[0]
	}
	t.Logf("%s, median ops/s: %v", w.Name, rates)
	return rates
}

func TestShapeSimurghWinsSharedDirCreates(t *testing.T) {
	if testing.Short() {
		t.Skip("timed workload")
	}
	r := medianRates(t, fxmark.CreateShared(), 150*time.Millisecond, "simurgh", "nova", "ext4-dax")
	simurgh, nova, ext4 := r["simurgh"], r["nova"], r["ext4-dax"]
	if simurgh <= nova {
		t.Errorf("create-shared: simurgh %.0f <= nova %.0f (paper: simurgh >2x nova)", simurgh, nova)
	}
	if nova <= ext4*0.8 {
		t.Errorf("create-shared: nova %.0f below ext4 %.0f (paper: nova above ext4)", nova, ext4)
	}
}

func TestShapePMFSCollapsesOnLargeDirectories(t *testing.T) {
	if testing.Short() {
		t.Skip("timed workload")
	}
	// PMFS's unsorted linear directories make creates O(n); by the end of a
	// timed window its rate must be far below Simurgh's hash directories.
	r := medianRates(t, fxmark.CreateShared(), 150*time.Millisecond, "simurgh", "pmfs")
	if simurgh, pmfs := r["simurgh"], r["pmfs"]; pmfs*3 > simurgh {
		t.Errorf("create-shared: pmfs %.0f not collapsed vs simurgh %.0f", pmfs, simurgh)
	}
}

// resolveCharge runs the resolvepath loop of fxmark.ResolvePrivate — open and
// close one file five directories deep — n times against the named system as
// the benchmarks build it, and returns what its cost model charged per loop:
// boundary crossings and cycles. The spin is off (Model.Disabled): the charge
// is a count, the same on any host.
func resolveCharge(t *testing.T, fsName string, n int) (crossings, cycles float64) {
	t.Helper()
	fs, m, _, err := bench.MakeFSModel(fsName, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.Disabled = true
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	path := "/p"
	for d := 0; d < 5; d++ {
		if err := c.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		path += "/d"
	}
	fd, err := c.Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	m.Reset()
	for i := 0; i < n; i++ {
		fd, err := c.Open(path, fsapi.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	return float64(m.Calls()) / float64(n), float64(m.ChargedCycles()) / float64(n)
}

// TestShapeResolveBenefitsFromProtectedCalls is the ablation claim in the
// form the paper makes it (§3.3): the cost of a crossing is a count times a
// constant. The same design entered by syscall makes the same crossings and
// pays 400 − 46 cycles more for each; a kernel file system pays at least
// the syscall variant's charge. The wall-clock form of the same claim is
// TestShapeTimedResolveBenefitsFromProtectedCalls (build tag timing).
func TestShapeResolveBenefitsFromProtectedCalls(t *testing.T) {
	const n = 1000
	jmppX, jmppC := resolveCharge(t, "simurgh", n)
	syscX, syscC := resolveCharge(t, "simurgh-syscall", n)
	_, novaC := resolveCharge(t, "nova", n)
	if jmppX != 2 || syscX != 2 {
		t.Errorf("resolve: %.2f and %.2f crossings per open+close, want 2 and 2", jmppX, syscX)
	}
	if jmppC != 2*cost.JmppExtraCycles {
		t.Errorf("resolve: jmpp variant charged %.1f cycles per open+close, want %d", jmppC, 2*cost.JmppExtraCycles)
	}
	if want := jmppC + syscX*(cost.SyscallCycles-cost.JmppExtraCycles); syscC != want {
		t.Errorf("resolve: syscall variant charged %.1f cycles per open+close, want %.1f (the jmpp variant's plus 354 a crossing)", syscC, want)
	}
	if novaC < syscC {
		t.Errorf("resolve: nova charged %.1f cycles per open+close, below the syscall variant's %.1f", novaC, syscC)
	}
}

// TestShapeReadsTrackDeviceBandwidth is the Fig 7i claim as a count: a read
// tracks the device's bandwidth when the bytes it makes the device load are
// the bytes it delivers. A random 4 KiB read through Simurgh must load at
// least its payload and less than twice it — the timed form's "at least half
// the raw bandwidth", which is TestShapeTimedReadsTrackDeviceBandwidth (build
// tag timing) — where the raw device loads exactly what it is asked for.
func TestShapeReadsTrackDeviceBandwidth(t *testing.T) {
	const (
		fileSize = 16 << 20
		block    = 4096
		n        = 2000
	)
	dev := pmem.New(64 << 20)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Create("/bigfile", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pwrite(fd, make([]byte, fileSize), 0); err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	if fd, err = c.Open("/bigfile", fsapi.ORdonly, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, block)
	base := dev.StatsSnapshot()
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if got, err := c.Pread(fd, buf, x>>11%(fileSize-block)); err != nil || got != block {
			t.Fatalf("pread = %d, %v", got, err)
		}
	}
	perRead := float64(dev.StatsSnapshot().Sub(base).LoadBytes) / n
	if perRead < block || perRead >= 2*block {
		t.Errorf("a %d-byte read loads %.0f bytes from the device, want [%d, %d)", block, perRead, block, 2*block)
	}
	base = dev.StatsSnapshot()
	dev.ReadAt(1<<20, buf)
	if raw := dev.StatsSnapshot().Sub(base).LoadBytes; raw != block {
		t.Errorf("a raw %d-byte device read counts %d bytes loaded", block, raw)
	}
}

func TestShapeCacheHotReadInflation(t *testing.T) {
	if testing.Short() {
		t.Skip("timed workload")
	}
	// Fig 6: the original FxMark's cache-hot reads report far more than the
	// adapted random reads — the reason the paper adapted the benchmark.
	hot, err := bench.RunPoint(fxmark.ReadSharedCacheHot(), "simurgh", 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := bench.RunPoint(fxmark.ReadShared(), "simurgh", 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if hot.MBPerSec() < rnd.MBPerSec()*2 {
		t.Errorf("cache-hot %.0f MiB/s not clearly above random %.0f MiB/s", hot.MBPerSec(), rnd.MBPerSec())
	}
}

func TestShapeEveryFSCompletesEveryMicrobench(t *testing.T) {
	if testing.Short() {
		t.Skip("timed workload")
	}
	// Completeness net: every Fig 7 workload must run on every system.
	for name, w := range fxmark.All() {
		for _, fsName := range bench.FSNames {
			r, err := bench.RunPoint(w, fsName, 1, 30*time.Millisecond)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, fsName, err)
			}
			if r.Ops == 0 {
				t.Fatalf("%s on %s: zero ops", name, fsName)
			}
		}
	}
}

// TestShapeAblationDocumented double-checks the ablation wiring exists for
// every variant EXPERIMENTS.md mentions.
func TestShapeAblationDocumented(t *testing.T) {
	for _, name := range []string{"simurgh", "simurgh-relaxed", "simurgh-syscall"} {
		fs, err := bench.MakeFS(name, 64<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, _ := fs.Attach(fsapi.Root)
		if _, err := c.Create(fmt.Sprintf("/%s-probe", name), 0o644); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
