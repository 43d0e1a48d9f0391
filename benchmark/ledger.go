package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	sc        scale
	setupReps int // timed set-ups of each end-to-end point: 3, and 1 in the smoke test to keep tier-1 short
	traceOut  string
}

// conditions are the fixed conditions of a run, recorded with its numbers.
type conditions struct {
	HostCores    int     `json:"host_cores"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	Clients      int     `json:"clients"`
	Loop         string  `json:"loop"`
	GitSHA       string  `json:"git_sha"`
	GoVersion    string  `json:"go_version"`
	RunSeconds   float64 `json:"run_seconds"`
	Windows      int     `json:"windows"`
	WindowMs     float64 `json:"window_ms"`
	WarmupMs     float64 `json:"warmup_ms"`
	SetupReps    int     `json:"setup_reps"`
	VolumeMiB    uint64  `json:"volume_mib"`
	Batch        int     `json:"batch"`
	DeviceModel  string  `json:"device_model"`
	SpinsPerNs   float64 `json:"spins_per_ns"`
	SpinErrorPct float64 `json:"spin_error_pct"`
}

// pointSummary is one timed point as the ledger shows it.
type pointSummary struct {
	Name      string    `json:"name"`
	Rung      string    `json:"rung"`
	Clients   int       `json:"clients"`
	Batch     int       `json:"batch"`
	Traced    bool      `json:"traced,omitempty"`
	OpsPerS   float64   `json:"ops_per_s"`
	Windows   []float64 `json:"window_ops_per_s"`
	P50Us     float64   `json:"call_p50_us,omitempty"`
	P99Us     float64   `json:"call_p99_us,omitempty"`
	Calls     int       `json:"calls_per_window,omitempty"`
	SetupS    float64   `json:"setup_s"`
	Setups    []float64 `json:"setups_s,omitempty"`
	VerifyS   float64   `json:"verify_s"`
	Attempted uint64    `json:"ops_attempted"`
	Failed    uint64    `json:"ops_failed"`
	StealMs   float64   `json:"host_steal_ms"` // CPU time the hypervisor withheld during the windows
}

// ledger is the one JSON document a run prints: conditions, every metric by
// name with its unit and sample count, and the points behind them.
type ledger struct {
	Benchmark    string         `json:"benchmark"`
	Schema       int            `json:"schema"`
	Workload     string         `json:"workload"`
	Why          string         `json:"why"`
	Seed         uint64         `json:"seed"`
	Traced       bool           `json:"traced"`
	Conditions   conditions     `json:"conditions"`
	Correct      bool           `json:"correct"`
	OpsAttempted uint64         `json:"ops_attempted"`
	OpsFailed    uint64         `json:"ops_failed"`
	OpHash       string         `json:"op_hash"`
	Metrics      []metricValue  `json:"metrics"`
	Points       []pointSummary `json:"points"`
	Errors       []string       `json:"errors,omitempty"`
	Failures     []string       `json:"failed_op_samples,omitempty"`
}

// Window plan: a run's seconds are split into this many windows per point.
const (
	e2eWindows    = 20
	tracedWindows = 12
)

func benchClients() int { return min(runtime.NumCPU(), 4) }

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// run is one invocation: the end-to-end run, or the traced one.
type run struct {
	cfg     runConfig
	m       *model
	w       workload
	clients int
	led     *ledger
	maxSpin float64
	hashSet bool
}

func newRun(cfg runConfig) (*run, error) {
	m := newModel(cfg.seed, cfg.sc)
	w, err := newWorkload(cfg.workload, m)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, m: m, w: w, clients: benchClients()}
	r.led = &ledger{
		Benchmark: "simurgh-ladder", Schema: 1, Workload: cfg.workload, Why: workloadWhy[cfg.workload],
		Seed: cfg.seed, Traced: cfg.traced, Correct: true,
		Conditions: conditions{
			HostCores: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Clients: r.clients,
			Loop:   "closed: each client waits for its reply before its next call",
			GitSHA: gitSHA(), GoVersion: runtime.Version(), RunSeconds: cfg.seconds,
			SetupReps: cfg.setupReps, VolumeMiB: cfg.sc.VolumeBytes >> 20, Batch: w.batch(),
			DeviceModel: "pmem.OptaneLatency via the benchmark's calibrated spin; no cost.Model",
		},
	}
	return r, nil
}

func (r *run) fail(err error) {
	r.led.Correct = false
	r.led.Errors = append(r.led.Errors, err.Error())
}

// note folds a measured point into the ledger's totals and point list.
func (r *run) note(res *pointResult) {
	d := res.drive
	ps := pointSummary{
		Name: res.spec.name, Rung: res.spec.rung, Clients: res.spec.clients, Batch: res.spec.batch,
		Traced: res.spec.traced, OpsPerS: d.opsPerS(), Windows: d.windowOps,
		SetupS: res.setupS, VerifyS: res.verifyS, Attempted: d.attempted, Failed: d.failed,
		StealMs: d.after.stealMs - d.before.stealMs,
	}
	if len(d.p50) > 0 {
		p50, p99, calls := d.latency()
		ps.P50Us, ps.P99Us, ps.Calls = p50/1e3, p99/1e3, calls/len(d.calls)
	}
	r.led.Points = append(r.led.Points, ps)
	r.led.OpsAttempted += d.attempted
	r.led.OpsFailed += d.failed
	for _, f := range res.failures {
		r.led.Failures = append(r.led.Failures, res.spec.name+": "+f)
	}
	if !r.hashSet && res.spec.clients == r.clients {
		r.led.OpHash = fmt.Sprintf("%016x", res.opHash)
		r.hashSet = true
	}
	if math.Abs(res.spinErrPct) > math.Abs(r.maxSpin) {
		r.maxSpin = res.spinErrPct
	}
	if res.verifyErr != nil {
		r.fail(res.verifyErr)
	}
}

func (r *run) spec(name, rung string, clients, batch int, traced, lat bool) pointSpec {
	// End-to-end: half the run for each of the 2 points, in 20 windows.
	// Traced: 12 windows of half that length per rung point. Warm-up is 1 s,
	// or half the measured time if that is shorter (smoke runs).
	windows, window := e2eWindows, time.Duration(r.cfg.seconds/(2*e2eWindows)*float64(time.Second))
	if r.cfg.traced {
		windows, window = tracedWindows, window/2
	}
	return pointSpec{name: name, rung: rung, clients: clients, batch: batch, windows: windows,
		window: window, warmup: min(time.Second, time.Duration(windows)*window/2), traced: traced, lat: lat}
}

func (r *run) finish(ms *metricSet) {
	vals, missing := ms.list()
	r.led.Metrics = vals
	for _, n := range missing {
		r.fail(fmt.Errorf("metric %s was not measured", n))
	}
	c := &r.led.Conditions
	c.SpinsPerNs = math.Float64frombits(spinsPerNs.Load())
	c.SpinErrorPct = r.maxSpin
}

// endToEnd is the run users' numbers come from: the local point (core, C
// clients) and the cluster point (router.s2, C sessions), nothing decorated.
func (r *run) endToEnd() error {
	ms := newMetricSet(endToEndMetrics)
	var setup float64
	results := make(map[string]*pointResult)
	for _, sp := range []pointSpec{
		r.spec("local", rungLocal, r.clients, r.w.batch(), false, false),
		r.spec("cluster", rungCluster, r.clients, r.w.batch(), false, true),
	} {
		c := &r.led.Conditions
		c.Windows, c.WindowMs, c.WarmupMs = sp.windows, ms2(sp.window), ms2(sp.warmup)
		// Set up several times and take the median: one set-up is too short
		// and too dependent on the page allocator to compare runs by. The
		// first set-up of a process faults every page in for the first time
		// (3–6 s for the cluster, against 0.7 s); it is made and thrown away
		// untimed, so that one slow set-up among the timed ones cannot be
		// their median.
		var setups []float64
		var p *ready
		for rep := -1; rep < r.cfg.setupReps; rep++ {
			if p != nil {
				p.close()
			}
			var err error
			if p, err = prepare(sp, r.cfg.sc, r.w); err != nil {
				return err
			}
			if rep >= 0 {
				setups = append(setups, p.setup.Seconds())
			}
		}
		setup += median(setups)
		res, err := p.run("")
		p.close()
		if err != nil {
			return err
		}
		res.setupS = median(setups)
		r.note(res)
		r.led.Points[len(r.led.Points)-1].Setups = setups
		results[sp.name] = res
	}
	if err := crashDurability(r.m, r.w); err != nil {
		r.fail(err)
	}
	local, cluster := results["local"].drive, results["cluster"].drive
	ms.set("setup_s", setup, r.cfg.setupReps)
	ms.set("local_ops_per_s", local.opsPerS(), len(local.windowOps), local.windowOps...)
	ms.set("cluster_ops_per_s", cluster.opsPerS(), len(cluster.windowOps), cluster.windowOps...)
	p50, _, calls := cluster.latency()
	ms.set("cluster_p50_us", p50/1e3, calls, scaled(cluster.p50, 1e-3)...)
	ms.set("peak_rss_mib", peakRSSMiB(), 1)
	r.finish(ms)
	return nil
}

func ms2(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * k
	}
	return out
}

// tracedRun is the per-layer run. It sweeps every rung undecorated, then
// repeats server and router.s2 with the span decorators installed.
func (r *run) tracedRun() error {
	ms := newMetricSet(perLayerMetrics)
	C, B := r.clients, r.w.batch()
	sync := B == 1 // varmail: every point already is one op per round trip
	sp0 := r.spec("", "", 0, 0, false, false)
	c := &r.led.Conditions
	c.Windows, c.WindowMs, c.WarmupMs = sp0.windows, ms2(sp0.window), ms2(sp0.warmup)

	pts := make(map[string]*pointResult)
	point := func(name, rung string, clients, batch int, traced, lat bool, traceOut string) error {
		sp := r.spec(name, rung, clients, batch, traced, lat)
		sp.lag = name == "replica.q1" // replica.commit_lag_entries is read off this point
		res, err := measure(sp, r.cfg.sc, r.w, traceOut)
		if err != nil {
			return err
		}
		r.note(res)
		pts[name] = res
		return nil
	}
	ops := func(name string) float64 { return pts[name].drive.opsPerS() }
	// perOp divides a counter delta by the ops the point's windows completed.
	perOp := func(name string, delta float64) float64 { return div(delta, pts[name].drive.totalOps()) }

	// pmem: the bare device.
	rd, nt := rawDevice(r.m, C, sp0.windows, sp0.window/2)
	ms.set("pmem.raw_read_mibps", rd, sp0.windows)
	ms.set("pmem.raw_ntstore_mibps", nt, sp0.windows)

	// Harness: what the generator and the codec cost with nothing behind them.
	gen, err := unloaded(r.w, newNopTarget(), B, sp0.windows, sp0.window/4)
	if err != nil {
		return err
	}
	ms.set("bench.generator_ns_per_op", gen, sp0.windows)
	codec, err := unloaded(r.w, &codecTarget{Client: &nopClient{}}, B, sp0.windows, sp0.window/4)
	if err != nil {
		return err
	}
	ms.set("wire.codec_ns_per_op", codec, sp0.windows)

	// The undecorated sweep.
	for _, p := range []struct {
		name, rung string
		clients, b int
		lat        bool
		skip       bool
	}{
		{"core.t1", "core", 1, B, false, false},
		{"core", "core", C, B, sync, false},
		{"wire", "wire", C, B, false, false},
		{"server", "server", C, B, sync, false},
		{"server.sync", "server", C, 1, true, sync},
		{"replica.q1", "replica.q1", C, B, sync, false},
		{"replica.q2", "replica.q2", C, B, false, false},
		{"replica.sync", "replica.q1", C, 1, true, sync},
		{"router.s1", "router.s1", C, B, false, false},
		{"router.s2", "router.s2", C, B, true, false},
		{"router.sync", "router.s2", C, 1, true, sync},
	} {
		if p.skip {
			continue
		}
		if err := point(p.name, p.rung, p.clients, p.b, false, p.lat, ""); err != nil {
			return err
		}
	}
	if sync {
		pts["server.sync"], pts["replica.sync"], pts["router.sync"] = pts["server"], pts["replica.q1"], pts["router.s2"]
	}
	// The decorated repeats.
	if err := point("server.traced", "server", C, B, true, false, ""); err != nil {
		return err
	}
	if err := point("router.s2.traced", "router.s2", C, B, true, false, r.cfg.traceOut); err != nil {
		return err
	}

	core, coreD := pts["core"], pts["core"].drive
	dd := func(name string) (b, a counters) { return pts[name].drive.before, pts[name].drive.after }
	b, a := dd("core")
	dev := a.dev.Sub(b.dev)
	ms.set("pmem.flushes_per_op", perOp("core", float64(dev.Flushes)), int(coreD.totalOps()))
	ms.set("pmem.fences_per_op", perOp("core", float64(dev.Fences)), int(coreD.totalOps()))
	ms.set("pmem.store_bytes_per_op", perOp("core", float64(dev.StoreBytes)), int(coreD.totalOps()))
	ms.set("pmem.nt_bytes_per_op", perOp("core", float64(dev.NTBytes)), int(coreD.totalOps()))
	ms.set("pmem.load_bytes_per_op", perOp("core", float64(dev.LoadBytes)), int(coreD.totalOps()))
	st := pts["server.traced"].sums
	ms.set("pmem.fence_busy_share", div(st.fenceNs, st.coreNs), int(st.calls))

	ms.set("core.t1_ops_per_s", ops("core.t1"), sp0.windows, pts["core.t1"].drive.windowOps...)
	ms.set("core.scaling_eff", div(ops("core"), float64(C)*ops("core.t1")), sp0.windows)
	if sync {
		p50, p99, calls := coreD.latency()
		ms.set("core.op_p50_ns", p50, calls)
		ms.set("core.op_p99_ns", p99, calls)
	} else {
		ns := slices.Clone(core.coreOpNs)
		slices.Sort(ns)
		var p50, p99 float64
		if len(ns) > 0 {
			p50, p99 = float64(ns[len(ns)/2]), float64(ns[len(ns)*99/100])
		}
		ms.set("core.op_p50_ns", p50, len(ns))
		ms.set("core.op_p99_ns", p99, len(ns))
	}
	ms.set("core.allocs_per_op", perOp("core", float64(a.mallocs-b.mallocs)), int(coreD.totalOps()))
	ms.set("core.lockwait_ns_per_op", perOp("core", float64(a.lockWaitNs-b.lockWaitNs)), int(coreD.totalOps()))
	ms.set("core.space_amp", div(float64(core.usedBytes), float64(core.liveBytes)), 1)
	ct := pts["router.s2.traced"]
	ctOps := ct.drive.totalOps()
	ms.set("core.exec_ns_per_op", div(ct.sums.coreNs, ctOps), int(ctOps))

	wr := pts["wire"]
	b, a = dd("wire")
	ms.set("wire.ops_per_s", ops("wire"), sp0.windows, wr.drive.windowOps...)
	ms.set("wire.tax_pct", taxPct(ops("wire"), ops("core")), sp0.windows)
	ms.set("wire.req_bytes_per_op", div(float64(wr.reqBytes), float64(wr.codecOps)), int(wr.codecOps))
	ms.set("wire.resp_bytes_per_op", div(float64(wr.respBytes), float64(wr.codecOps)), int(wr.codecOps))
	ms.set("wire.allocs_per_op", perOp("wire", float64(a.mallocs-b.mallocs)), int(wr.drive.totalOps()))

	sv := pts["server"]
	b, a = dd("server")
	svOps := sv.drive.totalOps()
	ms.set("server.ops_per_s", ops("server"), sp0.windows, sv.drive.windowOps...)
	ms.set("server.tax_pct", taxPct(ops("server"), ops("wire")), sp0.windows)
	ms.set("server.syscalls_per_op", perOp("server", float64(a.syscalls-b.syscalls)), int(svOps))
	ms.set("server.allocs_per_op", perOp("server", float64(a.mallocs-b.mallocs)), int(svOps))
	setSync := func(prefix, name string, withOps bool) {
		d := pts[name].drive
		p50, p99, calls := d.latency()
		if withOps {
			ms.set(prefix+".sync_ops_per_s", d.opsPerS(), len(d.windowOps), d.windowOps...)
		}
		ms.set(prefix+".sync_p50_us", p50/1e3, calls, scaled(d.p50, 1e-3)...)
		ms.set(prefix+".sync_p99_us", p99/1e3, calls, scaled(d.p99, 1e-3)...)
	}
	setSync("server", "server.sync", true)
	stOps := pts["server.traced"].drive.totalOps()
	ms.set("server.residence_ns_per_op", div(st.residenceNs, stOps), int(stOps))
	ms.set("server.self_ns_per_op", div(st.residenceNs-st.coreNs-st.quorumNs-st.applySelfNs, stOps), int(stOps))

	b, a = dd("replica.q1")
	q1Ops := pts["replica.q1"].drive.totalOps()
	ms.set("replica.q1_ops_per_s", ops("replica.q1"), sp0.windows, pts["replica.q1"].drive.windowOps...)
	ms.set("replica.q1_tax_pct", taxPct(ops("replica.q1"), ops("server")), sp0.windows)
	ms.set("replica.q2_ops_per_s", ops("replica.q2"), sp0.windows, pts["replica.q2"].drive.windowOps...)
	ms.set("replica.q2_tax_pct", taxPct(ops("replica.q2"), ops("server")), sp0.windows)
	setSync("replica", "replica.sync", false)
	ms.set("replica.ship_bytes_per_op", perOp("replica.q1", float64(a.shipBytes-b.shipBytes)), int(q1Ops))
	ms.set("replica.apply_ns_per_op", div(ct.sums.applySelfNs, ctOps), int(ctOps))
	ms.set("replica.quorum_wait_ns_per_op", div(ct.sums.quorumNs, ctOps), int(ctOps))
	lag := pts["replica.q1"].drive.commitLag
	ms.set("replica.commit_lag_entries", median(lag), len(lag))

	_, p99, calls := pts["router.s2"].drive.latency()
	ms.set("cluster_p99_us", p99/1e3, calls, scaled(pts["router.s2"].drive.p99, 1e-3)...)
	ms.set("client.self_ns_per_op", div(ct.sums.callSelfNs, ctOps), int(ct.sums.calls))
	var dials, retries, failovers, replays uint64
	for _, n := range []string{"server", "replica.q1", "replica.q2"} {
		s := pts[n].drive.after.remote
		dials += s.Dials
		retries += s.OverloadRetries
		failovers += s.Failovers
		replays += s.Replays
	}
	ms.set("client.dials", float64(dials), 3)
	ms.set("client.overload_retries", float64(retries), 3)
	ms.set("client.failovers", float64(failovers), 3)
	ms.set("client.replays", float64(replays), 3)
	ms.set("router.s1_ops_per_s", ops("router.s1"), sp0.windows, pts["router.s1"].drive.windowOps...)
	ms.set("router.s1_tax_pct", taxPct(ops("router.s1"), ops("replica.q1")), sp0.windows)
	ms.set("router.s2_scaling", div(ops("router.s2"), ops("router.s1")), sp0.windows)
	setSync("router", "router.sync", true)
	b, a = dd("router.s2")
	ms.set("router.moves", float64(a.router.Moves), 1)
	ms.set("router.map_refreshes", float64(a.router.MapRefreshes), 1)
	lo, hi := math.Inf(1), 0.0
	for i := range a.shardOps {
		n := float64(a.shardOps[i] - b.shardOps[i])
		lo, hi = min(lo, n), max(hi, n)
	}
	ms.set("router.shard_balance", div(lo, hi), len(a.shardOps))

	ms.set("go.gc_cpu_share", div(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU), 1)
	ms.set("go.gc_pause_p99_us", histDeltaQuantile(b.gcPauses, a.gcPauses, 0.99)*1e6, 1)
	ms.set("go.sched_latency_p99_us", histDeltaQuantile(b.schedLat, a.schedLat, 0.99)*1e6, 1)
	ms.set("go.heap_live_mib", float64(a.heapLive)/(1<<20), 1)
	ms.set("bench.spin_error_pct", math.Abs(r.maxSpin), len(pts))
	ms.set("bench.trace_overhead_pct", taxPct(ct.drive.opsPerS(), ops("router.s2")), sp0.windows)
	var verify float64
	seen := make(map[*pointResult]bool)
	for _, p := range pts {
		if !seen[p] {
			verify += p.verifyS
			seen[p] = true
		}
	}
	ms.set("bench.verify_s", verify, len(seen))
	r.finish(ms)
	return nil
}

// contractLine is the last line of standard output: the result in the form
// the driver reads.
func (l *ledger) contractLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{l.Correct, max(l.OpsAttempted, 1), l.OpsFailed, make(map[string]mv)}
	for _, m := range l.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return b
}

// appendLedger adds l to the JSON array of ledgers in path, creating it.
func appendLedger(path string, l *ledger) error {
	var all []json.RawMessage
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: not a ledger set: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	one, err := json.Marshal(l)
	if err != nil {
		return err
	}
	all = append(all, one)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
