package main

import (
	"encoding/json"
	"math"
)

// metricDef names one metric of the benchmark. The two tables below are the
// program's side of BENCHMARK.json; `go run ./benchmark manifest` prints the
// file from them and the smoke test fails if the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening of the median
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEndMetrics are what a user of the system sees, per workload.
//
// The bounds are what calibration on the 2-vCPU VM this was written on
// supports (README, "Calibration"): from run to run the throughputs and the
// median latency spread by up to 9 % in a quiet hour and 18 % in a noisy
// one, and the manifest's format wants a bound well clear of the spread and
// caps it at 25 %.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"local_ops_per_s", "ops/s", higher, 0.25},
	{"cluster_ops_per_s", "ops/s", higher, 0.25},
	{"cluster_p50_us", "us", lower, 0.25},
	{"peak_rss_mib", "MiB", lower, 0.15},
}

// perLayerMetrics come from the traced run, one layer after the other.
var perLayerMetrics = []metricDef{
	{Name: "pmem.raw_read_mibps", Unit: "MiB/s", Better: higher},
	{Name: "pmem.raw_ntstore_mibps", Unit: "MiB/s", Better: higher},
	{Name: "pmem.flushes_per_op", Unit: "1/op", Better: lower},
	{Name: "pmem.fences_per_op", Unit: "1/op", Better: lower},
	{Name: "pmem.store_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "pmem.nt_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "pmem.load_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "pmem.fence_busy_share", Unit: "ratio", Better: lower},

	{Name: "core.t1_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "core.scaling_eff", Unit: "ratio", Better: higher},
	{Name: "core.op_p50_ns", Unit: "ns", Better: lower},
	{Name: "core.op_p99_ns", Unit: "ns", Better: lower},
	{Name: "core.allocs_per_op", Unit: "1/op", Better: lower},
	{Name: "core.lockwait_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "core.space_amp", Unit: "ratio", Better: lower},
	{Name: "core.exec_ns_per_op", Unit: "ns/op", Better: lower},

	{Name: "wire.ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "wire.tax_pct", Unit: "%", Better: lower},
	{Name: "wire.codec_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "wire.req_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "wire.resp_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "wire.allocs_per_op", Unit: "1/op", Better: lower},

	{Name: "server.ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "server.tax_pct", Unit: "%", Better: lower},
	{Name: "server.sync_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "server.sync_p50_us", Unit: "us", Better: lower},
	{Name: "server.sync_p99_us", Unit: "us", Better: lower},
	{Name: "server.syscalls_per_op", Unit: "1/op", Better: lower},
	{Name: "server.allocs_per_op", Unit: "1/op", Better: lower},
	{Name: "server.residence_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "server.self_ns_per_op", Unit: "ns/op", Better: lower},

	{Name: "replica.q1_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "replica.q1_tax_pct", Unit: "%", Better: lower},
	{Name: "replica.q2_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "replica.q2_tax_pct", Unit: "%", Better: lower},
	{Name: "replica.sync_p50_us", Unit: "us", Better: lower},
	{Name: "replica.sync_p99_us", Unit: "us", Better: lower},
	{Name: "replica.ship_bytes_per_op", Unit: "B/op", Better: lower},
	{Name: "replica.apply_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "replica.quorum_wait_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "replica.commit_lag_entries", Unit: "count", Better: lower},

	// The cluster's tail latency is a user's metric, but on this host no
	// statistic holds it to a bound the manifest allows (8–27 % between runs);
	// it is reported here, unbounded, next to the layer metrics that explain it.
	{Name: "cluster_p99_us", Unit: "us", Better: lower},
	{Name: "client.self_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "client.dials", Unit: "count", Better: lower},
	{Name: "client.overload_retries", Unit: "count", Better: lower},
	{Name: "client.failovers", Unit: "count", Better: lower},
	{Name: "client.replays", Unit: "count", Better: lower},
	{Name: "router.s1_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "router.s1_tax_pct", Unit: "%", Better: lower},
	{Name: "router.s2_scaling", Unit: "ratio", Better: higher},
	{Name: "router.sync_ops_per_s", Unit: "ops/s", Better: higher},
	{Name: "router.sync_p50_us", Unit: "us", Better: lower},
	{Name: "router.sync_p99_us", Unit: "us", Better: lower},
	{Name: "router.moves", Unit: "count", Better: lower},
	{Name: "router.map_refreshes", Unit: "count", Better: lower},
	{Name: "router.shard_balance", Unit: "ratio", Better: higher},

	{Name: "go.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "go.gc_pause_p99_us", Unit: "us", Better: lower},
	{Name: "go.sched_latency_p99_us", Unit: "us", Better: lower},
	{Name: "go.heap_live_mib", Unit: "MiB", Better: lower},
	{Name: "bench.spin_error_pct", Unit: "%", Better: lower},
	{Name: "bench.generator_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.verify_s", Unit: "s", Better: lower},
}

// workloadWhy is the one-line reason each workload is in the set.
var workloadWhy = map[string]string{
	"stat":    "Read-only metadata, 32 per call: path resolution and the codec dominate, replication and flushes do nothing, and every batch splits across both shards (router fan-out's worst case).",
	"read4k":  "Random 4 KiB preads of a 64 MiB set, 32 per call: pmem load bandwidth and reply bytes dominate; FD-pinned, so the router takes its one-shard shortcut and replication idles.",
	"write4k": "Random 4 KiB pwrites, 32 per call: every op is an NT-store stream plus fences locally and a replicated mutation remotely, so persistence cost, log shipping and the quorum wait dominate.",
	"varmail": "Filebench varmail cycle on shared directories, one call per round trip: namespace mutation under sharing and per-crossing costs (syscalls, reply flush, one quorum wait per op); nothing is amortised.",
}

// runSeconds is how long one run measures. It is a constant of the
// benchmark, not of the commit: an end-to-end run spends half of it on each
// of its two points, a traced run 3/20 of it on each rung point.
const runSeconds = 16

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []perLayerDef  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
	}
	for _, n := range workloadNames {
		m.Workloads = append(m.Workloads, manifestLoad{n, workloadWhy[n]})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // the manifest has no unmarshalable field
	}
	return append(b, '\n')
}

// metricValue is one reported metric. Direction and bound are the table's
// (and BENCHMARK.json's), not the ledger's: a ledger records what was
// measured, and compare judges it by the bounds of the program comparing.
type metricValue struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`           // windows, calls or counts the value rests on
	Windows []float64 `json:"windows,omitempty"` // the per-window values the figure was taken over
}

// metricSet collects a run's metrics by name.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue)}
}

// set records a value. A value that is not finite is recorded as 0: a ratio
// whose base was 0 means the thing measured did not happen.
func (s *metricSet) set(name string, v float64, samples int, windows ...float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = metricValue{Name: name, Unit: d.Unit, Value: v, Samples: samples, Windows: windows}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// list returns the metrics in table order; missing reports names never set.
func (s *metricSet) list() (vals []metricValue, missing []string) {
	for _, d := range s.defs {
		v, ok := s.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		vals = append(vals, v)
	}
	return vals, missing
}

// metricByName finds a metric of either table.
func metricByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// taxPct is the share of the rung below's throughput this rung gives up.
func taxPct(rung, below float64) float64 {
	if below == 0 {
		return 0
	}
	return 100 * (1 - rung/below)
}
