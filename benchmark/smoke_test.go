package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesTable keeps BENCHMARK.json and the program's metric
// tables from drifting apart, and holds the file to the limits its format
// sets.
func TestManifestMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("BENCHMARK.json differs from the program's tables; regenerate it with `go run ./benchmark manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != higher && d.Better != lower) {
			t.Errorf("metric %+v breaks the manifest's format", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEndMetrics {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayerMetrics {
		check(d)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, n := range workloadNames {
		if why := workloadWhy[n]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: its why must be one line of at most 200 characters, has %d", n, len(why))
		}
		if seen[n] || !name.MatchString(n) {
			t.Errorf("workload name %s is malformed or reused", n)
		}
	}
}

// genHash drives workload w's generator against a no-op target and returns
// the hash of the operations it issued.
func genHash(t *testing.T, workload string, seed uint64) uint64 {
	t.Helper()
	m := newModel(seed, smokeScale)
	w, err := newWorkload(workload, m)
	if err != nil {
		t.Fatal(err)
	}
	var h uint64
	for i := 0; i < 2; i++ {
		c, err := w.newClient(i, 2, newNopTarget(), w.batch())
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2*hashedOps; {
			a, _ := c.step()
			n += a
		}
		h = mix(h ^ c.tally().hash)
	}
	return h
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := genHash(t, w, 7), genHash(t, w, 7), genHash(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave op hashes %x and %x", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op hash %x", w, a)
		}
	}
}

// smokeConfig is a run at smoke scale, a fraction of a second long.
func smokeConfig(workload string, traced bool, traceOut string) runConfig {
	return runConfig{workload: workload, seed: 3, seconds: 0.2, traced: traced, sc: smokeScale, setupReps: 1, traceOut: traceOut}
}

// checkLedger holds a run's ledger to the benchmark's promises: outputs
// correct, no op failed, and every metric of the table present exactly once,
// finite, with a well-formed name.
func checkLedger(t *testing.T, led *ledger, defs []metricDef) {
	t.Helper()
	if !led.Correct || led.OpsFailed != 0 {
		t.Errorf("%s: correct=%v, %d of %d ops failed: %v %v", led.Workload, led.Correct, led.OpsFailed, led.OpsAttempted, led.Errors, led.Failures)
	}
	if led.OpsAttempted == 0 {
		t.Errorf("%s: no operation attempted", led.Workload)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	count := make(map[string]int)
	for _, m := range led.Metrics {
		count[m.Name]++
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", led.Workload, m.Name, m.Value)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", led.Workload, m.Name)
		}
	}
	for _, d := range defs {
		if count[d.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", led.Workload, d.Name, count[d.Name])
		}
	}
	if len(led.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, the table has %d", led.Workload, len(led.Metrics), len(defs))
	}
	var line struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(led.contractLine(), &line); err != nil || len(line.Metrics) != len(defs) || line.Attempted < 1 {
		t.Errorf("%s: result line %s: %v", led.Workload, led.contractLine(), err)
	}
}

// TestLadderSmoke runs every workload end to end and through every rung of
// the traced run, at smoke scale, with verification and the crash-durability
// pass on. It asserts nothing about speed.
func TestLadderSmoke(t *testing.T) {
	defer func(old float64) { spinTolerPct = old }(spinTolerPct)
	spinTolerPct = math.Inf(1)
	workloads := workloadNames
	if testing.Short() {
		workloads = []string{"write4k"}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) { ladderSmoke(t, w) })
	}
}

func ladderSmoke(t *testing.T, w string) {
	led, err := execute(smokeConfig(w, false, ""))
	if err != nil {
		t.Fatalf("%s end to end: %v", w, err)
	}
	checkLedger(t, led, endToEndMetrics)
	if testing.Short() {
		return
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	led, err = execute(smokeConfig(w, true, traceOut))
	if err != nil {
		t.Fatalf("%s traced: %v", w, err)
	}
	checkLedger(t, led, perLayerMetrics)
	rungs := make(map[string]bool)
	for _, p := range led.Points {
		rungs[p.Rung] = true
	}
	for _, r := range rungNames {
		if !rungs[r] {
			t.Errorf("%s: the traced run skipped rung %s", w, r)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Ph, Name string
			Dur      float64
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("%s: the Chrome trace does not parse: %v", w, err)
	}
	// Which spans a few milliseconds of recording catch depends on what else
	// the machine is doing; that some were caught does not.
	spans := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("%s: the Chrome trace holds no span", w)
	}
}

// TestVerifyCatchesCorruption runs a point, then corrupts one expected value
// in the generator's model and checks that verification notices.
func TestVerifyCatchesCorruption(t *testing.T) {
	calibrateSpin()
	for _, tc := range []struct {
		workload string
		corrupt  func(m *model, p *ready)
	}{
		{"stat", func(m *model, _ *ready) { m.statSize[5] += 512 }},
		{"read4k", func(m *model, _ *ready) { m.window(m.fillKey(0, 0))[100] ^= 1 }},
		{"write4k", func(m *model, p *ready) {
			c := p.clients[0].(*dataClient)
			for b, k := range c.last {
				if k != 0 && k != unknownKey {
					c.last[b] = m.writeKey(0, 1<<40) + 1 // a payload that was never written there
					return
				}
			}
			t.Fatal("write4k touched no block")
		}},
		{"varmail", func(m *model, p *ready) { p.clients[0].(*mailClient).appends[0]++ }},
	} {
		m := newModel(11, smokeScale)
		w, err := newWorkload(tc.workload, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := pointSpec{name: "core", rung: "core", clients: 2, batch: w.batch(), windows: 2,
			window: 20 * time.Millisecond, warmup: 5 * time.Millisecond}
		p, err := prepare(spec, smokeScale, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.run("")
		if err != nil {
			t.Fatal(err)
		}
		if res.verifyErr != nil {
			t.Errorf("%s: verification failed on an untouched model: %v", tc.workload, res.verifyErr)
		}
		tc.corrupt(m, p)
		if err := p.verify(res); err == nil {
			t.Errorf("%s: verification passed against a corrupted model", tc.workload)
		}
		p.close()
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDef{Name: "local_ops_per_s", Unit: "ops/s", Better: higher, Bound: 0.07}
	lat := metricDef{Name: "cluster_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{thr, []float64{100, 101, 99, 100, 102}, []float64{99, 100, 101, 98, 100}, "ok"},
		{thr, []float64{100, 101, 99, 100, 102}, []float64{90, 91, 89, 90, 92}, "worse"},
		{thr, []float64{100, 101, 99, 100, 102}, []float64{120, 121, 119, 120, 122}, "ok"},
		{thr, []float64{100, 120, 80, 100, 110}, []float64{95, 115, 75, 100, 105}, "unresolved"},
		{thr, []float64{100, 120, 80, 100, 110}, []float64{195, 215, 175, 200, 205}, "ok"},
		{lat, []float64{50, 51, 49, 50, 52}, []float64{58, 59, 57, 58, 60}, "worse"},
		{lat, []float64{50, 51, 49, 50, 52}, []float64{52, 53, 51, 52, 54}, "ok"},
	} {
		if _, _, _, _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v vs %v: verdict %s, want %s", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
	// quartiles must agree with Python's statistics.quantiles(v, n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
