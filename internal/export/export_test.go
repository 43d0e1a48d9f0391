package export

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"simurgh/internal/obs"
)

// loadedRegistry builds a registry with representative traffic in every
// metric family the exporter serves.
func loadedRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	r.EnableTrace(64)
	start := time.Now()
	for i := 0; i < 40; i++ {
		r.EnterAt(0, obs.OpStat)
		r.SampleAt(0, obs.OpStat, start, 1500, obs.Delta{Flushes: 1, StoreBytes: 64}, false)
	}
	r.EnterAt(0, obs.OpCreate)
	r.ErrorAt(0, obs.OpCreate)
	r.SampleAt(0, obs.OpCreate, start, 9000, obs.Delta{Fences: 2}, true)
	r.Event(obs.EvWaiterRecovery)
	r.Event(obs.EvLineLockTimeout)
	r.LockWait(obs.LockLine, 2500)
	r.LockWait(obs.LockFile, 800)
	r.Span(obs.SpanRecovery, 0, start, 4000, false)
	return r
}

func testSource(r *obs.Registry) Source {
	return func() obs.Snapshot {
		s := r.Snapshot()
		s.Gauges = []obs.Gauge{
			{Name: "alloc.blocks_free", Value: 123},
			{Name: "slab.inode.valid", Value: 7},
		}
		s.Shards = []obs.ShardStat{{Name: "locks", Gets: 10, Contended: 3}}
		s.Device = obs.Delta{LoadBytes: 4096, StoreBytes: 2560, Flushes: 40, Fences: 2}
		return s
	}
}

// promLine matches a sample line of the text exposition format:
// metric_name{labels} value (labels optional).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9]+(?:\.[0-9]+)?|\+Inf|NaN)$`)

// TestMetricsEndpointServesValidExposition scrapes /metrics and validates
// every line against the Prometheus text format (acceptance criterion).
func TestMetricsEndpointServesValidExposition(t *testing.T) {
	r := loadedRegistry(t)
	ts := httptest.NewServer(NewHandler(testSource(r), nil, r, Options{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("malformed comment line: %q", line)
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		seen[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
		lines++
	}
	if lines == 0 {
		t.Fatal("no sample lines in /metrics")
	}
	for _, want := range []string{
		"simurgh_sample_period",
		"simurgh_op_calls_total",
		"simurgh_op_errors_total",
		"simurgh_op_latency_ns_bucket",
		"simurgh_op_latency_ns_sum",
		"simurgh_op_latency_ns_count",
		"simurgh_lock_wait_ns_bucket",
		"simurgh_events_total",
		"simurgh_shard_gets_total",
		"simurgh_device_total",
		"simurgh_gauge",
	} {
		if !seen[want] {
			t.Errorf("metric family %s missing from /metrics", want)
		}
	}
	if !strings.Contains(text, `simurgh_op_calls_total{op="stat"} 40`) {
		t.Errorf("stat calls not exported:\n%s", text)
	}
	if !strings.Contains(text, `simurgh_events_total{event="waiter_recovery"} 1`) {
		t.Errorf("waiter_recovery event not exported")
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Errorf("histogram missing +Inf bucket")
	}
}

// fetchStats decodes one /stats.json document back into a snapshot.
func fetchStats(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/stats.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decode /stats.json: %v", err)
	}
	return s
}

// TestStatsJSONEndpointParses decodes /stats.json and checks the named
// snapshot content (acceptance criterion: parse both endpoints): the
// document decodes back into the snapshot it was rendered from.
func TestStatsJSONEndpointParses(t *testing.T) {
	r := loadedRegistry(t)
	ts := httptest.NewServer(NewHandler(testSource(r), nil, r, Options{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	var named struct {
		Ops       map[string]struct{ Calls uint64 } `json:"ops"`
		Events    map[string]uint64                 `json:"events"`
		LockWaits map[string]struct{ Waits uint64 } `json:"lock_waits"`
		Gauges    map[string]uint64                 `json:"gauges"`
	}
	err = json.NewDecoder(resp.Body).Decode(&named)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /stats.json: %v", err)
	}
	if named.Ops["stat"].Calls != 40 || named.Events["line_lock_timeout"] != 1 ||
		named.LockWaits["line"].Waits != 1 || named.Gauges["alloc.blocks_free"] != 123 {
		t.Errorf("named keys = %+v", named)
	}

	js := fetchStats(t, ts.URL)
	want := testSource(r)()
	if js.Ops != want.Ops || js.Events != want.Events || js.LockWaits != want.LockWaits || js.Device != want.Device {
		t.Errorf("decoded snapshot differs from the source:\n got %+v\nwant %+v", js, want)
	}
	lo := js.Ops[obs.OpStat]
	if lo.Calls != 40 || lo.Sampled != 40 || lo.MeanNs() != 1500 {
		t.Errorf("stat = %+v, want 40 calls/sampled at 1500 ns", lo)
	}
	if js.Ops[obs.OpCreate].Errors != 1 {
		t.Errorf("create errors = %d, want 1", js.Ops[obs.OpCreate].Errors)
	}
	if len(js.Gauges) != 2 || js.Gauges[0] != (obs.Gauge{Name: "alloc.blocks_free", Value: 123}) {
		t.Errorf("gauges = %v", js.Gauges)
	}
	if len(js.Shards) != 1 || js.Shards[0].Contended != 3 {
		t.Errorf("shards = %v", js.Shards)
	}
}

// TestTraceJSONEndpoint checks /trace.json serves Chrome trace-event JSON.
func TestTraceJSONEndpoint(t *testing.T) {
	r := loadedRegistry(t)
	ts := httptest.NewServer(NewHandler(testSource(r), nil, r, Options{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/trace.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("decode /trace.json: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	found := false
	for _, e := range events {
		if e["cat"] == "recovery" {
			found = true
		}
		if e["ph"] != "X" && e["ph"] != "M" {
			t.Errorf("event ph = %v, want X or M", e["ph"])
		}
	}
	if !found {
		t.Error("recovery span missing from trace")
	}
}

// TestJSONSnapshotSub checks windowed diffing for simurghtop: two
// /stats.json documents decode into snapshots that obs.Snapshot.Sub
// diffs — counters difference, gauges stay levels, and percentiles
// computed from the window's histogram reflect only the window.
func TestJSONSnapshotSub(t *testing.T) {
	r := obs.NewRegistry()
	start := time.Now()
	gauge := uint64(7)
	src := func() obs.Snapshot {
		s := r.Snapshot()
		s.Gauges = []obs.Gauge{{Name: "alloc.blocks_free", Value: gauge}}
		return s
	}
	ts := httptest.NewServer(NewHandler(src, nil, r, Options{}))
	defer ts.Close()

	r.EnterAt(0, obs.OpRead)
	r.SampleAt(0, obs.OpRead, start, 1000, obs.Delta{}, false)
	base := fetchStats(t, ts.URL)
	for i := 0; i < 9; i++ {
		r.EnterAt(0, obs.OpRead)
		r.SampleAt(0, obs.OpRead, start, 100000, obs.Delta{}, false)
	}
	r.Event(obs.EvSegLockSteal)
	r.LockWait(obs.LockFile, 5000)
	gauge = 99
	d := fetchStats(t, ts.URL).Sub(base)

	rd := d.Ops[obs.OpRead]
	if rd.Calls != 9 {
		t.Errorf("window read calls = %d, want 9", rd.Calls)
	}
	if rd.MeanNs() != 100000 {
		t.Errorf("window mean = %d, want 100000", rd.MeanNs())
	}
	if p50 := rd.Hist.Percentile(0.50); p50 <= 1000 {
		t.Errorf("window p50 = %d, should reflect only the slow window samples", p50)
	}
	if d.Events[obs.EvSegLockSteal] != 1 {
		t.Errorf("window events = %v", d.Events)
	}
	if d.LockWaits[obs.LockFile].Waits != 1 {
		t.Errorf("window lock waits = %v", d.LockWaits)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 99 {
		t.Errorf("gauges should pass through as levels: %v", d.Gauges)
	}
}

// TestServeListensAndCloses exercises the Serve helper end to end.
func TestServeListensAndCloses(t *testing.T) {
	r := loadedRegistry(t)
	s, err := Serve("127.0.0.1:0", testSource(r), nil, r, Options{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp, err := http.Get(s.URL + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestHealthz covers the /healthz endpoint: 200 only while serving, 503
// with the state name while draining or running as a backup, and a
// default of "serving" when no health source is wired.
func TestHealthz(t *testing.T) {
	r := loadedRegistry(t)
	state := "serving"
	ts := httptest.NewServer(NewHandler(testSource(r), func() string { return state }, r, Options{}))
	defer ts.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	if code, body := get(); code != http.StatusOK || body != "serving" {
		t.Fatalf("serving: got (%d, %q)", code, body)
	}
	state = "draining"
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("draining: got (%d, %q)", code, body)
	}
	state = "backup"
	if code, body := get(); code != http.StatusServiceUnavailable || body != "backup" {
		t.Fatalf("backup: got (%d, %q)", code, body)
	}

	// No health source: always healthy.
	ts2 := httptest.NewServer(NewHandler(testSource(r), nil, r, Options{}))
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default healthz = %d, want 200", resp.StatusCode)
	}
}
