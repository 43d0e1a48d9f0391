package main

import (
	"strings"
	"testing"
	"time"

	"simurgh/internal/obs"
)

// opStats builds a window of calls sampled calls, each taking latNs.
func opStats(calls, errors, latNs uint64) obs.OpStats {
	o := obs.OpStats{Calls: calls, Errors: errors, Sampled: calls, LatNs: calls * latNs}
	for i := uint64(0); i < calls; i++ {
		o.Hist.Observe(latNs)
	}
	return o
}

func TestRenderFrame(t *testing.T) {
	var d obs.Snapshot
	d.SamplePeriod = 1
	d.Ops[obs.OpCreate] = opStats(200, 2, 4500)
	d.Ops[obs.OpStat] = opStats(1000, 0, 800)
	d.Events[obs.EvWaiterRecovery] = 3
	d.LockWaits[obs.LockLine] = obs.LockWaitStat{Waits: 12, TotalNs: 12 * 2000}
	d.Gauges = []obs.Gauge{{Name: "alloc.blocks_free", Value: 31337}}
	var sb strings.Builder
	render(&sb, d, time.Second)
	out := sb.String()

	// Mean and percentiles come from the window's own histogram.
	p99 := fmtNs(d.Ops[obs.OpCreate].Hist.Percentile(0.99))
	for _, want := range []string{
		"op", "rate/s", "p99", // header
		"stat", "1000", // highest-rate op with its per-second rate
		"create", "4.5µs", p99, // mean and p99 formatted
		"line", "2.0µs", "waiter_recovery=3",
		"alloc.blocks_free", "31337",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// stat (higher rate) must sort above create.
	if strings.Index(out, "stat") > strings.Index(out, "create") {
		t.Errorf("ops not sorted by rate:\n%s", out)
	}
}

func TestRenderIdleFrame(t *testing.T) {
	var sb strings.Builder
	render(&sb, obs.Snapshot{SamplePeriod: 32}, time.Second)
	if !strings.Contains(sb.String(), "(idle)") {
		t.Errorf("idle frame should say so:\n%s", sb.String())
	}
}

// TestDemoEndToEnd starts the in-process demo volume and checks a
// polled window renders live data (acceptance criterion: simurghtop
// renders live data from a running process), and that the demo's health
// document decodes back into the replication and shard panels.
func TestDemoEndToEnd(t *testing.T) {
	srv, stop, err := startDemo()
	if err != nil {
		t.Fatalf("startDemo: %v", err)
	}
	defer stop()

	base, err := fetch(srv.URL)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	cur, err := fetch(srv.URL)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	d := cur.Sub(base)
	if d.TotalCalls() == 0 {
		t.Fatal("demo workload produced no ops in the window")
	}
	var sb strings.Builder
	render(&sb, d, 200*time.Millisecond)
	if !strings.Contains(sb.String(), "create") && !strings.Contains(sb.String(), "open") {
		t.Errorf("frame shows no workload ops:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "alloc.blocks_free") {
		t.Errorf("gauges missing alloc.blocks_free:\n%s", sb.String())
	}

	cl := fetchCluster(srv.URL)
	if cl == nil {
		t.Fatal("demo serves no /cluster.json")
	}
	sb.Reset()
	renderCluster(&sb, cl)
	for _, want := range []string{"replication: primary epoch 1 ", "backup 127.0.0.1:9191", "shards: map epoch 3", "/warm"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("cluster panel missing %q:\n%s", want, sb.String())
		}
	}
}
