package export_test

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"simurgh/internal/core"
	"simurgh/internal/export"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/shard"
)

// series is one row of the inventory: an exported series, its help text,
// and who reads it. A reader is a ci.yml step, a simurghtop or simurghsh
// panel (also when it reads the value through /stats.json or
// /cluster.json), the ladder (benchmark/), or a test that uses the series
// to check some other behaviour. A test that only asserts that a series is
// exported is not a reader: a series with none is deleted, not listed.
type series struct {
	help, reader string
}

var inventory = map[string]series{
	// The volume's obs snapshot (export.WritePrometheus).
	"simurgh_sample_period":         {"Deep-sampling period (1 = every call sampled).", "simurghtop frame header (sample_period in /stats.json)"},
	"simurgh_op_calls_total":        {"Operations started, by class.", "ci.yml serve-smoke; simurghtop rate/s column"},
	"simurgh_op_errors_total":       {"Operations failed, by class.", "simurghtop errs column"},
	"simurgh_op_latency_ns":         {"Sampled operation latency, by class.", "simurghtop mean/p50/p95/p99 columns (hist in /stats.json)"},
	"simurgh_lock_wait_ns":          {"Contended lock wait time, by lock class.", "simurghtop lock panel; ladder core.lockwait_ns_per_op"},
	"simurgh_events_total":          {"Rare events (timeouts, recovery, steals).", "simurghtop events line"},
	"simurgh_shard_gets_total":      {"Sharded-map lock acquisitions.", "simurghsh stats shards line"},
	"simurgh_shard_contended_total": {"Sharded-map acquisitions that found the lock held.", "simurghsh stats shards line"},
	"simurgh_device_total":          {"Device-global NVMM traffic counters.", "simurghsh stats device line"},
	"simurgh_gauge":                 {"Point-in-time subsystem levels (allocator occupancy, slab flags, device).", "simurghtop gauges panel"},

	// The network server (server.Server.WriteMetrics).
	"simurgh_server_sessions_total": {"Successful attach handshakes.", "ci.yml serve-smoke"},
	"simurgh_server_requests_total": {"Requests of admitted batches answered, including Moved and retired-op answers that execute nothing.",
		"ci.yml serve-smoke; server TestMetricsOutput and TestBatchSizeCountsRefusedBatches"},
	"simurgh_server_request_ns":     {"Per-request server-side latency (queue wait + execution).", "ci.yml serve-smoke"},
	"simurgh_server_quorum_wait_ns": {"Time batches spent blocked in WaitQuorum before their replies flushed.", "ci.yml serve-smoke; replica TestVarmailCycleLogAndQuorumCounts"},
	"simurgh_wire_batches_total":    {"Batch frames received.", "ci.yml serve-smoke; server TestMetricsOutput"},
	"simurgh_wire_batch_size":       {"Operations per received batch frame.", "ci.yml serve-smoke; server TestBatchSizeCountsRefusedBatches"},
	"simurgh_wire_frames_read_total": {"Frames read from clients.",
		"client TestSeekFsyncCrossNoWire (seek and fsync send no frame)"},
	"simurgh_wire_bytes_read_total": {"Bytes read from clients.", "ci.yml serve-smoke"},

	// The replication node (replica.Node.WriteMetrics, from ClusterHealth).
	"simurgh_replica_role":                  {"Node role (1 when active in that role).", "ci.yml replica-smoke"},
	"simurgh_replica_epoch":                 {"Replication epoch (bumped on every promotion).", "ci.yml replica-smoke; simurghtop replication panel"},
	"simurgh_replica_seq":                   {"Last log sequence assigned (primary) or applied (backup).", "simurghtop replication panel (seq in /cluster.json)"},
	"simurgh_replica_lag_ops":               {"Log entries the slowest live backup is behind (or this backup is behind its primary).", "ci.yml replica-smoke; simurghtop backup rows"},
	"simurgh_replica_lag_bytes":             {"Encoded entry bytes buffered for the slowest live backup.", "simurghtop backup rows (lag_bytes in /cluster.json)"},
	"simurgh_replica_ack_window":            {"Entries inside the sliding ack window (assigned but not yet quorum-covered).", "ci.yml replica-smoke; replica TestParallelApplyConsistency"},
	"simurgh_replica_ship_lag_entries":      {"Entries buffered or in flight toward the slowest link's socket.", "ci.yml replica-smoke; simurghtop backup rows"},
	"simurgh_replica_backups":               {"Live backup links.", "ci.yml replica-smoke and shard-smoke (join wait)"},
	"simurgh_replica_sessions":              {"Replicated sessions carried by this node.", "simurghtop replication panel (sessions in /cluster.json)"},
	"simurgh_replica_heartbeat_rtt_ns":      {"Last heartbeat round trip to a backup.", "simurghtop replication panel hb-rtt"},
	"simurgh_replica_entries_shipped_total": {"Log entries shipped to backups.", "ladder: Node.ShipStats (benchmark/run.go)"},
	"simurgh_replica_bytes_shipped_total":   {"Encoded log bytes shipped to backups.", "ladder replica.ship_bytes_per_op (Node.ShipStats)"},
	"simurgh_replica_frames_shipped_total": {"Replicate frames written to backups (entries_shipped/frames_shipped is the achieved group-commit size).",
		"ci.yml replica-smoke"},
	"simurgh_replica_apply_parallel_total": {"Log entries applied through the parallel (inode-partitioned) apply path.", "ci.yml replica-smoke; replica TestParallelApplyConsistency"},
	"simurgh_replica_replay_skipped_total": {"Replayed operations skipped (unknown sessions).", "replica TestJoinCarriesDescriptors"},
	"simurgh_replica_replay_errors_total":  {"Replayed operations that failed (replica divergence).", "replica TestJoinCarriesDescriptors"},
	"simurgh_replica_snapshot_bytes_total": {"Snapshot bytes streamed to joining backups.", "replica TestJoinShipsWrittenPagesOnly"},
	"simurgh_replica_joins_total":          {"Backups that completed a join.", "replica TestJoinShipsWrittenPagesOnly"},
	"simurgh_replica_promotions_total":     {"Times this node promoted itself to primary.", "ci.yml replica-smoke"},

	// The shard authority (shard.Authority.WriteMetrics, from Rows).
	"simurgh_shard_epoch":     {"Installed shard map epoch.", "ci.yml shard-smoke (shard_epoch in /cluster.json); simurghtop shards panel"},
	"simurgh_shard_serving":   {"Shards this node serves.", "simurghtop shards panel (served mark)"},
	"simurgh_shard_ops_total": {"Operations served, by shard.", "simurghtop shards panel ops column"},
}

// exposition matches a sample line of the text exposition format.
var exposition = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (?:[0-9]+|\+Inf|NaN)$`)

// scrapeAll wires a volume, a server, a primary replication node and a
// two-shard authority into one exporter, as simurghd does, and returns
// one /metrics scrape.
func scrapeAll(t *testing.T) string {
	t.Helper()
	fs, err := core.Format(pmem.New(16<<20), fsapi.Root, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	const self = "127.0.0.1:9190"
	node := replica.NewPrimary(fs, replica.Config{Advertise: self})
	defer node.Close()
	auth, err := shard.NewAuthority(shard.SingleNode(self, 2), self, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{FS: fs, Replica: node, Sharding: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ts := httptest.NewServer(export.NewHandler(fs.Stats, nil, fs.Obs(), export.Options{},
		srv.WriteMetrics, node.WriteMetrics, auth.WriteMetrics))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSeriesInventory is the golden inventory of every exported series:
// each scraped series has a row naming its help text and its reader, and
// each row is scraped.
func TestSeriesInventory(t *testing.T) {
	scraped := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(scrapeAll(t)))
	for sc.Scan() {
		line := sc.Text()
		name, help, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
		switch {
		case strings.HasPrefix(line, "# HELP "):
			scraped[name] = true
			row, listed := inventory[name]
			if !listed {
				t.Errorf("series %s is exported but has no inventory row naming its reader", name)
			} else if !ok || help != row.help {
				t.Errorf("series %s help = %q, inventory says %q", name, help, row.help)
			}
		case strings.HasPrefix(line, "# TYPE "), line == "":
		case !exposition.MatchString(line):
			t.Errorf("invalid exposition line: %q", line)
		}
	}
	for name, row := range inventory {
		if !scraped[name] {
			t.Errorf("inventory row %s is not exported", name)
		}
		if strings.TrimSpace(row.reader) == "" {
			t.Errorf("inventory row %s names no reader", name)
		}
	}
}

// TestInventoryCoversCI checks that every series a CI step greps for has an
// inventory row, so a CI assertion cannot outlive the series it reads.
func TestInventoryCoversCI(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`simurgh_[a-z_]+`).FindAllString(string(ci), -1) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			m = strings.TrimSuffix(m, suffix)
		}
		names[m] = true
	}
	if len(names) == 0 {
		t.Fatal("ci.yml greps no series")
	}
	var missing []string
	for name := range names {
		if _, ok := inventory[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("ci.yml reads series with no inventory row: %v", missing)
	}
}
