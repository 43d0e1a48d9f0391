// Command simurghtop is a live top-style monitor for a Simurgh process
// exporting metrics (simurghd -metrics, simurghsh -metrics, or any embed
// of internal/export). It polls /stats.json and renders per-op rates and
// latency percentiles, lock contention, recovery activity, and allocator
// occupancy for each interval window.
//
//	simurghtop                      monitor http://127.0.0.1:9180
//	simurghtop -addr host:port      monitor another endpoint
//	simurghtop -once                one interval, print, exit (no screen clear)
//	simurghtop -demo                self-contained demo: starts an in-process
//	                                volume plus workload and monitors it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/export"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9180", "exporter address (host:port or full URL)")
	interval := flag.Duration("interval", time.Second, "sampling interval")
	once := flag.Bool("once", false, "sample one interval, print, and exit")
	count := flag.Int("count", 0, "stop after N windows (0 = run until interrupted)")
	demo := flag.Bool("demo", false, "start an in-process volume + workload and monitor it")
	flag.Parse()

	url := *addr
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	if *demo {
		srv, stop, err := startDemo()
		if err != nil {
			fatal(err)
		}
		defer stop()
		url = srv.URL
		fmt.Fprintf(os.Stderr, "demo volume serving on %s\n", srv.URL)
	}

	base, err := fetch(url)
	if err != nil {
		fatal(err)
	}
	for n := 0; ; n++ {
		time.Sleep(*interval)
		cur, err := fetch(url)
		if err != nil {
			fatal(err)
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear
		}
		render(os.Stdout, cur.Sub(base), *interval)
		// The cluster panel is best-effort: standalone exporters answer
		// 404 on /cluster.json and the panel simply stays absent.
		if cl := fetchCluster(url); cl != nil {
			renderCluster(os.Stdout, cl)
		}
		base = cur
		if *once || (*count > 0 && n+1 >= *count) {
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simurghtop:", err)
	os.Exit(1)
}

// fetch pulls one JSON snapshot from the exporter.
func fetch(url string) (export.JSONSnapshot, error) {
	var js export.JSONSnapshot
	resp, err := http.Get(url + "/stats.json")
	if err != nil {
		return js, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return js, fmt.Errorf("%s/stats.json: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&js)
	return js, err
}

// clusterDoc mirrors /cluster.json (replica.Node.WriteClusterJSON).
type clusterDoc struct {
	Role           string      `json:"role"`
	Epoch          uint64      `json:"epoch"`
	Seq            uint64      `json:"seq"`
	CommitFloor    uint64      `json:"commit_floor"`
	Quorum         int         `json:"quorum"`
	AckWindow      uint64      `json:"ack_window"`
	Sessions       int         `json:"sessions"`
	HeartbeatRTTNs uint64      `json:"heartbeat_rtt_ns"`
	PrimarySeq     uint64      `json:"primary_seq"`
	Backups        []backupRow `json:"backups"`
	ShardEpoch     uint64      `json:"shard_epoch"`
	Shards         []shardRow  `json:"shards"`
}

type backupRow struct {
	Addr     string `json:"addr"`
	AckedSeq uint64 `json:"acked_seq"`
	LagOps   uint64 `json:"lag_ops"`
	LagBytes uint64 `json:"lag_bytes"`
	ShipLag  uint64 `json:"ship_lag"`
}

// shardRow mirrors one entry of the shard table a sharded node injects into
// /cluster.json (shard.Authority.WriteClusterRows).
type shardRow struct {
	ID     uint32   `json:"id"`
	Prefix string   `json:"prefix"`
	State  string   `json:"state"`
	Served bool     `json:"served"`
	Ops    uint64   `json:"ops"`
	Addrs  []string `json:"addrs"`
}

// fetchCluster pulls the replication health document; nil when the
// exporter has no cluster plane (404) or the fetch fails.
func fetchCluster(url string) *clusterDoc {
	resp, err := http.Get(url + "/cluster.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var c clusterDoc
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return nil
	}
	return &c
}

// renderCluster writes the replication panel: the node's role and log
// position, then one line per backup link with its ack and ship lag.
func renderCluster(w io.Writer, c *clusterDoc) {
	fmt.Fprintf(w, "\nreplication: %s epoch %d  seq %d  floor %d  window %d  quorum %d  sessions %d",
		c.Role, c.Epoch, c.Seq, c.CommitFloor, c.AckWindow, c.Quorum, c.Sessions)
	if c.HeartbeatRTTNs > 0 {
		fmt.Fprintf(w, "  hb-rtt %s", fmtNs(c.HeartbeatRTTNs))
	}
	fmt.Fprintln(w)
	if c.Role != "primary" && c.PrimarySeq > c.Seq {
		fmt.Fprintf(w, "  behind primary by %d ops\n", c.PrimarySeq-c.Seq)
	}
	for _, b := range c.Backups {
		fmt.Fprintf(w, "  backup %-21s acked %-10d lag %d ops / %d B  ship %d\n",
			b.Addr, b.AckedSeq, b.LagOps, b.LagBytes, b.ShipLag)
	}
	if len(c.Shards) > 0 {
		fmt.Fprintf(w, "\nshards: map epoch %d\n", c.ShardEpoch)
		for _, s := range c.Shards {
			prefix := s.Prefix
			if prefix == "" {
				prefix = "(hash)"
			}
			mark := " "
			if s.Served {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s shard %-4d %-12s %-10s ops %-10d %s\n",
				mark, s.ID, prefix, s.State, s.Ops, strings.Join(s.Addrs, ","))
		}
	}
}

// render writes one monitor frame for the window delta d over the given
// interval: ops by rate, then contention, events, and allocator gauges.
func render(w io.Writer, d export.JSONSnapshot, interval time.Duration) {
	secs := interval.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "simurgh — %s window, sample period %d\n\n", interval, d.SamplePeriod)

	names := make([]string, 0, len(d.Ops))
	for name, o := range d.Ops {
		if o.Calls > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := d.Ops[names[i]].Calls, d.Ops[names[j]].Calls; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-10s %12s %8s %10s %10s %10s %10s\n",
		"op", "rate/s", "errs", "mean", "p50", "p95", "p99")
	if len(names) == 0 {
		fmt.Fprintf(w, "%-10s %12s\n", "(idle)", "0")
	}
	for _, name := range names {
		o := d.Ops[name]
		fmt.Fprintf(w, "%-10s %12.0f %8d %10s %10s %10s %10s\n",
			name, float64(o.Calls)/secs, o.Errors,
			fmtNs(o.MeanNs), fmtNs(o.P50Ns), fmtNs(o.P95Ns), fmtNs(o.P99Ns))
	}

	if len(d.LockWaits) > 0 {
		fmt.Fprintf(w, "\n%-10s %12s %10s %10s\n", "lock", "waits/s", "mean", "p99")
		for _, class := range sortedKeys(d.LockWaits) {
			lw := d.LockWaits[class]
			fmt.Fprintf(w, "%-10s %12.0f %10s %10s\n",
				class, float64(lw.Waits)/secs, fmtNs(lw.MeanNs), fmtNs(lw.P99Ns))
		}
	}
	if len(d.Events) > 0 {
		fmt.Fprintf(w, "\nevents:")
		for _, name := range sortedKeys(d.Events) {
			fmt.Fprintf(w, "  %s=%d", name, d.Events[name])
		}
		fmt.Fprintln(w)
	}
	if len(d.Gauges) > 0 {
		fmt.Fprintf(w, "\ngauges:\n")
		for _, name := range sortedKeys(d.Gauges) {
			fmt.Fprintf(w, "  %-28s %12d\n", name, d.Gauges[name])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNs renders a nanosecond latency compactly (ns, µs, or ms).
func fmtNs(ns uint64) string {
	switch {
	case ns == 0:
		return "-"
	case ns < 1000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1000000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1000)
	default:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
}

// startDemo formats an in-memory volume, runs a small churn workload over
// it, and exports it on a free port, so simurghtop can be tried with no
// other process running.
func startDemo() (*export.Server, func(), error) {
	reg := obs.NewRegistry()
	reg.SetSamplePeriod(1)
	reg.EnableTrace(4096)
	dev := pmem.New(128 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	// The demo has no real replication group; a synthetic /cluster.json
	// exercises the replication panel end to end (CI smokes it).
	demoCluster := func(w io.Writer) error {
		_, err := fmt.Fprintf(w, `{
 "role": "primary", "epoch": 1, "seq": 4096, "commit_floor": 4094,
 "quorum": 1, "ack_window": 2, "sessions": 2,
 "heartbeat_rtt_ns": 184000, "primary_seq": 0,
 "backups": [
  {"addr": "127.0.0.1:9191", "acked_seq": 4094, "lag_ops": 2, "lag_bytes": 8192, "ship_lag": 1}
 ],
 "shard_epoch": 3,
 "shards": [
  {"id": 0, "prefix": "/", "state": "serving", "served": true, "ops": 18231, "addrs": ["127.0.0.1:9190", "127.0.0.1:9191"]},
  {"id": 1, "prefix": "/warm", "state": "migrating", "served": false, "ops": 0, "addrs": ["127.0.0.1:9192"]}
 ]
}
`)
		return err
	}
	srv, err := export.ServeOpts("127.0.0.1:0", vol.Stats, nil, reg,
		export.Options{Cluster: demoCluster})
	if err != nil {
		return nil, nil, err
	}
	stop := make(chan struct{})
	for t := 0; t < 2; t++ {
		c, aerr := vol.Attach(fsapi.Root)
		if aerr != nil {
			srv.Close()
			return nil, nil, aerr
		}
		go churn(c, t, stop)
	}
	return srv, func() { close(stop); srv.Close(); vol.Unmount() }, nil
}

// churn is the demo workload: create, write, stat, read back, and
// periodically unlink in a private directory.
func churn(c fsapi.Client, t int, stop <-chan struct{}) {
	dir := fmt.Sprintf("/demo%d", t)
	c.Mkdir(dir, 0o755)
	buf := make([]byte, 4096)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		name := fmt.Sprintf("%s/f%d", dir, i%64)
		fd, err := c.Open(name, fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc, 0o644)
		if err != nil {
			continue
		}
		c.Write(fd, buf)
		c.Close(fd)
		c.Stat(name)
		if fd, err := c.Open(name, fsapi.ORdonly, 0); err == nil {
			c.Read(fd, buf)
			c.Close(fd)
		}
		if i%8 == 7 {
			c.Unlink(name)
		}
	}
}
