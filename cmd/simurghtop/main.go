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
	"simurgh/internal/replica"
	"simurgh/internal/shard"
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

// fetch pulls one snapshot from the exporter's /stats.json.
func fetch(url string) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := getJSON(url+"/stats.json", &s)
	return s, err
}

// getJSON decodes the JSON document at url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchCluster pulls the replication health document; nil when the
// exporter has no cluster plane (404) or the fetch fails.
func fetchCluster(url string) *replica.ClusterHealth {
	var c replica.ClusterHealth
	if getJSON(url+"/cluster.json", &c) != nil {
		return nil
	}
	return &c
}

// renderCluster writes the replication panel: the node's role and log
// position, then one line per backup link with its ack and ship lag.
func renderCluster(w io.Writer, c *replica.ClusterHealth) {
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
// interval: ops by rate with latency from their histograms, then
// contention, events, and allocator gauges.
func render(w io.Writer, d obs.Snapshot, interval time.Duration) {
	secs := interval.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(w, "simurgh — %s window, sample period %d\n\n", interval, d.SamplePeriod)

	var ops []obs.Op
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if d.Ops[op].Calls > 0 {
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return d.Ops[ops[i]].Calls > d.Ops[ops[j]].Calls })
	fmt.Fprintf(w, "%-10s %12s %8s %10s %10s %10s %10s\n",
		"op", "rate/s", "errs", "mean", "p50", "p95", "p99")
	if len(ops) == 0 {
		fmt.Fprintf(w, "%-10s %12s\n", "(idle)", "0")
	}
	for _, op := range ops {
		o := d.Ops[op]
		fmt.Fprintf(w, "%-10s %12.0f %8d %10s %10s %10s %10s\n",
			op, float64(o.Calls)/secs, o.Errors, fmtNs(o.MeanNs()),
			fmtNs(o.Hist.Percentile(0.50)), fmtNs(o.Hist.Percentile(0.95)), fmtNs(o.Hist.Percentile(0.99)))
	}

	var locks, events strings.Builder
	for c := obs.LockClass(0); c < obs.NumLockClasses; c++ {
		if lw := d.LockWaits[c]; lw.Waits > 0 {
			fmt.Fprintf(&locks, "%-10s %12.0f %10s %10s\n",
				c, float64(lw.Waits)/secs, fmtNs(lw.MeanNs()), fmtNs(lw.Hist.Percentile(0.99)))
		}
	}
	if locks.Len() > 0 {
		fmt.Fprintf(w, "\n%-10s %12s %10s %10s\n%s", "lock", "waits/s", "mean", "p99", locks.String())
	}
	for e := obs.Event(0); e < obs.NumEvents; e++ {
		if d.Events[e] > 0 {
			fmt.Fprintf(&events, "  %s=%d", e, d.Events[e])
		}
	}
	if events.Len() > 0 {
		fmt.Fprintf(w, "\nevents:%s\n", events.String())
	}
	if len(d.Gauges) > 0 {
		fmt.Fprintf(w, "\ngauges:\n")
		for _, g := range d.Gauges {
			fmt.Fprintf(w, "  %-28s %12d\n", g.Name, g.Value)
		}
	}
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
	// The demo has no real replication group; a synthetic health document
	// exercises the replication and shard panels end to end (CI smokes it).
	demoCluster := replica.ClusterHealth{
		Role: "primary", Epoch: 1, Seq: 4096, CommitFloor: 4094, Quorum: 1, AckWindow: 2, Sessions: 2,
		HeartbeatRTTNs: 184000,
		Backups:        []replica.BackupLink{{Addr: "127.0.0.1:9191", AckedSeq: 4094, LagOps: 2, LagBytes: 8192, ShipLag: 1}},
		ShardEpoch:     3,
		Shards: []shard.Row{
			{ID: 0, Prefix: "/", State: "serving", Served: true, Ops: 18231, Addrs: []string{"127.0.0.1:9190", "127.0.0.1:9191"}},
			{ID: 1, Prefix: "/warm", State: "migrating", Addrs: []string{"127.0.0.1:9192"}},
		},
	}
	srv, err := export.Serve("127.0.0.1:0", vol.Stats, nil, reg,
		export.Options{Cluster: func() any { return demoCluster }})
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
