package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// runRep measures and exercises primary–backup replication. Without -addr
// it runs the overhead grid: the same in-process workload against a
// standalone server and against quorum 1 and 2 with that many backups
// attached, reporting the replication tax
// on a read-mostly point (stat, which never leaves the primary) and a
// pure-mutation point (pwrite, which pays a quorum ack per reply flush),
// plus the shipped wire bytes per entry. With -addr it drives acknowledged writes
// against a live group and verifies, after the run (and any failover the
// operator caused mid-run), that every acknowledged write is readable —
// the zero-acked-write-loss check the CI smoke job kills a primary under.
func runRep(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ExitOnError)
	addr := fs.String("addr", "", "drive a live group at this comma-separated address list instead of in-process servers")
	conns := fs.Int("conns", 8, "concurrent sessions")
	batch := fs.Int("batch", 32, "requests per Submit")
	dur := fs.Duration("duration", time.Second, "measurement time per point (in-process) or write-drive time (-addr)")
	files := fs.Int("files", 64, "files the stat workload cycles over")
	jsonOut := fs.String("json", "", "also write results as JSON to this file")
	traceSample := fs.Int("trace-sample", 0, "with -addr: tag 1-in-N writes with a distributed trace context (0 = off); scrape the nodes' /trace.json and merge with `simurghsh trace merge`")
	route := fs.Bool("route", false, "with -addr: treat the address list as shard-map seeds and drive writes through the client router (sharded groups, live migration under load)")
	fs.Parse(args)

	if *addr != "" {
		return repLive(*addr, *conns, *dur, *traceSample, *route)
	}
	return repOverhead(*conns, *batch, *dur, *files, *jsonOut)
}

// repVolume formats one in-process volume. 64 MiB is plenty for the
// overhead workloads and keeps the per-backup snapshot transfer (paid once
// per grid cell per backup) from dominating setup.
func repVolume() (*pmem.Device, *core.FS, error) {
	dev := pmem.New(64 << 20)
	vol, err := core.Format(dev, fsapi.Root, core.Options{})
	return dev, vol, err
}

// repServe starts a wire server on loopback and returns its address.
func repServe(cfg server.Config) (*server.Server, string, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// repPointJSON is one cell of the overhead grid: a quorum measured against
// the shared standalone baseline.
type repPointJSON struct {
	Quorum            int          `json:"quorum"`
	Backups           int          `json:"backups"`
	Stat              netPointJSON `json:"stat"`
	Pwrite            netPointJSON `json:"pwrite"`
	StatOverheadPct   float64      `json:"stat_overhead_pct"`
	PwriteOverheadPct float64      `json:"pwrite_overhead_pct"`
	ShipBytesPerOp    float64      `json:"ship_bytes_per_op"`
}

func repOverhead(conns, batch int, dur time.Duration, files int, jsonOut string) error {
	fmt.Printf("## Replication overhead grid (quorum vs standalone)\n")
	quiet := func(string, ...any) {}
	restore := func(img []byte) (fsapi.FileSystem, error) {
		d, err := pmem.ReadImage(bytes.NewReader(img))
		if err != nil {
			return nil, err
		}
		fs, _, err := core.Mount(d, core.Options{})
		return fs, err
	}

	// Standalone baseline, shared by every grid cell.
	_, vol, err := repVolume()
	if err != nil {
		return err
	}
	srv, target, err := repServe(server.Config{FS: vol})
	if err != nil {
		return err
	}
	baseStat, baseWrite, err := func() (s, w netPointJSON, err error) {
		remote, err := client.Dial(target, client.Options{})
		if err != nil {
			return s, w, err
		}
		defer remote.Close()
		paths, err := netPopulate(remote, files)
		if err != nil {
			return s, w, err
		}
		if s, err = netPoint(remote, paths, conns, batch, dur); err != nil {
			return s, w, err
		}
		w, err = repWritePoint(remote, conns, batch, dur)
		return s, w, err
	}()
	srv.Shutdown()
	if err != nil {
		return err
	}

	tax := func(base, rep float64) float64 {
		if base <= 0 {
			return 0
		}
		return (1 - rep/base) * 100
	}

	// cell measures one quorum: a fresh primary shipping
	// to quorum in-process backups, so every acked pwrite pays a real
	// round trip. Ship bytes/op comes from the primary's shipped-bytes
	// counter delta across the pwrite point (per entry, so the unrecorded
	// warmup writes don't skew it).
	cell := func(quorum int) (repPointJSON, error) {
		pt := repPointJSON{Quorum: quorum, Backups: quorum}
		pdev, pvol, err := repVolume()
		if err != nil {
			return pt, err
		}
		pnode := replica.NewPrimary(pvol, replica.Config{
			Quorum: quorum,
			Logf:   quiet,
			Snapshot: func(w io.Writer) error {
				_, err := pdev.WriteTo(w)
				return err
			},
		})
		psrv, ptarget, err := repServe(server.Config{FS: pvol, Replica: pnode})
		if err != nil {
			pnode.Close()
			return pt, err
		}
		defer psrv.Shutdown()
		defer pnode.Close()
		backups := make([]*replica.Node, quorum)
		for i := range backups {
			backups[i] = replica.NewBackup(replica.Config{
				PrimaryAddr: ptarget,
				Logf:        quiet,
				Restore:     restore,
			})
			defer backups[i].Close()
		}
		// Wait for completed joins, not just registered links: a backup's
		// epoch leaves zero only once its snapshot is restored. Gating on
		// Backups() alone would race the snapshot transfer and stall the
		// first attach's quorum wait past the client handshake deadline.
		joined := func() bool {
			if pnode.Backups() < quorum {
				return false
			}
			for _, b := range backups {
				if b.Epoch() != pnode.Epoch() {
					return false
				}
			}
			return true
		}
		for deadline := time.Now().Add(30 * time.Second); !joined(); {
			if time.Now().After(deadline) {
				return pt, fmt.Errorf("rep: only %d/%d backups joined", pnode.Backups(), quorum)
			}
			time.Sleep(10 * time.Millisecond)
		}

		remote, err := client.Dial(ptarget, client.Options{})
		if err != nil {
			return pt, err
		}
		defer remote.Close()
		paths, err := netPopulate(remote, files)
		if err != nil {
			return pt, err
		}
		if pt.Stat, err = netPoint(remote, paths, conns, batch, dur); err != nil {
			return pt, err
		}
		e0, b0 := pnode.ShipStats()
		if pt.Pwrite, err = repWritePoint(remote, conns, batch, dur); err != nil {
			return pt, err
		}
		e1, b1 := pnode.ShipStats()
		if e1 > e0 {
			// Per-link totals: normalize to per-entry wire cost.
			pt.ShipBytesPerOp = float64(b1-b0) / float64(e1-e0)
		}
		pt.StatOverheadPct = tax(baseStat.OpsPerSec, pt.Stat.OpsPerSec)
		pt.PwriteOverheadPct = tax(baseWrite.OpsPerSec, pt.Pwrite.OpsPerSec)
		return pt, nil
	}

	fmt.Printf("%-10s %6s %12s %12s %10s %10s %9s\n",
		"server", "quorum", "stat op/s", "pwrite op/s", "stat ovh", "pwrite ovh", "bytes/op")
	fmt.Printf("%-10s %6s %12.0f %12.0f %10s %10s %9s\n",
		"standalone", "-", baseStat.OpsPerSec, baseWrite.OpsPerSec, "-", "-", "-")
	var points []repPointJSON
	for _, quorum := range []int{1, 2} {
		pt, err := cell(quorum)
		if err != nil {
			return err
		}
		points = append(points, pt)
		fmt.Printf("%-10s %6d %12.0f %12.0f %9.1f%% %9.1f%% %9.1f\n",
			"replicated", pt.Quorum, pt.Stat.OpsPerSec, pt.Pwrite.OpsPerSec,
			pt.StatOverheadPct, pt.PwriteOverheadPct, pt.ShipBytesPerOp)
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Suite            string         `json:"suite"`
			DurationMs       int64          `json:"duration_ms"`
			StandaloneStat   netPointJSON   `json:"standalone_stat"`
			StandalonePwrite netPointJSON   `json:"standalone_pwrite"`
			Points           []repPointJSON `json:"points"`
		}{
			Suite: "rep", DurationMs: dur.Milliseconds(),
			StandaloneStat: baseStat, StandalonePwrite: baseWrite,
			Points: points,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
	return nil
}

// repWritePoint drives conns sessions, each submitting batches of pwrites
// to its own file — every request is a replicated mutation, so the point
// measures the log/quorum path with no read dilution.
func repWritePoint(remote *client.Remote, conns, batch int, dur time.Duration) (netPointJSON, error) {
	sessions := make([]*client.Session, conns)
	fds := make([]fsapi.FD, conns)
	for i := range sessions {
		c, err := remote.Attach(fsapi.Root)
		if err != nil {
			return netPointJSON{}, err
		}
		sessions[i] = c.(*client.Session)
		defer sessions[i].Detach()
		fd, err := c.Create(fmt.Sprintf("/bench/wr%03d", i), 0o644)
		if err != nil {
			return netPointJSON{}, err
		}
		fds[i] = fd
	}

	type connResult struct {
		ops  uint64
		hist obs.Histogram
		err  error
	}
	results := make([]connResult, conns)
	run := func(stopAt time.Time, record bool) {
		var wg sync.WaitGroup
		for ci := range sessions {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				sess, fd, res := sessions[ci], fds[ci], &results[ci]
				reqs := make([]wire.Request, batch)
				payload := []byte("0123456789abcdef")
				var off uint64
				for time.Now().Before(stopAt) {
					for j := range reqs {
						reqs[j] = wire.Request{Op: wire.OpPwrite, FD: fd, Data: payload,
							Off: (off % 4096) * uint64(len(payload))}
						off++
					}
					t0 := time.Now()
					resps, err := sess.Submit(reqs)
					if err != nil {
						res.err = err
						return
					}
					if record {
						res.hist.Observe(uint64(time.Since(t0)))
						res.ops += uint64(len(resps))
					}
				}
			}(ci)
		}
		wg.Wait()
	}
	run(time.Now().Add(dur/10), false)
	start := time.Now()
	run(start.Add(dur), true)
	elapsed := time.Since(start)

	pt := netPointJSON{Conns: conns, Batch: batch, ElapsedNs: elapsed.Nanoseconds()}
	var hist obs.Histogram
	for i := range results {
		if results[i].err != nil {
			return netPointJSON{}, results[i].err
		}
		pt.Ops += results[i].ops
		hist = hist.Add(results[i].hist)
	}
	pt.OpsPerSec = float64(pt.Ops) / elapsed.Seconds()
	pt.P50Ns = hist.Percentile(0.50)
	pt.P95Ns = hist.Percentile(0.95)
	pt.P99Ns = hist.Percentile(0.99)
	return pt, nil
}

// repLive drives acknowledged writes against a live group for dur — the
// operator (or CI) kills the primary mid-run — then re-reads every file
// and fails unless each acknowledged write is present. Each worker owns
// one file and appends monotonically numbered 8-byte records with Pwrite;
// a record counts only once its response arrives. With routed, addr is a
// shard-map seed list and every write goes through the client router, so
// the same zero-loss ledger also covers live shard migration (the files
// spread across shards by hash, and Moved answers retry transparently).
func repLive(addr string, workers int, dur time.Duration, traceSample int, routed bool) error {
	copts := client.Options{FailoverTimeout: 30 * time.Second}
	if traceSample > 0 {
		// Originate distributed trace contexts: the servers record their
		// spans against the IDs this client stamps on sampled writes.
		reg := obs.NewRegistry()
		reg.SetNode("simurghbench")
		reg.EnableTrace(4096)
		copts.Obs = reg
		copts.TraceSample = traceSample
	}
	var remote interface {
		Attach(fsapi.Cred) (fsapi.Client, error)
		Close() error
	}
	var tail func() string
	if routed {
		rt, err := client.DialRouter(addr, client.RouterOptions{Options: copts})
		if err != nil {
			return err
		}
		remote = rt
		tail = func() string {
			st := rt.Stats()
			return fmt.Sprintf("epoch=%d moves=%d map_refreshes=%d",
				st.Epoch, st.Moves, st.MapRefreshes)
		}
	} else {
		r, err := client.Dial(addr, copts)
		if err != nil {
			return err
		}
		remote = r
		tail = func() string {
			st := r.Stats()
			return fmt.Sprintf("failovers=%d replays=%d redirects=%d",
				st.Failovers, st.Replays, st.Redirects)
		}
	}
	defer remote.Close()

	// Sharding hashes on the first path component, so a shared /replive
	// directory would pin every worker file to one shard; routed runs put
	// the files at the root instead, where each name hashes independently.
	pathFor := func(wi int) string {
		if routed {
			return fmt.Sprintf("/replive-w%03d", wi)
		}
		return fmt.Sprintf("/replive/w%03d", wi)
	}
	if !routed {
		setup, err := remote.Attach(fsapi.Root)
		if err != nil {
			return err
		}
		if err := setup.Mkdir("/replive", 0o755); err != nil && err != fsapi.ErrExist {
			return err
		}
		setup.Detach()
	}

	type result struct {
		acked uint64
		err   error
	}
	results := make([]result, workers)
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			res := &results[wi]
			c, err := remote.Attach(fsapi.Root)
			if err != nil {
				res.err = err
				return
			}
			defer c.Detach()
			fd, err := c.Open(pathFor(wi), fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				res.err = err
				return
			}
			var rec [8]byte
			for time.Now().Before(stopAt) {
				binary.LittleEndian.PutUint64(rec[:], res.acked)
				if _, err := c.Pwrite(fd, rec[:], res.acked*8); err != nil {
					res.err = fmt.Errorf("write %d: %w", res.acked, err)
					return
				}
				res.acked++
			}
		}(wi)
	}
	wg.Wait()

	var totalAcked, totalLost uint64
	verify, err := remote.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer verify.Detach()
	for wi := 0; wi < workers; wi++ {
		if results[wi].err != nil {
			return fmt.Errorf("worker %d: %w", wi, results[wi].err)
		}
		totalAcked += results[wi].acked
		fd, err := verify.Open(pathFor(wi), fsapi.ORdonly, 0)
		if err != nil {
			return fmt.Errorf("verify open w%03d: %w", wi, err)
		}
		buf := make([]byte, results[wi].acked*8)
		n, err := verify.Pread(fd, buf, 0)
		if err != nil {
			return fmt.Errorf("verify read w%03d: %w", wi, err)
		}
		for rec := uint64(0); rec < results[wi].acked; rec++ {
			if uint64(n) < (rec+1)*8 ||
				binary.LittleEndian.Uint64(buf[rec*8:]) != rec {
				totalLost++
			}
		}
		verify.Close(fd)
	}

	fmt.Printf("acked=%d lost=%d %s\n", totalAcked, totalLost, tail())
	if totalLost > 0 {
		return fmt.Errorf("rep: %d acknowledged writes lost", totalLost)
	}
	return nil
}
