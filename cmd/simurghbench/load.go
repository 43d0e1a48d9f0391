package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"path"
	"sync"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/wire/client"
)

// loadConns is how many writer sessions load drives, each on its own file.
const loadConns = 4

// loadFS is what load needs from a dialed group: a client.Remote or, with
// -route, a client.Router.
type loadFS interface {
	Attach(fsapi.Cred) (fsapi.Client, error)
	Close() error
}

// runLoad drives acknowledged writes against a live group for -duration —
// the operator (or CI) kills a primary or migrates a shard mid-run — then
// re-reads every file and fails unless each acknowledged write is present.
// With -route, -addr is a shard-map seed list and every write goes through
// the client router, so the same zero-loss ledger also covers live shard
// migration (the files spread across shards by hash, and Moved answers
// retry transparently).
func runLoad(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "", "comma-separated address list of the group to drive")
	route := fs.Bool("route", false, "treat -addr as shard-map seeds and drive writes through the client router (sharded groups, live migration under load)")
	dur := fs.Duration("duration", time.Second, "write-drive time")
	traceSample := fs.Int("trace-sample", 0, "tag 1-in-N writes with a distributed trace context (0 = off); scrape the nodes' /trace.json and merge with `simurghsh trace merge`")
	fs.Parse(args)
	if *addr == "" {
		return errors.New("load: -addr is required")
	}

	copts := client.Options{FailoverTimeout: 30 * time.Second}
	if *traceSample > 0 {
		// Originate distributed trace contexts: the servers record their
		// spans against the IDs this client stamps on sampled writes.
		reg := obs.NewRegistry()
		reg.SetNode("simurghbench")
		reg.EnableTrace(4096)
		copts.Obs = reg
		copts.TraceSample = *traceSample
	}
	var remote loadFS
	var tail func() string
	if *route {
		rt, err := client.DialRouter(*addr, client.RouterOptions{Options: copts})
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
		r, err := client.Dial(*addr, copts)
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

	paths := loadPaths(*route)
	acked, err := driveLoad(remote, paths, *dur)
	if err != nil {
		return err
	}
	lost, err := verifyLoad(remote, paths, acked)
	var total uint64
	for _, n := range acked {
		total += n
	}
	fmt.Fprintf(w, "acked=%d lost=%d %s\n", total, lost, tail())
	return err
}

// loadPaths names each writer's file. Sharding hashes on the first path
// component, so a shared directory would pin every file to one shard;
// routed runs put the files at the root instead, where each name hashes
// independently.
func loadPaths(routed bool) []string {
	paths := make([]string, loadConns)
	for i := range paths {
		if routed {
			paths[i] = fmt.Sprintf("/load-w%03d", i)
		} else {
			paths[i] = fmt.Sprintf("/load/w%03d", i)
		}
	}
	return paths
}

// driveLoad runs one writer per path for dur and returns how many records
// each had acknowledged. A writer appends monotonically numbered 8-byte
// records with Pwrite; a record counts only once its response arrives.
func driveLoad(remote loadFS, paths []string, dur time.Duration) ([]uint64, error) {
	if dir := path.Dir(paths[0]); dir != "/" {
		setup, err := remote.Attach(fsapi.Root)
		if err != nil {
			return nil, err
		}
		err = setup.Mkdir(dir, 0o755)
		setup.Detach()
		if err != nil && !errors.Is(err, fsapi.ErrExist) {
			return nil, err
		}
	}

	acked := make([]uint64, len(paths))
	errs := make([]error, len(paths))
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for wi := range paths {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c, err := remote.Attach(fsapi.Root)
			if err != nil {
				errs[wi] = err
				return
			}
			defer c.Detach()
			fd, err := c.Open(paths[wi], fsapi.OCreate|fsapi.ORdwr, 0o644)
			if err != nil {
				errs[wi] = err
				return
			}
			var rec [8]byte
			for time.Now().Before(stopAt) {
				binary.LittleEndian.PutUint64(rec[:], acked[wi])
				if _, err := c.Pwrite(fd, rec[:], acked[wi]*8); err != nil {
					errs[wi] = fmt.Errorf("write %d: %w", acked[wi], err)
					return
				}
				acked[wi]++
			}
		}(wi)
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", wi, err)
		}
	}
	return acked, nil
}

// verifyLoad re-reads every file through a fresh session and counts the
// acknowledged records that are missing or hold the wrong number. Any loss
// is an error.
func verifyLoad(remote loadFS, paths []string, acked []uint64) (lost uint64, err error) {
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		return 0, err
	}
	defer c.Detach()
	for wi, p := range paths {
		fd, err := c.Open(p, fsapi.ORdonly, 0)
		if err != nil {
			return lost, fmt.Errorf("verify open %s: %w", p, err)
		}
		buf := make([]byte, acked[wi]*8)
		n, err := c.Pread(fd, buf, 0)
		if err != nil {
			return lost, fmt.Errorf("verify read %s: %w", p, err)
		}
		for rec := uint64(0); rec < acked[wi]; rec++ {
			if uint64(n) < (rec+1)*8 ||
				binary.LittleEndian.Uint64(buf[rec*8:]) != rec {
				lost++
			}
		}
		c.Close(fd)
	}
	if lost > 0 {
		return lost, fmt.Errorf("load: %d acknowledged writes lost", lost)
	}
	return 0, nil
}
