// Command simurghd serves a Simurgh volume to remote clients over the wire
// protocol — the network face of the paper's shared-NVMM volume. Each
// connection is one attached process with its own open-file table; clients
// batch operations AnyCall-style so many small calls share one round trip.
//
//	simurghd                                fresh in-memory volume on :9190
//	simurghd -image vol.img                 open (and on exit save) an image
//	simurghd -metrics 127.0.0.1:9180        also export /metrics and /healthz
//	simurghd -duration 30s                  exit (gracefully) after 30s
//
// Replicated serving: a second daemon started with -join enlists as a
// backup — it receives a snapshot, follows the primary's log, and promotes
// itself when the primary's heartbeats stop. Clients dial the whole group
// ("addr1,addr2") and fail over automatically.
//
//	simurghd -addr :9190                            the primary
//	simurghd -addr :9191 -join 127.0.0.1:9190       a backup
//
// Sharded serving: with -shards or -shard-map the daemon installs a shard
// map and fences operations for shards it does not serve (CodeMoved), so
// sharded clients (client.DialRouter) can spread the namespace across
// several replica groups. Migrations arrive as map pushes (simurghsh
// migrate); a node losing a shard drains its log to the new owners before
// acknowledging the push.
//
//	simurghd -shards 4                              single node, 4 hash shards
//	simurghd -shard-map cluster.json                one group of a multi-group map
//
// SIGINT/SIGTERM drain gracefully: in-flight batches reply, then the
// process exits (saving the image if one was given).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/export"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", "listen address for the wire protocol")
	size := flag.Uint64("size", 256<<20, "volume size for fresh volumes")
	image := flag.String("image", "", "volume image to open and save on exit")
	metrics := flag.String("metrics", "", "serve /metrics and /healthz on this host:port")
	pprofOn := flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on the -metrics port")
	duration := flag.Duration("duration", 0, "serve for this long then drain and exit (0 = until signalled)")
	join := flag.String("join", "", "run as a backup of this primary (host:port)")
	advertise := flag.String("advertise", "", "address clients and backups reach this node at (default -addr)")
	quorum := flag.Int("quorum", 1, "backups that must apply a write before the client is acknowledged")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "primary heartbeat interval")
	failover := flag.Duration("failover", 2*time.Second, "backup promotes itself after this long without primary contact")
	noAutoPromote := flag.Bool("no-auto-promote", false, "backups wait for an explicit promote instead of self-promoting")
	shards := flag.Int("shards", 0, `serve a single-node shard map with this many hash shards (1 = one "/" shard)`)
	shardMap := flag.String("shard-map", "", "serve this shard map file (JSON, see internal/shard; overrides -shards)")
	traceCap := flag.Int("trace", 0, "enable the flight recorder with this many span slots (0 = off); dump at /trace.json")
	slowThresh := flag.Duration("slow-threshold", 0, "log operations slower than this to the /slow.json ring (0 = off)")
	flag.Parse()

	if *advertise == "" {
		*advertise = *addr
	}
	if *join != "" && *image != "" {
		fatal(errors.New("-image cannot be combined with -join: a backup's volume arrives with the snapshot"))
	}

	reg := obs.NewRegistry()
	reg.SetNode(*advertise)
	if *traceCap > 0 {
		reg.EnableTrace(*traceCap)
	}
	if *slowThresh > 0 {
		reg.SetSlowThreshold(*slowThresh, obs.DefaultSlowLogCapacity)
	}

	// curDev/curFS track the live volume: the formatted/opened one on a
	// primary, the latest restored snapshot on a backup. The replication
	// callbacks and the exporter read through them.
	var curDev atomic.Pointer[pmem.Device]
	var curFS atomic.Pointer[core.FS]

	openVolume := func() {
		var dev *pmem.Device
		var fs *core.FS
		if *image != "" {
			f, err := os.Open(*image)
			if err != nil {
				// Formatting fresh is only right when there is no image yet;
				// an unreadable existing image must not be overwritten with
				// an empty volume at exit.
				if !errors.Is(err, iofs.ErrNotExist) {
					fatal(err)
				}
			} else {
				d, err := pmem.ReadImage(f)
				f.Close()
				if err != nil {
					fatal(err)
				}
				mounted, stats, err := core.Mount(d, core.Options{Obs: reg})
				if err != nil {
					fatal(err)
				}
				if !stats.WasClean {
					log.Printf("recovered unclean volume in %v (%d repairs)",
						stats.Elapsed, stats.FixedSlots+stats.FixedCreates+stats.FixedRenames+stats.FixedLogs)
				}
				dev, fs = d, mounted
			}
		}
		if fs == nil {
			dev = pmem.New(*size)
			formatted, err := core.Format(dev, fsapi.Root, core.Options{Obs: reg})
			if err != nil {
				fatal(err)
			}
			fs = formatted
		}
		curDev.Store(dev)
		curFS.Store(fs)
	}

	repCfg := replica.Config{
		Obs:               reg,
		Advertise:         *advertise,
		Quorum:            *quorum,
		PrimaryAddr:       *join,
		HeartbeatInterval: *heartbeat,
		FailoverGrace:     *failover,
		AutoPromote:       !*noAutoPromote,
		Logf:              log.Printf,
		Snapshot: func(w io.Writer) error {
			_, err := curDev.Load().WriteTo(w)
			return err
		},
		Restore: func(img []byte) (fsapi.FileSystem, error) {
			d, err := pmem.ReadImage(bytes.NewReader(img))
			if err != nil {
				return nil, err
			}
			fs, _, err := core.Mount(d, core.Options{Obs: reg})
			if err != nil {
				return nil, err
			}
			if old := curFS.Load(); old != nil {
				old.Unmount()
			}
			curDev.Store(d)
			curFS.Store(fs)
			return fs, nil
		},
	}

	// Every daemon is a replica-group member: a primary with no backups
	// acknowledges alone.
	var node *replica.Node
	scfg := server.Config{Logf: log.Printf, Obs: reg}
	if *join != "" {
		node = replica.NewBackup(repCfg)
	} else {
		openVolume()
		node = replica.NewPrimary(curFS.Load(), repCfg)
		scfg.FS = curFS.Load()
	}
	scfg.Replica = node

	var auth *shard.Authority
	if *shardMap != "" || *shards > 0 {
		var smap *shard.Map
		if *shardMap != "" {
			b, err := os.ReadFile(*shardMap)
			if err != nil {
				fatal(err)
			}
			if smap, err = shard.ParseJSON(b); err != nil {
				fatal(err)
			}
		} else {
			smap = shard.SingleNode(*advertise, *shards)
		}
		onRetire := func(lost []uint32, next *shard.Map) error {
			seen := make(map[string]bool)
			var addrs []string
			for _, id := range lost {
				if sh := next.ByID(id); sh != nil {
					for _, a := range sh.Addrs {
						if !seen[a] {
							seen[a] = true
							addrs = append(addrs, a)
						}
					}
				}
			}
			log.Printf("shard map: retiring shards %v, draining log to %v", lost, addrs)
			return node.MigrationDrain(addrs, 30*time.Second)
		}
		a, err := shard.NewAuthority(smap, *advertise, onRetire)
		if err != nil {
			fatal(err)
		}
		auth = a
		scfg.Sharding = auth
		log.Printf("sharded: %d shards at epoch %d (self %s)", len(smap.Shards), smap.Epoch, *advertise)
	}

	srv, err := server.New(scfg)
	if err != nil {
		fatal(err)
	}

	if *metrics != "" {
		src := func() obs.Snapshot {
			if fs := curFS.Load(); fs != nil {
				return fs.Stats()
			}
			return obs.Snapshot{}
		}
		health := func() string {
			if srv.Draining() {
				return "draining"
			}
			return node.Health()
		}
		extras := []export.Extra{srv.WriteMetrics}
		if auth != nil {
			extras = append(extras, auth.WriteMetrics)
		}
		extras = append(extras, node.WriteMetrics)
		eopts := export.Options{
			Pprof: *pprofOn,
			Cluster: func() any {
				h := node.ClusterHealth()
				if auth != nil {
					h.ShardEpoch, h.Shards = auth.Rows()
				}
				return h
			},
			HealthDetail: func(w io.Writer) {
				h := node.ClusterHealth()
				fmt.Fprintf(w, "epoch %d\ncommit_floor %d\n", h.Epoch, h.CommitFloor)
			},
		}
		msrv, err := export.Serve(*metrics, src, health, reg, eopts, extras...)
		if err != nil {
			fatal(err)
		}
		defer msrv.Close()
		log.Printf("metrics on %s/metrics, health on %s/healthz", msrv.URL, msrv.URL)
		if *pprofOn {
			log.Printf("pprof on %s/debug/pprof/", msrv.URL)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *join != "" {
		log.Printf("backup of %s on %s (promotes after %v silence)", *join, ln.Addr(), *failover)
	} else {
		log.Printf("serving %s on %s as primary (quorum %d)", curFS.Load().Name(), ln.Addr(), *quorum)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	var timerC <-chan time.Time
	if *duration > 0 {
		timerC = time.After(*duration)
	}
	drained := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("%v: draining", sig)
		case <-timerC:
			log.Printf("duration elapsed: draining")
		}
		srv.Shutdown()
		close(drained)
	}()

	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	<-drained
	node.Close()

	if fs := curFS.Load(); fs != nil {
		fs.Unmount()
	}
	if *image != "" {
		f, err := os.Create(*image)
		if err != nil {
			fatal(err)
		}
		if _, err := curDev.Load().WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		log.Printf("saved volume to %s", *image)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simurghd:", err)
	os.Exit(1)
}
