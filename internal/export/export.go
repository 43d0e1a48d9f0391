// Package export serves live observability data over HTTP: Prometheus
// text-exposition on /metrics, the obs snapshot under named keys on
// /stats.json, the flight recorder's Chrome trace JSON on /trace.json and
// the slow log on /slow.json. It is driven entirely by the obs Snapshot
// API — a Source callback produces a fresh snapshot per scrape — so any
// stats-capable file system (core.FS, the public Volume) can be exported
// without new coupling. The Write* helpers are the one Prometheus writer
// every other series (server, replica, shard) goes through.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"simurgh/internal/obs"
)

// Source produces a point-in-time snapshot of a live file system
// (typically FS.Stats or Volume.Stats).
type Source func() obs.Snapshot

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): per-op call/error counters and latency
// histograms, lock-wait histograms, event counters, shard and device
// totals, and subsystem gauges.
func WritePrometheus(w io.Writer, s obs.Snapshot) {
	WriteScalar(w, "simurgh_sample_period", "gauge", "Deep-sampling period (1 = every call sampled).", s.SamplePeriod)

	WriteHeader(w, "simurgh_op_calls_total", "counter", "Operations started, by class.")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if s.Ops[op].Calls != 0 {
			fmt.Fprintf(w, "simurgh_op_calls_total{op=%q} %d\n", op.String(), s.Ops[op].Calls)
		}
	}
	WriteHeader(w, "simurgh_op_errors_total", "counter", "Operations failed, by class.")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if s.Ops[op].Errors != 0 {
			fmt.Fprintf(w, "simurgh_op_errors_total{op=%q} %d\n", op.String(), s.Ops[op].Errors)
		}
	}
	WriteHeader(w, "simurgh_op_latency_ns", "histogram", "Sampled operation latency, by class.")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		o := s.Ops[op]
		if o.Sampled == 0 {
			continue
		}
		WriteHistogram(w, "simurgh_op_latency_ns", fmt.Sprintf("op=%q", op.String()), o.Hist[:], obs.BucketUpperNs, o.LatNs)
	}
	WriteHeader(w, "simurgh_lock_wait_ns", "histogram", "Contended lock wait time, by lock class.")
	for c := obs.LockClass(0); c < obs.NumLockClasses; c++ {
		lw := s.LockWaits[c]
		if lw.Waits == 0 {
			continue
		}
		WriteHistogram(w, "simurgh_lock_wait_ns", fmt.Sprintf("lock=%q", c.String()), lw.Hist[:], obs.BucketUpperNs, lw.TotalNs)
	}
	WriteHeader(w, "simurgh_events_total", "counter", "Rare events (timeouts, recovery, steals).")
	for e := obs.Event(0); e < obs.NumEvents; e++ {
		if s.Events[e] != 0 {
			fmt.Fprintf(w, "simurgh_events_total{event=%q} %d\n", e.String(), s.Events[e])
		}
	}
	if len(s.Shards) > 0 {
		WriteHeader(w, "simurgh_shard_gets_total", "counter", "Sharded-map lock acquisitions.")
		for _, sh := range s.Shards {
			fmt.Fprintf(w, "simurgh_shard_gets_total{shard=%q} %d\n", sh.Name, sh.Gets)
		}
		WriteHeader(w, "simurgh_shard_contended_total", "counter", "Sharded-map acquisitions that found the lock held.")
		for _, sh := range s.Shards {
			fmt.Fprintf(w, "simurgh_shard_contended_total{shard=%q} %d\n", sh.Name, sh.Contended)
		}
	}
	WriteHeader(w, "simurgh_device_total", "counter", "Device-global NVMM traffic counters.")
	for _, kv := range []struct {
		k string
		v uint64
	}{
		{"load_bytes", s.Device.LoadBytes}, {"store_bytes", s.Device.StoreBytes},
		{"nt_bytes", s.Device.NTBytes}, {"flushes", s.Device.Flushes}, {"fences", s.Device.Fences},
	} {
		fmt.Fprintf(w, "simurgh_device_total{kind=%q} %d\n", kv.k, kv.v)
	}
	if len(s.Gauges) > 0 {
		WriteHeader(w, "simurgh_gauge", "gauge", "Point-in-time subsystem levels (allocator occupancy, slab flags, device).")
		gauges := append([]obs.Gauge(nil), s.Gauges...)
		sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
		for _, g := range gauges {
			fmt.Fprintf(w, "simurgh_gauge{name=%q} %d\n", g.Name, g.Value)
		}
	}
}

// WriteHeader writes the # HELP and # TYPE lines that open a series.
func WriteHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteScalar writes one unlabelled series of type typ (counter or
// gauge): its header and its value.
func WriteScalar(w io.Writer, name, typ, help string, v uint64) {
	WriteHeader(w, name, typ, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// WriteHistogram writes the cumulative buckets, _sum and _count of one
// histogram series; label ("" for none) is the series' label list without
// braces. Bucket i's bound is le(i); the last bucket is unbounded and
// becomes le="+Inf".
func WriteHistogram(w io.Writer, name, label string, buckets []uint64, le func(int) uint64, sum uint64) {
	sel, sep := "", ""
	if label != "" {
		sel, sep = "{"+label+"}", label+","
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		bound := "+Inf"
		if i < len(buckets)-1 {
			bound = strconv.FormatUint(le(i), 10)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, bound, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, sel, sum, name, sel, cum)
}

// Extra appends additional Prometheus series to each /metrics scrape, for
// subsystems whose counters live outside the obs snapshot (the network
// server's, the replication node's and the shard authority's series).
type Extra func(w io.Writer)

// HealthFunc reports the node's serving state for /healthz: "serving",
// "draining", or "backup". Anything but "serving" answers 503 so load
// balancers and orchestration probes steer clients at the primary only.
type HealthFunc func() string

// Options selects the exporter's optional endpoints.
type Options struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ (CPU and execution
	// trace profiling over HTTP, goroutine/heap/allocs/mutex/block dumps).
	// Off by default: the endpoints can pause the process for seconds at a
	// time, so they are opt-in even on an already-trusted metrics port.
	Pprof bool
	// Cluster, when set, produces the replication group's health document,
	// served JSON-encoded on /cluster.json (simurghd hands it
	// replica.Node.ClusterHealth with the shard table filled in). nil
	// answers 404 — standalone daemons have no cluster plane.
	Cluster func() any
	// HealthDetail, when set, appends machine-readable "key value" lines
	// after the state line on /healthz (epoch, commit_floor), so probes and
	// smoke tests assert promotion state without parsing logs. The first
	// line stays the bare state for existing one-line consumers.
	HealthDetail func(w io.Writer)
}

// writeJSON serves v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// NewHandler builds the exporter's HTTP mux. health (optional; nil reports
// "serving") drives /healthz; reg (optional) serves the flight recorder on
// /trace.json and the slow log on /slow.json; extra appenders are invoked
// after the snapshot on every /metrics scrape.
func NewHandler(src Source, health HealthFunc, reg *obs.Registry, opts Options, extra ...Extra) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		state := "serving"
		if health != nil {
			state = health()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if state != "serving" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, state)
		if opts.HealthDetail != nil {
			opts.HealthDetail(w)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src())
		for _, e := range extra {
			e(w)
		}
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src())
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteChromeTrace(w)
	})
	mux.HandleFunc("/slow.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteSlowJSON(w)
	})
	mux.HandleFunc("/cluster.json", func(w http.ResponseWriter, r *http.Request) {
		if opts.Cluster == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, opts.Cluster())
	})
	pprofLine := ""
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofLine = "/debug/pprof  runtime profiles (cpu, heap, allocs, goroutine, trace)\n"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "simurgh metrics exporter\n\n"+
			"/metrics      Prometheus text exposition\n"+
			"/stats.json   obs snapshot (ops, events, lock waits, shards, device, gauges by name)\n"+
			"/trace.json   Chrome trace-event JSON (load in ui.perfetto.dev)\n"+
			"/slow.json    slow-operation log (threshold-gated ring)\n"+
			"/cluster.json replication group health (replicated nodes only)\n"+
			"/healthz      serving state (200 serving, 503 draining/backup)\n"+pprofLine)
	})
	return mux
}

// Server is a running exporter endpoint.
type Server struct {
	// URL is the base address, e.g. "http://127.0.0.1:9180".
	URL string

	srv *http.Server
}

// Serve starts the exporter built by NewHandler on addr (host:port; port
// 0 picks a free one) and returns once the listener is accepting.
func Serve(addr string, src Source, health HealthFunc, reg *obs.Registry, opts Options, extra ...Extra) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		URL: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: NewHandler(src, health, reg, opts, extra...)},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the exporter.
func (s *Server) Close() error { return s.srv.Close() }
