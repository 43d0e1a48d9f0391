package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// OpStats is the plain-value accumulated state of one operation class at
// snapshot time. Calls and Errors are exact; Sampled, the histogram, the
// latency total and the NVMM traffic cover only deep-sampled calls (all
// calls when the registry runs at sample period 1).
type OpStats struct {
	Calls   uint64    `json:"calls"`
	Errors  uint64    `json:"errors"`
	Sampled uint64    `json:"sampled"`
	LatNs   uint64    `json:"lat_ns"`
	Hist    Histogram `json:"hist"`
	Pmem    Delta     `json:"pmem"`
}

// MeanNs returns the mean latency of sampled calls in nanoseconds.
func (s OpStats) MeanNs() uint64 {
	if s.Sampled == 0 {
		return 0
	}
	return s.LatNs / s.Sampled
}

// PerCall returns v scaled from sampled calls to a per-call average.
func (s OpStats) PerCall(v uint64) float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(v) / float64(s.Sampled)
}

// EstTotalLatNs extrapolates the total latency across all calls from the
// sampled subset (identical to LatNs at sample period 1).
func (s OpStats) EstTotalLatNs() uint64 {
	if s.Sampled == 0 {
		return 0
	}
	return uint64(float64(s.LatNs) / float64(s.Sampled) * float64(s.Calls))
}

// Add returns the field-wise sum s+b.
func (s OpStats) Add(b OpStats) OpStats {
	return OpStats{
		Calls:   s.Calls + b.Calls,
		Errors:  s.Errors + b.Errors,
		Sampled: s.Sampled + b.Sampled,
		LatNs:   s.LatNs + b.LatNs,
		Hist:    s.Hist.Add(b.Hist),
		Pmem:    s.Pmem.Add(b.Pmem),
	}
}

// Sub returns the field-wise difference s-b.
func (s OpStats) Sub(b OpStats) OpStats {
	return OpStats{
		Calls:   s.Calls - b.Calls,
		Errors:  s.Errors - b.Errors,
		Sampled: s.Sampled - b.Sampled,
		LatNs:   s.LatNs - b.LatNs,
		Hist:    s.Hist.Sub(b.Hist),
		Pmem:    s.Pmem.Sub(b.Pmem),
	}
}

// ShardStat reports lock pressure on one named sharded volatile-state map:
// how many times a shard was locked and how many of those acquisitions
// found the lock already held.
type ShardStat struct {
	Name      string `json:"name"`
	Gets      uint64 `json:"gets"`
	Contended uint64 `json:"contended"`
}

// LockWaitStat is the accumulated contended-wait state of one lock class:
// how many acquisitions blocked, for how long in total, and the wait-time
// distribution. Uncontended acquisitions are not counted.
type LockWaitStat struct {
	Waits   uint64    `json:"waits"`
	TotalNs uint64    `json:"total_ns"`
	Hist    Histogram `json:"hist"`
}

// MeanNs returns the mean contended wait in nanoseconds.
func (l LockWaitStat) MeanNs() uint64 {
	if l.Waits == 0 {
		return 0
	}
	return l.TotalNs / l.Waits
}

// Add returns the field-wise sum l+b.
func (l LockWaitStat) Add(b LockWaitStat) LockWaitStat {
	return LockWaitStat{Waits: l.Waits + b.Waits, TotalNs: l.TotalNs + b.TotalNs, Hist: l.Hist.Add(b.Hist)}
}

// Sub returns the field-wise difference l-b.
func (l LockWaitStat) Sub(b LockWaitStat) LockWaitStat {
	return LockWaitStat{Waits: l.Waits - b.Waits, TotalNs: l.TotalNs - b.TotalNs, Hist: l.Hist.Sub(b.Hist)}
}

// Gauge is one named point-in-time level (allocator occupancy, dirty
// lines): a current value, not a monotonic counter, so Sub keeps the later
// snapshot's reading instead of differencing.
type Gauge struct {
	Name  string
	Value uint64
}

// Snapshot is a point-in-time copy of a Registry (plus, when taken through
// FS.Stats, shard contention, device-global traffic, and subsystem
// gauges). Snapshots are plain values: diff two with Sub to scope counters
// to a window.
type Snapshot struct {
	// SamplePeriod is the registry's deep-sampling period at snapshot time.
	SamplePeriod uint64
	// Ops holds one accumulator per operation class.
	Ops [NumOps]OpStats
	// Shards reports contention on the volatile sharded maps (optional).
	Shards []ShardStat
	// Device holds the device-global traffic totals (optional).
	Device Delta
	// Events holds the rare-event counters, indexed by Event.
	Events [NumEvents]uint64
	// LockWaits holds contended-wait stats, indexed by LockClass.
	LockWaits [NumLockClasses]LockWaitStat
	// Gauges holds point-in-time subsystem levels (optional; set by
	// FS.Stats). Levels, not counters: Sub passes them through.
	Gauges []Gauge
}

// snapshotJSON is a Snapshot's JSON form, served on /stats.json: the same
// fields, with operation, event, lock-class and gauge names as keys
// instead of enum indices. Zero entries are omitted; absent keys decode as
// zero and unknown names are ignored.
type snapshotJSON struct {
	SamplePeriod uint64                  `json:"sample_period"`
	Ops          map[string]OpStats      `json:"ops"`
	Events       map[string]uint64       `json:"events"`
	LockWaits    map[string]LockWaitStat `json:"lock_waits"`
	Shards       []ShardStat             `json:"shards"`
	Device       Delta                   `json:"device"`
	Gauges       map[string]uint64       `json:"gauges"`
}

// MarshalJSON encodes the snapshot in its named form.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	j := snapshotJSON{
		SamplePeriod: s.SamplePeriod, Ops: map[string]OpStats{}, Events: map[string]uint64{},
		LockWaits: map[string]LockWaitStat{}, Shards: s.Shards, Device: s.Device, Gauges: map[string]uint64{},
	}
	for op, o := range s.Ops {
		if o != (OpStats{}) {
			j.Ops[Op(op).String()] = o
		}
	}
	for e, n := range s.Events {
		if n != 0 {
			j.Events[Event(e).String()] = n
		}
	}
	for c, lw := range s.LockWaits {
		if lw != (LockWaitStat{}) {
			j.LockWaits[LockClass(c).String()] = lw
		}
	}
	for _, g := range s.Gauges {
		j.Gauges[g.Name] = g.Value
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the named form back into a Snapshot; gauges come
// back sorted by name.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	var j snapshotJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Snapshot{SamplePeriod: j.SamplePeriod, Shards: j.Shards, Device: j.Device}
	for op := Op(0); op < NumOps; op++ {
		s.Ops[op] = j.Ops[op.String()]
	}
	for e := Event(0); e < NumEvents; e++ {
		s.Events[e] = j.Events[e.String()]
	}
	for c := LockClass(0); c < NumLockClasses; c++ {
		s.LockWaits[c] = j.LockWaits[c.String()]
	}
	for name, v := range j.Gauges {
		s.Gauges = append(s.Gauges, Gauge{Name: name, Value: v})
	}
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	return nil
}

// Snapshot sums the registry's shards into a consistent-enough point-in-time
// copy (individual counters are read atomically; the set is not a single
// atomic cut, which is fine for monotonically increasing counters).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.SamplePeriod = r.SamplePeriod()
	for i := range r.shards {
		sh := &r.shards[i]
		for op := Op(0); op < NumOps; op++ {
			c := &sh.ops[op]
			o := &s.Ops[op]
			o.Calls += c.calls.Load()
			o.Errors += c.errors.Load()
			o.Sampled += c.sampled.Load()
			o.LatNs += c.latNs.Load()
			for b := 0; b < NumBuckets; b++ {
				o.Hist[b] += c.hist[b].Load()
			}
			o.Pmem.LoadBytes += c.load.Load()
			o.Pmem.StoreBytes += c.store.Load()
			o.Pmem.NTBytes += c.nt.Load()
			o.Pmem.Flushes += c.flushes.Load()
			o.Pmem.Fences += c.fences.Load()
		}
	}
	for e := Event(0); e < NumEvents; e++ {
		s.Events[e] = r.events[e].Load()
	}
	for c := LockClass(0); c < NumLockClasses; c++ {
		lw := &r.lockWait[c]
		st := &s.LockWaits[c]
		st.Waits = lw.waits.Load()
		st.TotalNs = lw.ns.Load()
		for b := 0; b < NumBuckets; b++ {
			st.Hist[b] = lw.hist[b].Load()
		}
	}
	return s
}

// Sub returns the snapshot diff s-base: per-op counters, shard stats
// (matched by name) and device totals all scoped to the window between the
// two snapshots.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	out := Snapshot{SamplePeriod: s.SamplePeriod, Device: s.Device.Sub(base.Device), Gauges: s.Gauges}
	for op := Op(0); op < NumOps; op++ {
		out.Ops[op] = s.Ops[op].Sub(base.Ops[op])
	}
	for e := Event(0); e < NumEvents; e++ {
		out.Events[e] = s.Events[e] - base.Events[e]
	}
	for c := LockClass(0); c < NumLockClasses; c++ {
		out.LockWaits[c] = s.LockWaits[c].Sub(base.LockWaits[c])
	}
	baseShards := make(map[string]ShardStat, len(base.Shards))
	for _, b := range base.Shards {
		baseShards[b.Name] = b
	}
	for _, sh := range s.Shards {
		b := baseShards[sh.Name]
		out.Shards = append(out.Shards, ShardStat{
			Name: sh.Name, Gets: sh.Gets - b.Gets, Contended: sh.Contended - b.Contended,
		})
	}
	return out
}

// Add returns the field-wise sum s+o, merging shard stats by name. Use it
// to accumulate windows from several runs into one table.
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := Snapshot{SamplePeriod: s.SamplePeriod, Device: s.Device.Add(o.Device)}
	if out.SamplePeriod < o.SamplePeriod {
		out.SamplePeriod = o.SamplePeriod
	}
	for op := Op(0); op < NumOps; op++ {
		out.Ops[op] = s.Ops[op].Add(o.Ops[op])
	}
	for e := Event(0); e < NumEvents; e++ {
		out.Events[e] = s.Events[e] + o.Events[e]
	}
	for c := LockClass(0); c < NumLockClasses; c++ {
		out.LockWaits[c] = s.LockWaits[c].Add(o.LockWaits[c])
	}
	gm := make(map[string]int, len(s.Gauges))
	for _, g := range s.Gauges {
		gm[g.Name] = len(out.Gauges)
		out.Gauges = append(out.Gauges, g)
	}
	for _, g := range o.Gauges {
		if i, ok := gm[g.Name]; ok {
			out.Gauges[i].Value += g.Value
		} else {
			out.Gauges = append(out.Gauges, g)
		}
	}
	merged := make(map[string]int, len(s.Shards))
	for _, sh := range s.Shards {
		merged[sh.Name] = len(out.Shards)
		out.Shards = append(out.Shards, sh)
	}
	for _, sh := range o.Shards {
		if i, ok := merged[sh.Name]; ok {
			out.Shards[i].Gets += sh.Gets
			out.Shards[i].Contended += sh.Contended
		} else {
			out.Shards = append(out.Shards, sh)
		}
	}
	return out
}

// TotalCalls returns the number of operations across all classes.
func (s Snapshot) TotalCalls() uint64 {
	var n uint64
	for op := Op(0); op < NumOps; op++ {
		n += s.Ops[op].Calls
	}
	return n
}

// TotalLatNs returns the extrapolated total in-FS latency across all
// classes in nanoseconds.
func (s Snapshot) TotalLatNs() uint64 {
	var n uint64
	for op := Op(0); op < NumOps; op++ {
		n += s.Ops[op].EstTotalLatNs()
	}
	return n
}

func fmtNs(ns uint64) string {
	return time.Duration(ns).Round(10 * time.Nanosecond).String()
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fM", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fK", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// WriteTable renders the snapshot as the per-op breakdown table (the Fig
// 10-style view): calls, errors, mean/p50/p99 latency (interpolated
// percentiles), and per-call flush, fence and non-temporal-byte
// attribution, plus the share of total in-FS time. Classes with zero calls
// are omitted.
func (s Snapshot) WriteTable(w io.Writer) {
	totalLat := s.TotalLatNs()
	fmt.Fprintf(w, "%-10s %10s %7s %10s %10s %10s %9s %9s %9s %7s\n",
		"op", "calls", "errs", "mean", "p50", "p99", "flush/op", "fence/op", "nt/op", "fs%")
	for op := Op(0); op < NumOps; op++ {
		o := s.Ops[op]
		if o.Calls == 0 {
			continue
		}
		share := 0.0
		if totalLat > 0 {
			share = 100 * float64(o.EstTotalLatNs()) / float64(totalLat)
		}
		fmt.Fprintf(w, "%-10s %10d %7d %10s %10s %10s %9.2f %9.2f %9s %6.1f%%\n",
			op, o.Calls, o.Errors,
			fmtNs(o.MeanNs()), fmtNs(o.Hist.Percentile(0.50)), fmtNs(o.Hist.Percentile(0.99)),
			o.PerCall(o.Pmem.Flushes), o.PerCall(o.Pmem.Fences),
			fmtBytes(o.PerCall(o.Pmem.NTBytes)), share)
	}
	fmt.Fprintf(w, "total: %d calls, %s in-FS", s.TotalCalls(), fmtNs(totalLat))
	if s.SamplePeriod > 1 {
		fmt.Fprintf(w, " (latency/pmem sampled 1/%d)", s.SamplePeriod)
	}
	fmt.Fprintln(w)
	if len(s.Shards) > 0 {
		fmt.Fprintf(w, "shards:")
		for _, sh := range s.Shards {
			pct := 0.0
			if sh.Gets > 0 {
				pct = 100 * float64(sh.Contended) / float64(sh.Gets)
			}
			fmt.Fprintf(w, " %s=%d/%d contended (%.2f%%)", sh.Name, sh.Contended, sh.Gets, pct)
		}
		fmt.Fprintln(w)
	}
	if s.Device != (Delta{}) {
		fmt.Fprintf(w, "device: %d flushes, %d fences, %s NT, %s stored, %s loaded\n",
			s.Device.Flushes, s.Device.Fences,
			fmtBytes(float64(s.Device.NTBytes)), fmtBytes(float64(s.Device.StoreBytes)),
			fmtBytes(float64(s.Device.LoadBytes)))
	}
	anyWait := false
	for c := LockClass(0); c < NumLockClasses; c++ {
		if s.LockWaits[c].Waits > 0 {
			anyWait = true
		}
	}
	if anyWait {
		fmt.Fprintf(w, "lock-wait:")
		for c := LockClass(0); c < NumLockClasses; c++ {
			lw := s.LockWaits[c]
			if lw.Waits == 0 {
				continue
			}
			fmt.Fprintf(w, " %s=%d waits (mean %s, p99 %s)",
				c, lw.Waits, fmtNs(lw.MeanNs()), fmtNs(lw.Hist.Percentile(0.99)))
		}
		fmt.Fprintln(w)
	}
	anyEvent := false
	for e := Event(0); e < NumEvents; e++ {
		if s.Events[e] > 0 {
			anyEvent = true
		}
	}
	if anyEvent {
		fmt.Fprintf(w, "events:")
		for e := Event(0); e < NumEvents; e++ {
			if s.Events[e] > 0 {
				fmt.Fprintf(w, " %s=%d", e, s.Events[e])
			}
		}
		fmt.Fprintln(w)
	}
}

// Counter is one labeled value in a phase report.
type Counter struct {
	Name  string
	Value uint64
}

// Phase is a named counter snapshot taken at one boundary of a multi-step
// job (a recovery pass, an fsck stage). It reuses the snapshot vocabulary —
// plain diffable values plus an attributed NVMM traffic Delta — so offline
// tools report with the same types the live FS exposes.
type Phase struct {
	Name     string
	Elapsed  time.Duration
	Counters []Counter
	Pmem     Delta
}

// WritePhases renders a phase report, one block per phase, skipping
// zero-valued counters.
func WritePhases(w io.Writer, phases []Phase) {
	for _, p := range phases {
		fmt.Fprintf(w, "%-10s %12v", p.Name, p.Elapsed.Round(time.Microsecond))
		for _, c := range p.Counters {
			if c.Value != 0 {
				fmt.Fprintf(w, "  %s=%d", c.Name, c.Value)
			}
		}
		if p.Pmem != (Delta{}) {
			fmt.Fprintf(w, "  [%d flushes, %d fences, %s NT]",
				p.Pmem.Flushes, p.Pmem.Fences, fmtBytes(float64(p.Pmem.NTBytes)))
		}
		fmt.Fprintln(w)
	}
}
