package obs

// Structured slow-op log: the flight recorder's ring type, gated by a
// latency threshold, so it keeps only outliers (see spanRing). It is
// dumped as JSON via /slow.json and the simurghsh `slow` command.

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// DefaultSlowLogCapacity is the ring capacity SetSlowThreshold installs
// when none has been set explicitly.
const DefaultSlowLogCapacity = 256

// SetSlowThreshold arms the slow-op log with an empty ring of capacity
// entries (DefaultSlowLogCapacity if capacity <= 0) that keeps operations
// and spans at or above d. d <= 0 disarms the log and drops captured
// entries.
func (r *Registry) SetSlowThreshold(d time.Duration, capacity int) {
	if r == nil {
		return
	}
	if d <= 0 {
		capacity = 0
	} else if capacity <= 0 {
		capacity = DefaultSlowLogCapacity
	}
	r.slow.arm(uint64(d.Nanoseconds()), capacity)
}

// SlowThreshold returns the armed threshold (0 when the log is disarmed).
func (r *Registry) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	if g := r.slow.gate.Load(); g != 0 {
		return time.Duration(g - 1)
	}
	return 0
}

// SlowOps returns the captured slow entries, oldest first.
func (r *Registry) SlowOps() []TraceEvent {
	if r == nil {
		return nil
	}
	return r.slow.events()
}

// WriteSlowJSON dumps the slow-op log as a JSON object:
// {"threshold_ns":N,"ops":[{...}]}. Entries are oldest first.
func (r *Registry) WriteSlowJSON(w io.Writer) error {
	ops := r.SlowOps()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"threshold_ns\":%d,\"ops\":[", uint64(r.SlowThreshold()))
	for i, s := range ops {
		if i > 0 {
			bw.WriteString(",\n ")
		}
		fmt.Fprintf(bw, `{"name":%q,"kind":%q,"start_us":%d,"lat_ns":%d,"trace":"%016x","err":%t}`,
			s.Name(), s.Kind.String(), s.Start.UnixNano()/1e3, s.LatNs, s.Trace, s.Err)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
