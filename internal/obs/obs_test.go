package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {255, 2}, {256, 3},
		{64 << 10, 11}, {1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's upper bound must land in the next bucket (except the
	// open-ended last one).
	for i := 0; i < NumBuckets-2; i++ {
		if got := bucketOf(BucketUpperNs(i)); got != i+1 {
			t.Errorf("bucketOf(upper(%d)) = %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fast samples, 10 slow ones.
	for i := 0; i < 90; i++ {
		h[bucketOf(100)]++
	}
	for i := 0; i < 10; i++ {
		h[bucketOf(1<<20)]++
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 != BucketUpperNs(bucketOf(100)) {
		t.Errorf("p50 = %d, want fast bucket bound %d", p50, BucketUpperNs(bucketOf(100)))
	}
	if p99 := h.Quantile(0.99); p99 != BucketUpperNs(bucketOf(1<<20)) {
		t.Errorf("p99 = %d, want slow bucket bound %d", p99, BucketUpperNs(bucketOf(1<<20)))
	}
}

func TestRegistryRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(1)
	for i := 0; i < 10; i++ {
		if !r.EnterAt(0, OpCreate) {
			t.Fatal("period 1 must deep-sample every call")
		}
		r.SampleAt(0, OpCreate, time.Now(), 1000, Delta{Fences: 2, Flushes: 3, NTBytes: 64}, false)
	}
	r.EnterAt(0, OpUnlink)
	r.ErrorAt(0, OpUnlink)
	s := r.Snapshot()
	c := s.Ops[OpCreate]
	if c.Calls != 10 || c.Sampled != 10 || c.Errors != 0 {
		t.Fatalf("create stats = %+v", c)
	}
	if c.Pmem.Fences != 20 || c.Pmem.Flushes != 30 || c.Pmem.NTBytes != 640 {
		t.Fatalf("create pmem = %+v", c.Pmem)
	}
	if c.MeanNs() != 1000 {
		t.Fatalf("mean = %d", c.MeanNs())
	}
	if got := c.PerCall(c.Pmem.Fences); got != 2 {
		t.Fatalf("fences/op = %v", got)
	}
	u := s.Ops[OpUnlink]
	if u.Calls != 1 || u.Errors != 1 {
		t.Fatalf("unlink stats = %+v", u)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(1)
	r.EnterAt(0, OpWrite)
	r.SampleAt(0, OpWrite, time.Now(), 500, Delta{Fences: 1}, false)
	base := r.Snapshot()
	base.Shards = []ShardStat{{Name: "locks", Gets: 5, Contended: 1}}
	base.Device = Delta{Fences: 7}

	r.EnterAt(0, OpWrite)
	r.SampleAt(0, OpWrite, time.Now(), 700, Delta{Fences: 3}, false)
	cur := r.Snapshot()
	cur.Shards = []ShardStat{{Name: "locks", Gets: 9, Contended: 2}}
	cur.Device = Delta{Fences: 11}

	d := cur.Sub(base)
	w := d.Ops[OpWrite]
	if w.Calls != 1 || w.LatNs != 700 || w.Pmem.Fences != 3 {
		t.Fatalf("diffed write stats = %+v", w)
	}
	if d.Ops[OpRead].Calls != 0 {
		t.Fatal("untouched op should diff to zero")
	}
	if len(d.Shards) != 1 || d.Shards[0].Gets != 4 || d.Shards[0].Contended != 1 {
		t.Fatalf("diffed shards = %+v", d.Shards)
	}
	if d.Device.Fences != 4 {
		t.Fatalf("diffed device = %+v", d.Device)
	}
}

func TestSamplePeriodCountsStayExact(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(32)
	const calls = 1000
	sampled := 0
	for i := 0; i < calls; i++ {
		if r.EnterAt(0, OpStat) {
			sampled++
			r.SampleAt(0, OpStat, time.Now(), 100, Delta{}, false)
		}
	}
	s := r.Snapshot()
	if s.Ops[OpStat].Calls != calls {
		t.Fatalf("calls = %d, want %d (exact regardless of sampling)", s.Ops[OpStat].Calls, calls)
	}
	if s.Ops[OpStat].Sampled != uint64(sampled) {
		t.Fatalf("sampled = %d, want %d", s.Ops[OpStat].Sampled, sampled)
	}
	if sampled == 0 || sampled == calls {
		t.Fatalf("sampling picked %d of %d; expected a strict subset", sampled, calls)
	}
	// Extrapolation scales the sampled latency back to all calls.
	if est := s.Ops[OpStat].EstTotalLatNs(); est != 100*calls {
		t.Fatalf("extrapolated latency = %d, want %d", est, 100*calls)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(1)
	r.EnableTrace(64)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.ShardHint()
			for i := 0; i < per; i++ {
				op := Op(i % int(NumOps))
				if r.EnterAt(h, op) {
					r.SampleAt(h, op, time.Now(), uint64(i), Delta{Fences: 1}, i%7 == 0)
				}
				if i%13 == 0 {
					r.ErrorAt(h, op)
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	var calls, fences uint64
	for op := Op(0); op < NumOps; op++ {
		calls += s.Ops[op].Calls
		fences += s.Ops[op].Pmem.Fences
	}
	if calls != goroutines*per {
		t.Fatalf("total calls = %d, want %d", calls, goroutines*per)
	}
	if fences != goroutines*per {
		t.Fatalf("total fences = %d, want %d", fences, goroutines*per)
	}
}

func TestTraceRingWraps(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(1)
	r.EnableTrace(4)
	for i := 0; i < 10; i++ {
		r.SampleAt(0, OpRead, time.Now(), uint64(i), Delta{}, false)
	}
	ev := r.Trace()
	if len(ev) != 4 {
		t.Fatalf("trace len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if e.LatNs != uint64(6+i) {
			t.Fatalf("trace[%d].LatNs = %d, want %d (newest 4, oldest first)", i, e.LatNs, 6+i)
		}
	}
	r.EnableTrace(0)
	r.SampleAt(0, OpRead, time.Now(), 1, Delta{}, false)
	if r.Trace() != nil {
		t.Fatal("disabled trace must drop events")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.EnterAt(0, OpOpen) {
		t.Fatal("nil registry must not sample")
	}
	r.ErrorAt(0, OpOpen)
	r.SampleAt(0, OpOpen, time.Now(), 1, Delta{}, false)
	r.SetSamplePeriod(1)
	r.EnableTrace(4)
	if s := r.Snapshot(); s.TotalCalls() != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestWriteTableAndPhases(t *testing.T) {
	r := NewRegistry()
	r.SetSamplePeriod(1)
	r.EnterAt(0, OpMkdir)
	r.SampleAt(0, OpMkdir, time.Now(), 1500, Delta{Fences: 4, Flushes: 6, NTBytes: 4096}, false)
	s := r.Snapshot()
	s.Shards = []ShardStat{{Name: "locks", Gets: 10, Contended: 3}}
	s.Device = Delta{Fences: 4}
	var sb strings.Builder
	s.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"mkdir", "fence/op", "locks=3/10", "device: "} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unlink") {
		t.Errorf("table should omit zero-call ops:\n%s", out)
	}

	sb.Reset()
	WritePhases(&sb, []Phase{
		{Name: "recover", Elapsed: time.Millisecond,
			Counters: []Counter{{Name: "files", Value: 12}, {Name: "fixes", Value: 0}},
			Pmem:     Delta{Fences: 2}},
	})
	out = sb.String()
	if !strings.Contains(out, "recover") || !strings.Contains(out, "files=12") {
		t.Errorf("phase report malformed:\n%s", out)
	}
	if strings.Contains(out, "fixes=0") {
		t.Errorf("phase report should omit zero counters:\n%s", out)
	}
}
