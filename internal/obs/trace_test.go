package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanKindsRecorded(t *testing.T) {
	r := NewRegistry()
	if r.TraceEnabled() {
		t.Fatal("fresh registry should have tracing off")
	}
	start := time.Now()
	r.Span(SpanLockWait, OpCreate, start, 100, false) // dropped: disabled
	r.EnableTrace(8)
	if !r.TraceEnabled() {
		t.Fatal("EnableTrace did not enable")
	}
	r.Span(SpanLockWait, OpCreate, start, 100, false)
	r.Span(SpanRecovery, 0, start.Add(time.Microsecond), 2000, false)
	r.Span(SpanPmemFlush, 0, start.Add(2*time.Microsecond), 50, false)
	r.SetSamplePeriod(1)
	r.SampleAt(0, OpMkdir, start.Add(3*time.Microsecond), 700, Delta{}, true)
	ev := r.Trace()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	wantKinds := []SpanKind{SpanLockWait, SpanRecovery, SpanPmemFlush, SpanOp}
	for i, e := range ev {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}
	if ev[0].Name() != "lock-wait" {
		t.Errorf("lock-wait span name = %q", ev[0].Name())
	}
	if ev[3].Name() != "mkdir" || !ev[3].Err {
		t.Errorf("op span name/err = %q/%v, want mkdir/true", ev[3].Name(), ev[3].Err)
	}
}

func TestObserveFenceFeedsRecorder(t *testing.T) {
	r := NewRegistry()
	r.EnableTrace(4)
	r.ObserveFence(time.Now(), 250*time.Nanosecond)
	ev := r.Trace()
	if len(ev) != 1 || ev[0].Kind != SpanPmemFlush || ev[0].LatNs != 250 {
		t.Fatalf("unexpected fence span: %+v", ev)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.EnableTrace(16)
	base := time.Now()
	r.Span(SpanOp, OpCreate, base, 900, false)
	r.Span(SpanLockWait, OpCreate, base.Add(100*time.Nanosecond), 300, false)
	r.Span(SpanRecovery, 0, base.Add(time.Millisecond), 5000, true)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	// One process_name metadata event leads, then the three spans.
	if len(events) != 4 {
		t.Fatalf("got %d JSON events, want 4", len(events))
	}
	if events[0]["ph"] != "M" || events[0]["name"] != "process_name" {
		t.Errorf("leading event = %v, want process_name metadata", events[0])
	}
	for i, e := range events[1:] {
		if e["ph"] != "X" {
			t.Errorf("span %d ph = %v, want X", i, e["ph"])
		}
		for _, k := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("span %d missing field %q", i, k)
			}
		}
	}
	if events[1]["name"] != "create" || events[2]["cat"] != "lock-wait" {
		t.Errorf("unexpected name/cat: %v / %v", events[1]["name"], events[2]["cat"])
	}
	// Empty recorder still produces a valid array (metadata only).
	var empty bytes.Buffer
	r2 := NewRegistry()
	if err := r2.WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	var none []map[string]any
	if err := json.Unmarshal(empty.Bytes(), &none); err != nil || len(none) != 1 {
		t.Fatalf("empty trace invalid: %v %q", err, empty.String())
	}
}

// TestTraceRingWrapDuringDump hammers the ring with concurrent span
// recording — enough to wrap it many times — while dumps are being taken,
// and checks every dump is internally consistent: valid JSON, at most
// capacity spans, latencies monotonically increasing (recording order),
// never a torn or duplicated slot.
func TestTraceRingWrapDuringDump(t *testing.T) {
	r := NewRegistry()
	r.SetNode("wrap")
	const capacity = 64
	r.EnableTrace(capacity)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SpanCtx(SpanRepApply, 0, i, time.Now(), i, false)
		}
	}()

	for dumps := 0; dumps < 50; dumps++ {
		ev := r.Trace()
		if len(ev) > capacity {
			t.Fatalf("dump %d returned %d events, capacity %d", dumps, len(ev), capacity)
		}
		for i := 1; i < len(ev); i++ {
			if ev[i].LatNs <= ev[i-1].LatNs {
				t.Fatalf("dump %d not oldest-first: lat[%d]=%d after lat[%d]=%d",
					dumps, i, ev[i].LatNs, i-1, ev[i-1].LatNs)
			}
			if ev[i].Trace != ev[i].LatNs {
				t.Fatalf("dump %d torn event: trace %d with lat %d", dumps, ev[i].Trace, ev[i].LatNs)
			}
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("dump %d invalid JSON under concurrent wrap: %v", dumps, err)
		}
	}
	close(stop)
	<-writerDone

	// Fill the ring deterministically past capacity: a quiet dump holds
	// exactly the newest capacity events, oldest first.
	for i := uint64(1 << 40); i < 1<<40+2*capacity; i++ {
		r.SpanCtx(SpanRepApply, 0, i, time.Now(), i, false)
	}
	ev := r.Trace()
	if len(ev) != capacity {
		t.Fatalf("final dump has %d events, want %d", len(ev), capacity)
	}
	if want := uint64(1<<40 + 2*capacity - 1); ev[len(ev)-1].LatNs != want {
		t.Fatalf("final dump newest lat = %d, want %d", ev[len(ev)-1].LatNs, want)
	}
}

func TestEventAndLockWaitCounters(t *testing.T) {
	r := NewRegistry()
	r.Event(EvWaiterRecovery)
	r.Event(EvWaiterRecovery)
	r.Event(EvLineLockTimeout)
	r.LockWait(LockLine, 1000)
	r.LockWait(LockLine, 3000)
	r.LockWait(LockFile, 200)
	s := r.Snapshot()
	if s.Events[EvWaiterRecovery] != 2 || s.Events[EvLineLockTimeout] != 1 {
		t.Fatalf("events = %v", s.Events)
	}
	lw := s.LockWaits[LockLine]
	if lw.Waits != 2 || lw.TotalNs != 4000 || lw.MeanNs() != 2000 || lw.Hist.Count() != 2 {
		t.Fatalf("line lock-wait = %+v", lw)
	}
	if s.LockWaits[LockFile].Waits != 1 {
		t.Fatalf("file lock-wait = %+v", s.LockWaits[LockFile])
	}

	// Sub scopes events and waits to a window and passes gauges through.
	s.Gauges = []Gauge{{Name: "alloc.blocks_free", Value: 7}}
	d := s.Sub(r.Snapshot().Sub(s)) // s - 0
	r.Event(EvWaiterRecovery)
	r.LockWait(LockLine, 500)
	s2 := r.Snapshot()
	win := s2.Sub(s)
	if win.Events[EvWaiterRecovery] != 1 || win.LockWaits[LockLine].Waits != 1 {
		t.Fatalf("window diff wrong: events=%v waits=%+v", win.Events, win.LockWaits[LockLine])
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 7 {
		t.Fatalf("gauges not passed through Sub: %+v", d.Gauges)
	}

	// Add merges.
	sum := win.Add(win)
	if sum.Events[EvWaiterRecovery] != 2 || sum.LockWaits[LockLine].Waits != 2 {
		t.Fatalf("Add wrong: %v %+v", sum.Events, sum.LockWaits[LockLine])
	}
}

func TestEventNamesComplete(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == "" || e.String() == "unknown" {
			t.Errorf("event %d has no name", e)
		}
	}
	for k := SpanKind(0); k < NumSpanKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("span kind %d has no name", k)
		}
	}
	for c := LockClass(0); c < NumLockClasses; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("lock class %d has no name", c)
		}
	}
}

func TestNilRegistryNewSurfacesSafe(t *testing.T) {
	var r *Registry
	r.Event(EvWaiterRecovery)
	r.LockWait(LockLine, 10)
	r.Span(SpanRecovery, 0, time.Time{}, 1, false)
	r.ObserveFence(time.Now(), time.Nanosecond)
	if r.TraceEnabled() {
		t.Fatal("nil registry reports tracing enabled")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
