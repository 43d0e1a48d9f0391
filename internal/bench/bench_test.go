package bench

import (
	"strings"
	"testing"
	"time"

	"simurgh/internal/fsapi"
)

func TestMakeFSAllVariants(t *testing.T) {
	names := append(append([]string{}, FSNames...), "simurgh-relaxed", "simurgh-syscall")
	for _, name := range names {
		fs, err := MakeFS(name, 64<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := fs.Attach(fsapi.Root)
		if err != nil {
			t.Fatalf("%s attach: %v", name, err)
		}
		if _, err := c.Create("/probe", 0o644); err != nil {
			t.Fatalf("%s create: %v", name, err)
		}
	}
	if _, err := MakeFS("btrfs", 64<<20); err == nil {
		t.Fatal("unknown fs accepted")
	}
}

func TestRunPointAndSweep(t *testing.T) {
	w := Workload{
		Name:    "touch",
		DevSize: 32 << 20,
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, _ := fs.Attach(fsapi.Root)
			var ops uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return ops, 0, nil
				default:
				}
				fd, err := c.Open("/", fsapi.ORdonly, 0)
				if err == nil {
					c.Close(fd)
				}
				// Root open is rejected for write; just stat instead.
				if _, err := c.Stat("/"); err != nil {
					return ops, 0, err
				}
				ops++
			}
		},
	}
	res, err := RunPoint(w, "simurgh", 2, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.OpsPerSec() <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	names, ths := []string{"simurgh", "nova"}, []int{1, 2}
	vals := map[string][]float64{}
	for _, fsName := range names {
		for _, th := range ths {
			r, err := RunPoint(w, fsName, th, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			vals[fsName] = append(vals[fsName], r.OpsPerSec())
		}
	}
	var sb strings.Builder
	PrintSeries(&sb, "test", ths, names, vals, false)
	out := sb.String()
	if !strings.Contains(out, "\nsimurgh ") || !strings.Contains(out, "\nnova ") {
		t.Fatalf("series output missing rows:\n%s", out)
	}
}

// TestMedians pins the figures' schedule: one discarded warm-up point, the
// system order reversed on every repetition, and the median of each
// column; a one-system list gets the warm-up and then its Reps points.
func TestMedians(t *testing.T) {
	var calls []string
	vals := map[string][]float64{"a": {5, 1, 3}, "b": {20, 40, 10}}
	med, err := Medians([]string{"a", "b"}, func(fs string) ([]float64, error) {
		calls = append(calls, fs)
		if len(calls) == 1 {
			return []float64{1e9, 1e9}, nil // the warm-up, never reported
		}
		v := vals[fs][0]
		vals[fs] = vals[fs][1:]
		return []float64{v, -v}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(calls, ""); got != "aabbaab" {
		t.Errorf("schedule %q, want the warm-up a, then ab, ba, ab", got)
	}
	if a, b := med["a"], med["b"]; len(a) != 2 || a[0] != 3 || a[1] != -3 || b[0] != 20 || b[1] != -20 {
		t.Errorf("medians a %v b %v, want [3 -3] and [20 -20]", a, b)
	}

	calls = nil
	med, err = Medians([]string{"solo"}, func(fs string) ([]float64, error) {
		calls = append(calls, fs)
		return []float64{float64(len(calls))}, nil // 1 is the warm-up
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1+Reps {
		t.Errorf("one system: %d points, want a warm-up and %d reps", len(calls), Reps)
	}
	if got := med["solo"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("one system: median %v, want [3] (of 2, 3, 4)", got)
	}
}

// TestRunPointWindowExcludesPrepare: a per-thread Prepare three windows long
// runs before the measured window opens, so the point still counts
// operations and its Elapsed is the window, not the window plus the setup.
func TestRunPointWindowExcludesPrepare(t *testing.T) {
	const window = 50 * time.Millisecond
	w := Workload{
		Name:    "slow-prepare",
		DevSize: 32 << 20,
		Prepare: func(fsapi.FileSystem, any, int) error {
			time.Sleep(3 * window)
			return nil
		},
		Worker: func(fs fsapi.FileSystem, _ any, _ int, stop <-chan struct{}) (uint64, uint64, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return 0, 0, err
			}
			var ops uint64
			for {
				select {
				case <-stop:
					return ops, 0, nil
				default:
				}
				if _, err := c.Stat("/"); err != nil {
					return ops, 0, err
				}
				ops++
			}
		},
	}
	res, err := RunPoint(w, "simurgh", 2, window)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations counted: the window closed during Prepare")
	}
	if res.Elapsed >= 2*window {
		t.Fatalf("Elapsed = %v for a %v window: Prepare was timed", res.Elapsed, window)
	}
}

// TestRunPassesTimesPassesOnly: a 10 ms pass with a 20 ms reset between
// passes reports a median pass below the reset's 20 ms, which it would not
// if the reset were timed, and as many passes as fit the window; a pass as
// long as the window runs once, with no reset.
func TestRunPassesTimesPassesOnly(t *testing.T) {
	const pass, reset = 10 * time.Millisecond, 20 * time.Millisecond
	var passes, resets int
	p, err := RunPasses(func() error {
		passes++
		time.Sleep(pass)
		return nil
	}, func() error {
		resets++
		time.Sleep(reset)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Median < pass || p.Median >= reset {
		t.Errorf("median pass %v, want within [%v, %v): the reset was timed", p.Median, pass, reset)
	}
	if p.N != passes || resets != passes-1 {
		t.Errorf("N = %d after %d passes and %d resets, want N passes and N-1 resets", p.N, passes, resets)
	}
	if p.Total < PassWindow || p.N > int(PassWindow/pass)+1 {
		t.Errorf("%d passes took %v of timed work, want the fewest to reach %v", p.N, p.Total, PassWindow)
	}

	passes, resets = 0, 0
	p, err = RunPasses(func() error {
		passes++
		time.Sleep(PassWindow)
		return nil
	}, func() error {
		resets++
		return nil
	})
	if err != nil || p.N != 1 || passes != 1 || resets != 0 || p.Median < PassWindow {
		t.Errorf("one long pass: %+v, %d passes, %d resets, err %v; want one pass and no reset", p, passes, resets, err)
	}
}

func TestDefaultThreads(t *testing.T) {
	ths := DefaultThreads()
	if len(ths) == 0 || ths[0] != 1 {
		t.Fatalf("threads = %v", ths)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] != ths[i-1]+1 {
			t.Fatalf("not consecutive: %v", ths)
		}
	}
	if ths[len(ths)-1] > 10 {
		t.Fatalf("exceeds paper sweep: %v", ths)
	}
}

func TestRawReadBandwidth(t *testing.T) {
	r := RawReadBandwidth(64<<20, 2, 30*time.Millisecond)
	if r.MBPerSec() <= 0 {
		t.Fatalf("no bandwidth measured: %+v", r)
	}
}

func TestMemcpyBandwidthCached(t *testing.T) {
	a := MemcpyBandwidth()
	b := MemcpyBandwidth()
	// The cached value is stored as an integer; allow sub-byte rounding.
	if a <= 0 || a-b > 1 || b-a > 1 {
		t.Fatalf("bandwidth = %f then %f", a, b)
	}
}

func TestTimedClientAccounting(t *testing.T) {
	fs, _ := MakeFS("simurgh", 32<<20)
	c, _ := fs.Attach(fsapi.Root)
	tc := NewTimedClient(c)
	fd, err := tc.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tc.Write(fd, make([]byte, 10000))
	tc.Close(fd)
	if tc.Calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", tc.Calls.Load())
	}
	if tc.Bytes.Load() != 10000 {
		t.Fatalf("bytes = %d", tc.Bytes.Load())
	}
	app, cp, fsT := tc.Breakdown(time.Second)
	if app < 0 || cp < 0 || fsT < 0 {
		t.Fatalf("negative breakdown: %v %v %v", app, cp, fsT)
	}
}
