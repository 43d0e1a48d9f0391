package ycsb

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"simurgh/internal/bench"
	"simurgh/internal/fsapi"
)

func TestZipfianSkew(t *testing.T) {
	z := newZipfian(1000)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.next(rng)
		if v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate, and the head must hold most of the mass.
	if counts[0] < counts[10] {
		t.Fatal("zipfian not skewed toward rank 0")
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.5 {
		t.Fatalf("top-10%% of ranks hold %.2f of mass, want > 0.5", frac)
	}
}

func TestScrambleUniformCoverage(t *testing.T) {
	const n = 100
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := scramble(i, n)
		if v >= n {
			t.Fatalf("scramble out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < n*9/10 {
		t.Fatalf("scramble covers only %d/%d slots", len(seen), n)
	}
}

func TestSpecsSumToOne(t *testing.T) {
	for _, s := range Workloads {
		sum := s.Read + s.Update + s.Insert + s.Scan + s.RMW
		if math.Abs(sum-1.0) > 1e-9 {
			t.Fatalf("workload %s proportions sum to %f", s.Name, sum)
		}
	}
	if _, err := SpecByName("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("Z"); err == nil {
		t.Fatal("phantom workload")
	}
}

func TestAllWorkloadsRunOnSimurgh(t *testing.T) {
	for _, spec := range Workloads {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := bench.RunPoint(spec.Workload(Config{Records: 500, ValueSize: 200}), "simurgh", 2, 30*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.OpsPerSec() <= 0 {
				t.Fatalf("no throughput: %+v", res)
			}
		})
	}
}

func TestWorkloadARunsOnAllFS(t *testing.T) {
	spec, _ := SpecByName("A")
	for _, name := range bench.FSNames {
		res, err := bench.RunPoint(spec.Workload(Config{Records: 300, ValueSize: 100}), name, 2, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops", name)
		}
	}
}

// loadPasses runs Load through a bench.TimedClient in the pass window,
// with UndoLoad as its reset on the plain client, as the breakdown's LoadA
// row does, and returns the window, the stopwatch client, and the calls and
// bytes each pass made through it.
func loadPasses(t *testing.T, fsName string, cfg Config) (bench.Passes, *bench.TimedClient, [][2]uint64) {
	t.Helper()
	fs, err := bench.MakeFS(fsName, cfg.DevSize())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	tc := bench.NewTimedClient(c)
	var work [][2]uint64
	p, err := bench.RunPasses(func() error {
		calls, bytes := tc.Calls.Load(), tc.Bytes.Load()
		err := Load(tc, cfg)
		work = append(work, [2]uint64{tc.Calls.Load() - calls, tc.Bytes.Load() - bytes})
		return err
	}, func() error { return UndoLoad(c) })
	if err != nil {
		t.Fatal(err)
	}
	return p, tc, work
}

func TestBreakdownAccounting(t *testing.T) {
	p, tc, _ := loadPasses(t, "nova", Config{Records: 2000, ValueSize: 500})
	app, cp, fsT := tc.Breakdown(p.Total)
	// The three parts are a partition of the timed passes.
	if total := app + cp + fsT; total <= 0 || total > p.Total {
		t.Fatalf("breakdown %v of %d passes taking %v", total, p.N, p.Total)
	}
	if fsT <= 0 {
		t.Fatal("no file-system time measured for a write-heavy load")
	}
}

// TestEveryLoadPassRepeatsTheFirst: after UndoLoad, a load makes the calls
// and moves the bytes the first load did.
func TestEveryLoadPassRepeatsTheFirst(t *testing.T) {
	p, _, work := loadPasses(t, "simurgh", Config{Records: 2000, ValueSize: 500})
	if p.N < 2 || len(work) != p.N || work[0][0] == 0 || work[0][1] < 2000*500 {
		t.Fatalf("%d passes, work %v: want several that each write the rows", p.N, work)
	}
	for i, w := range work {
		if w != work[0] {
			t.Fatalf("load pass %d made %d calls moving %d bytes, the first %d and %d", i, w[0], w[1], work[0][0], work[0][1])
		}
	}
}
