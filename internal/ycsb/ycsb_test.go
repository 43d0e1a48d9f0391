package ycsb

import (
	"math"
	"math/rand"
	"testing"

	"simurgh/internal/bench"
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
			fs, err := bench.MakeFS("simurgh", 256<<20)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(fs, spec, Config{Records: 500, Ops: 1000, Threads: 2, ValueSize: 200})
			if err != nil {
				t.Fatal(err)
			}
			if res.RunOps == 0 || res.RunThroughput() <= 0 {
				t.Fatalf("no throughput: %+v", res)
			}
			// Run times nothing: a stopwatch would put a line shared by
			// every worker inside the measured loop.
			if res.App != 0 || res.Copy != 0 || res.FSTime != 0 {
				t.Fatalf("Run filled the breakdown: %+v", res)
			}
		})
	}
}

func TestWorkloadARunsOnAllFS(t *testing.T) {
	spec, _ := SpecByName("A")
	for _, name := range bench.FSNames {
		fs, err := bench.MakeFS(name, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(fs, spec, Config{Records: 300, Ops: 600, Threads: 2, ValueSize: 100})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.RunOps == 0 {
			t.Fatalf("%s: zero ops", name)
		}
	}
}

func TestBreakdownAccounting(t *testing.T) {
	fs, _ := bench.MakeFS("nova", 256<<20)
	res, err := RunLoadOnly(fs, Config{Records: 2000, ValueSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	total := res.App + res.Copy + res.FSTime
	if total <= 0 {
		t.Fatal("empty breakdown")
	}
	// The three parts must roughly cover the load wall time.
	if total > res.LoadTime*3/2 {
		t.Fatalf("breakdown %v exceeds wall %v", total, res.LoadTime)
	}
	if res.FSTime <= 0 {
		t.Fatal("no file-system time measured for a write-heavy load")
	}
}
