// Package ycsb implements the YCSB core workloads (A-F) against the
// LevelDB-like store, reproducing the paper's Figure 9 (throughput per file
// system, normalized to SplitFS) and the YCSB LoadA row of Table 1 and
// Figure 10 (execution-time breakdown for NOVA and for Simurgh).
//
// The request distributions follow the YCSB core package: a scrambled
// zipfian (theta = 0.99) for A/B/C/E/F, a "latest" distribution for D, and
// uniform scan lengths of 1..100 for E.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/bench"
	"simurgh/internal/fsapi"
	"simurgh/internal/leveldb"
)

// Spec is one YCSB core workload's operation mix.
type Spec struct {
	Name   string
	Read   float64
	Update float64
	Insert float64
	Scan   float64
	RMW    float64
	// Latest selects the latest distribution (workload D).
	Latest bool
}

// Workloads are the six YCSB core workloads.
var Workloads = []Spec{
	{Name: "A", Read: 0.5, Update: 0.5},
	{Name: "B", Read: 0.95, Update: 0.05},
	{Name: "C", Read: 1.0},
	{Name: "D", Read: 0.95, Insert: 0.05, Latest: true},
	{Name: "E", Scan: 0.95, Insert: 0.05},
	{Name: "F", Read: 0.5, RMW: 0.5},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, error) {
	for _, s := range Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Config scales a run.
type Config struct {
	Records   int // rows loaded
	Ops       int // operations in the run phase
	Threads   int
	ValueSize int
	Sync      bool // WAL fsync per update
}

func (c *Config) fill() {
	if c.Records == 0 {
		c.Records = 10000
	}
	if c.Ops == 0 {
		c.Ops = 20000
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1000
	}
}

// Result reports one workload execution.
type Result struct {
	Workload          string
	FS                string
	LoadOps           int
	LoadTime          time.Duration
	RunOps            int
	RunTime           time.Duration
	App, Copy, FSTime time.Duration // breakdown of the load phase (RunLoadOnly only)
}

// RunThroughput returns run-phase ops/s.
func (r Result) RunThroughput() float64 {
	if r.RunTime <= 0 {
		return 0
	}
	return float64(r.RunOps) / r.RunTime.Seconds()
}

// zipfian is the YCSB ZipfianGenerator (Gray et al.).
type zipfian struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
}

func newZipfian(n uint64) *zipfian {
	const theta = 0.99
	z := &zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfian) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramble spreads zipfian ranks over the key space (ScrambledZipfian).
func scramble(v, n uint64) uint64 {
	h := v * 0xc6a4a7935bd1e995
	h ^= h >> 47
	h *= 0xc6a4a7935bd1e995
	return h % n
}

func keyName(i uint64) string { return fmt.Sprintf("user%012d", i) }

// Run executes load + run phases of the workload against fs. The workers
// share the attached client as it is: no stopwatch sits in the measured
// loop (RunLoadOnly is the one phase that is broken down).
func Run(fs fsapi.FileSystem, spec Spec, cfg Config) (Result, error) {
	cfg.fill()
	res := Result{Workload: spec.Name, FS: fs.Name()}
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		return res, err
	}
	db, err := leveldb.Open(c, "/ycsb", leveldb.Options{SyncWrites: cfg.Sync})
	if err != nil {
		return res, err
	}
	defer db.Close()
	value := string(make([]byte, cfg.ValueSize))

	// Load phase.
	loadStart := time.Now()
	for i := 0; i < cfg.Records; i++ {
		if err := db.Put(keyName(uint64(i)), value); err != nil {
			return res, fmt.Errorf("load: %w", err)
		}
	}
	res.LoadOps = cfg.Records
	res.LoadTime = time.Since(loadStart)

	// Run phase.
	var inserted atomic.Uint64
	inserted.Store(uint64(cfg.Records))
	z := newZipfian(uint64(cfg.Records))
	opsPer := cfg.Ops / cfg.Threads
	runStart := time.Now()
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(t)*7919 + 17))
			for i := 0; i < opsPer; i++ {
				var key string
				if spec.Latest {
					max := inserted.Load()
					off := z.next(rng)
					if off >= max {
						off = max - 1
					}
					key = keyName(max - 1 - off)
				} else {
					key = keyName(scramble(z.next(rng), uint64(cfg.Records)))
				}
				var err error
				p := rng.Float64()
				switch {
				case p < spec.Read:
					_, _, err = db.Get(key)
				case p < spec.Read+spec.Update:
					err = db.Put(key, value)
				case p < spec.Read+spec.Update+spec.Insert:
					err = db.Put(keyName(inserted.Add(1)-1), value)
				case p < spec.Read+spec.Update+spec.Insert+spec.Scan:
					_, err = db.Scan(key, 1+rng.Intn(100))
				default: // read-modify-write
					if _, _, err = db.Get(key); err == nil {
						err = db.Put(key, value)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("op %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return res, err
	default:
	}
	res.RunOps = opsPer * cfg.Threads
	res.RunTime = time.Since(runStart)
	return res, nil
}

// RunLoadOnly performs just the load phase with breakdown (Table 1 LoadA).
func RunLoadOnly(fs fsapi.FileSystem, cfg Config) (Result, error) {
	cfg.fill()
	res := Result{Workload: "LoadA", FS: fs.Name()}
	base, err := fs.Attach(fsapi.Root)
	if err != nil {
		return res, err
	}
	tc := bench.NewTimedClient(base)
	db, err := leveldb.Open(tc, "/ycsb", leveldb.Options{SyncWrites: cfg.Sync})
	if err != nil {
		return res, err
	}
	defer db.Close()
	value := string(make([]byte, cfg.ValueSize))
	start := time.Now()
	for i := 0; i < cfg.Records; i++ {
		if err := db.Put(keyName(uint64(i)), value); err != nil {
			return res, err
		}
	}
	res.LoadOps = cfg.Records
	res.LoadTime = time.Since(start)
	res.App, res.Copy, res.FSTime = tc.Breakdown(res.LoadTime)
	return res, nil
}
