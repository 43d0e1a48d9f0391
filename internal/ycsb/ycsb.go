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
	"sync/atomic"

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

// Config scales a workload.
type Config struct {
	Records   int // rows loaded
	ValueSize int
}

func (c *Config) fill() {
	if c.Records == 0 {
		c.Records = 10000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1000
	}
}

// DevSize sizes a device for c's store: four times the rows (a compaction
// holds the old tables and the new one at once), and 64 MiB for the L0
// tables and the log.
func (c Config) DevSize() uint64 {
	c.fill()
	return 64<<20 + 4*uint64(c.Records)*uint64(c.ValueSize+32)
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

// storeDir is the store's directory on the volume.
const storeDir = "/ycsb"

// open opens the store on c and puts cfg.Records rows: the load phase of
// every workload.
func open(c fsapi.Client, cfg Config) (*leveldb.DB, error) {
	cfg.fill()
	db, err := leveldb.Open(c, storeDir, leveldb.Options{})
	if err != nil {
		return nil, err
	}
	value := string(make([]byte, cfg.ValueSize))
	for i := 0; i < cfg.Records; i++ {
		if err := db.Put(keyName(uint64(i)), value); err != nil {
			db.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	return db, nil
}

// Load is the load phase as one pass, the LoadA row of Table 1 and Fig 10:
// it opens the store on c, puts cfg.Records rows, and closes it (YCSB
// cleans up its store inside the timed run).
func Load(c fsapi.Client, cfg Config) error {
	db, err := open(c, cfg)
	if err != nil {
		return err
	}
	return db.Close()
}

// UndoLoad removes the store Load wrote, the state a load starts from.
func UndoLoad(c fsapi.Client) error { return fsapi.RemoveAll(c, storeDir) }

// store is a run phase's shared state.
type store struct {
	db       *leveldb.DB
	z        *zipfian
	inserted atomic.Uint64 // rows in the store, for inserts and workload D
}

// Workload returns spec's run phase as a bench.Workload: Setup loads
// cfg.Records rows (untimed), and every worker runs spec's operation mix
// until the window closes. The workers share one attached client as it
// is: no stopwatch sits in the measured loop. The store is never closed:
// it lives on the point's volume, which is dropped with the point.
func (spec Spec) Workload(cfg Config) bench.Workload {
	cfg.fill()
	value := string(make([]byte, cfg.ValueSize))
	dev := cfg.DevSize()
	if spec.Insert > 0 {
		// Inserts grow the store for as long as the window runs: 128 MiB
		// holds workload D's for 3 s on a 2-vCPU host.
		dev += 128 << 20
	}
	return bench.Workload{
		Name:    "Run" + spec.Name,
		DevSize: dev,
		Setup: func(fs fsapi.FileSystem) (any, error) {
			c, err := fs.Attach(fsapi.Root)
			if err != nil {
				return nil, err
			}
			st := &store{z: newZipfian(uint64(cfg.Records))}
			st.inserted.Store(uint64(cfg.Records))
			st.db, err = open(c, cfg)
			return st, err
		},
		Worker: func(_ fsapi.FileSystem, ctx any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			st := ctx.(*store)
			rng := rand.New(rand.NewSource(int64(tid)*7919 + 17))
			for ops := uint64(0); ; ops++ {
				select {
				case <-stop:
					return ops, 0, nil
				default:
				}
				var key string
				if spec.Latest {
					last := st.inserted.Load() - 1
					key = keyName(last - min(st.z.next(rng), last))
				} else {
					key = keyName(scramble(st.z.next(rng), uint64(cfg.Records)))
				}
				var err error
				p := rng.Float64()
				switch {
				case p < spec.Read:
					_, _, err = st.db.Get(key)
				case p < spec.Read+spec.Update:
					err = st.db.Put(key, value)
				case p < spec.Read+spec.Update+spec.Insert:
					err = st.db.Put(keyName(st.inserted.Add(1)-1), value)
				case p < spec.Read+spec.Update+spec.Insert+spec.Scan:
					_, err = st.db.Scan(key, 1+rng.Intn(100))
				default: // read-modify-write
					if _, _, err = st.db.Get(key); err == nil {
						err = st.db.Put(key, value)
					}
				}
				if err != nil {
					return ops, 0, fmt.Errorf("thread %d op %d: %w", tid, ops, err)
				}
			}
		},
	}
}
