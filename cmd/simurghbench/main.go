// Command simurghbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index) and drives zero-loss
// writes against a live group (load). Run it with no arguments for the
// list of subcommands; each takes -h for its flags.
//
// Results are throughput series/tables in the paper's shape; absolute
// numbers reflect this host (emulated NVMM in DRAM), so compare trends, not
// magnitudes. See EXPERIMENTS.md for a paper-vs-measured discussion.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"simurgh/internal/apps/gitbench"
	"simurgh/internal/apps/tarbench"
	"simurgh/internal/bench"
	"simurgh/internal/core"
	"simurgh/internal/corpus"
	"simurgh/internal/cost"
	"simurgh/internal/filebench"
	"simurgh/internal/fsapi"
	"simurgh/internal/fxmark"
	"simurgh/internal/isa"
	"simurgh/internal/pmem"
	"simurgh/internal/ycsb"
)

// commands is the one list of subcommands: main dispatches through it and
// usage prints it. Each writes its tables to w.
var commands = []struct {
	name, help string
	run        func(w io.Writer, args []string) error
}{
	{"isa", "gem5 cycle table (§3.3)", runISA},
	{"micro", "FxMark microbenchmarks (Fig 6, Fig 7a-l, the jmpp ablation)", runMicro},
	{"filebench", "varmail/webserver/webproxy/fileserver (Fig 8)", runFilebench},
	{"ycsb", "YCSB A-F on LevelDB (Fig 9)", runYCSB},
	{"breakdown", "execution-time breakdown (Table 1 / Fig 10)", runBreakdown},
	{"tar", "tar pack/unpack (Fig 11)", runTar},
	{"git", "git add/commit/reset (Fig 12)", runGit},
	{"recovery", "full-crash recovery time (§5.5)", runRecovery},
	{"load", "zero-loss write drive against a live group (-addr, -route)", runLoad},
	{"all", "everything at default scale", runAll},
}

func main() {
	if len(os.Args) >= 2 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				if err := c.run(os.Stdout, os.Args[2:]); err != nil {
					fmt.Fprintln(os.Stderr, "simurghbench:", err)
					os.Exit(1)
				}
				return
			}
		}
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: simurghbench <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.help)
	}
}

func parseThreads(s string) []int {
	if s == "" {
		return bench.DefaultThreads()
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return bench.DefaultThreads()
	}
	return out
}

func parseFS(s string) []string {
	if s == "" || s == "all" {
		return bench.FSNames
	}
	return strings.Split(s, ",")
}

// runISA regenerates the §3.3 cycle comparison.
func runISA(w io.Writer, _ []string) error {
	fmt.Fprintln(w, "## Protected-function cycle model (gem5, §3.3)")
	fmt.Fprintf(w, "%-32s %8s  %s\n", "mechanism", "cycles", "detail")
	for _, row := range isa.CycleTable() {
		fmt.Fprintf(w, "%-32s %8d  %s\n", row.Mechanism, row.Cycles, row.Detail)
	}
	fmt.Fprintf(w, "\nprotected call vs geteuid syscall: %.1fx cheaper\n",
		float64(isa.CyclesSyscallModern)/float64(isa.CyclesJmppPret))
	fmt.Fprintf(w, "per-operation delta charged to Simurgh in all benchmarks: %d cycles (%.0f ns @ %.1f GHz)\n",
		cost.JmppExtraCycles, float64(cost.JmppExtraCycles)/cost.ClockGHz, cost.ClockGHz)
	return nil
}

// microFigs labels each FxMark workload with the paper figure it draws.
var microFigs = map[string]string{
	"create-private": "Fig 7a createfile, private dirs", "create-shared": "Fig 7b createfile, shared dir",
	"unlink-private": "Fig 7c deletefile, private dirs", "rename-shared": "Fig 7d renamefile, shared dir",
	"resolve-private": "Fig 7e resolvepath, private", "resolve-shared": "Fig 7f resolvepath, shared paths",
	"append-private": "Fig 7g appendfile 4KB", "fallocate": "Fig 7h fallocate 4MB",
	"read-shared": "Fig 7i random read, shared file", "read-private": "Fig 7j random read, private files",
	"overwrite-shared": "Fig 7k overwrite, shared file", "write-private": "Fig 7l write, private files",
	"read-shared-cachehot": "Fig 6 original FxMark read (cache-hot), shared file",
}

// runMicro runs FxMark workloads over file systems and thread counts. Fig 7
// is the default list; Fig 6 is the cache-hot and random shared reads on
// simurgh and nova (read-shared carries the raw-bandwidth line), and the
// ablation is three metadata workloads on simurgh against simurgh-syscall
// (see runAll for both inputs).
func runMicro(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("micro", flag.ExitOnError)
	benchList := fs.String("bench", "all", "comma-separated workload names, or 'all' for Fig 7 (see DESIGN.md §4)")
	threads := fs.String("threads", "", "comma-separated thread counts (default 1..min(10,cores))")
	dur := fs.Duration("duration", 500*time.Millisecond, "measurement time per point")
	reps := fs.Int("reps", 1, "repetitions per point (the best by ops/s is kept)")
	fsList := fs.String("fs", "all", "file systems (comma separated)")
	fs.Parse(args)

	ws := fxmark.All()
	names := []string{
		"create-private", "create-shared", "unlink-private", "rename-shared",
		"resolve-private", "resolve-shared", "append-private", "fallocate",
		"read-shared", "read-private", "overwrite-shared", "write-private",
	}
	if *benchList != "all" {
		names = strings.Split(*benchList, ",")
		for _, name := range names {
			if _, ok := ws[name]; !ok {
				return fmt.Errorf("unknown bench %q", name)
			}
		}
	}
	ths := parseThreads(*threads)
	for _, name := range names {
		fsNames := parseFS(*fsList)
		if name == "overwrite-shared" {
			fsNames = append(append([]string{}, fsNames...), "simurgh-relaxed")
		}
		var results []bench.Result
		for _, fsName := range fsNames {
			for _, th := range ths {
				var best bench.Result
				for r := 0; r < *reps; r++ {
					res, err := bench.RunPoint(ws[name], fsName, 512<<20, th, *dur)
					if err != nil {
						return err
					}
					if res.OpsPerSec() > best.OpsPerSec() || best.Elapsed == 0 {
						best = res
					}
				}
				results = append(results, best)
			}
		}
		if name == "read-shared" {
			for _, t := range ths {
				results = append(results, bench.RawReadBandwidth(1<<30, t, *dur))
			}
		}
		inMB := strings.HasPrefix(name, "read") || strings.HasPrefix(name, "write") ||
			strings.HasPrefix(name, "overwrite") || strings.HasPrefix(name, "append")
		bench.PrintSeries(w, microFigs[name], results, inMB)
	}
	return nil
}

func runFilebench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("filebench", flag.ExitOnError)
	files := fs.Int("files", 300, "fileset size (paper: 1k/10k)")
	threads := fs.Int("threads", 8, "worker threads (paper: 16-100)")
	dur := fs.Duration("duration", time.Second, "measured time")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)

	fmt.Fprintln(w, "## Fig 8: Filebench throughput (flowops/s)")
	fmt.Fprintf(w, "%-12s", "workload")
	names := parseFS(*fsList)
	for _, n := range names {
		fmt.Fprintf(w, "%12s", n)
	}
	fmt.Fprintln(w)
	for _, p := range filebench.Personalities() {
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, fsName := range names {
			fsi, err := bench.MakeFS(fsName, 1<<30)
			if err != nil {
				return err
			}
			res, err := filebench.Run(fsi, p, filebench.Config{
				Files: *files, Threads: *threads, Duration: *dur,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12.0f", res.Throughput())
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runYCSB(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ycsb", flag.ExitOnError)
	records := fs.Int("records", 5000, "rows loaded")
	ops := fs.Int("ops", 10000, "run-phase operations")
	threads := fs.Int("threads", 2, "client threads")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)

	names := parseFS(*fsList)
	fmt.Fprintln(w, "## Fig 9: YCSB throughput on LevelDB (ops/s; last row normalizes to SplitFS)")
	fmt.Fprintf(w, "%-10s", "workload")
	for _, n := range names {
		fmt.Fprintf(w, "%12s", n)
	}
	fmt.Fprintln(w)
	results := map[string]map[string]ycsb.Result{}
	for _, spec := range ycsb.Workloads {
		fmt.Fprintf(w, "Run%-7s", spec.Name)
		results[spec.Name] = map[string]ycsb.Result{}
		for _, fsName := range names {
			fsi, err := bench.MakeFS(fsName, 1<<30)
			if err != nil {
				return err
			}
			res, err := ycsb.Run(fsi, spec, ycsb.Config{Records: *records, Ops: *ops, Threads: *threads})
			if err != nil {
				return err
			}
			results[spec.Name][fsName] = res
			fmt.Fprintf(w, "%12.0f", res.RunThroughput())
		}
		fmt.Fprintln(w)
	}
	if base, ok := results["A"]["splitfs"]; ok && base.RunThroughput() > 0 {
		fmt.Fprintln(w, "\nnormalized to splitfs:")
		for _, spec := range ycsb.Workloads {
			fmt.Fprintf(w, "Run%-7s", spec.Name)
			sf := results[spec.Name]["splitfs"].RunThroughput()
			for _, fsName := range names {
				if sf > 0 {
					fmt.Fprintf(w, "%12.2f", results[spec.Name][fsName].RunThroughput()/sf)
				} else {
					fmt.Fprintf(w, "%12s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// runBreakdown splits three workloads' wall time into application, data
// copy and file system (Table 1 for nova, Fig 10 for simurgh). Every file
// system is measured one way: its client is wrapped in bench.TimedClient,
// whose stopwatch around each call gives the in-FS time and whose byte
// count, at the host's memcpy bandwidth, gives the copy share.
func runBreakdown(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	fsName := fs.String("fs", "nova", "file system to break down (Table 1: nova; Fig 10: simurgh)")
	records := fs.Int("records", 5000, "YCSB rows")
	scale := fs.Int("scale", 1, "corpus scale for tar/git rows")
	fs.Parse(args)

	rows := []struct {
		name string
		run  func(fsi fsapi.FileSystem) (app, cp, fst time.Duration, err error)
	}{
		{"YCSB LoadA", func(fsi fsapi.FileSystem) (app, cp, fst time.Duration, err error) {
			res, err := ycsb.RunLoadOnly(fsi, ycsb.Config{Records: *records})
			return res.App, res.Copy, res.FSTime, err
		}},
		{"Tar Pack", func(fsi fsapi.FileSystem) (app, cp, fst time.Duration, err error) {
			if _, err := tarbench.Prepare(fsi, corpus.LinuxLike(*scale)); err != nil {
				return 0, 0, 0, err
			}
			c, _ := fsi.Attach(fsapi.Root)
			tc := bench.NewTimedClient(c)
			start := time.Now()
			if _, err := tarbench.PackWithClient(tc); err != nil {
				return 0, 0, 0, err
			}
			app, cp, fst = tc.Breakdown(time.Since(start))
			return app, cp, fst, nil
		}},
		{"Git Commit", func(fsi fsapi.FileSystem) (app, cp, fst time.Duration, err error) {
			c, _ := fsi.Attach(fsapi.Root)
			if err := c.Mkdir("/src", 0o755); err != nil {
				return 0, 0, 0, err
			}
			if _, err := corpus.Generate(c, "/src", corpus.LinuxLike(*scale)); err != nil {
				return 0, 0, 0, err
			}
			repo, err := gitbench.Init(fsi, "/repo", "/src")
			if err != nil {
				return 0, 0, 0, err
			}
			if _, err := repo.Add(); err != nil {
				return 0, 0, 0, err
			}
			tc := bench.NewTimedClient(c)
			start := time.Now()
			if _, err := repo.WithClient(tc).Commit("bench"); err != nil {
				return 0, 0, 0, err
			}
			app, cp, fst = tc.Breakdown(time.Since(start))
			return app, cp, fst, nil
		}},
	}

	fmt.Fprintf(w, "## Execution-time breakdown for %s (Table 1 / Fig 10)\n", *fsName)
	fmt.Fprintf(w, "%-12s %14s %14s %14s\n", "workload", "application", "data copy", "file system")
	for _, r := range rows {
		fsi, err := bench.MakeFS(*fsName, 1<<30)
		if err != nil {
			return err
		}
		app, cp, fst, err := r.run(fsi)
		if err != nil {
			return err
		}
		total := float64(max(app+cp+fst, 1))
		fmt.Fprintf(w, "%-12s %13.2f%% %13.2f%% %13.2f%%\n", r.name,
			100*float64(app)/total, 100*float64(cp)/total, 100*float64(fst)/total)
	}
	return nil
}

// appMedians runs an application point on every file system reps times and
// returns each system's median per column. A discarded warm-up point runs
// first, and the order of the systems reverses on every repetition, so
// neither the process's first point nor a fixed position favours one.
func appMedians(fsNames []string, reps int, point func(fsName string) ([]float64, error)) (map[string][]float64, error) {
	if _, err := point(fsNames[0]); err != nil {
		return nil, err
	}
	runs := map[string][][]float64{}
	order := slices.Clone(fsNames)
	for r := 0; r < reps; r++ {
		for _, name := range order {
			v, err := point(name)
			if err != nil {
				return nil, err
			}
			runs[name] = append(runs[name], v)
		}
		slices.Reverse(order)
	}
	med := map[string][]float64{}
	for name, rs := range runs {
		for col := range rs[0] {
			vs := make([]float64, len(rs))
			for i, v := range rs {
				vs[i] = v[col]
			}
			slices.Sort(vs)
			med[name] = append(med[name], (vs[(len(vs)-1)/2]+vs[len(vs)/2])/2)
		}
	}
	return med, nil
}

func runTar(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tar", flag.ExitOnError)
	scale := fs.Int("scale", 2, "corpus scale factor")
	reps := fs.Int("reps", 3, "repetitions per system (the median is reported)")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := appMedians(names, *reps, func(fsName string) ([]float64, error) {
		fsi, err := bench.MakeFS(fsName, 2<<30)
		if err != nil {
			return nil, err
		}
		if _, err := tarbench.Prepare(fsi, corpus.LinuxLike(*scale)); err != nil {
			return nil, err
		}
		runtime.GC()
		pack, err := tarbench.Pack(fsi)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		unpack, err := tarbench.Unpack(fsi)
		if err != nil {
			return nil, err
		}
		return []float64{pack.MBPerSec(), unpack.MBPerSec()}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Fig 11: tar throughput (MiB/s)")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "fs", "pack", "unpack")
	for _, name := range names {
		fmt.Fprintf(w, "%-12s %12.1f %12.1f\n", name, med[name][0], med[name][1])
	}
	return nil
}

func runGit(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("git", flag.ExitOnError)
	scale := fs.Int("scale", 2, "corpus scale factor")
	reps := fs.Int("reps", 3, "repetitions per system (the median is reported)")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := appMedians(names, *reps, func(fsName string) ([]float64, error) {
		fsi, err := bench.MakeFS(fsName, 2<<30)
		if err != nil {
			return nil, err
		}
		c, _ := fsi.Attach(fsapi.Root)
		if err := c.Mkdir("/src", 0o755); err != nil {
			return nil, err
		}
		if _, err := corpus.Generate(c, "/src", corpus.LinuxLike(*scale)); err != nil {
			return nil, err
		}
		repo, err := gitbench.Init(fsi, "/repo", "/src")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		add, err := repo.Add()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		commit, err := repo.Commit("bench")
		if err != nil {
			return nil, err
		}
		if err := repo.DeleteWorkTree(); err != nil {
			return nil, err
		}
		runtime.GC()
		reset, err := repo.Reset()
		if err != nil {
			return nil, err
		}
		return []float64{add.FilesPerSec(), commit.FilesPerSec(), reset.FilesPerSec()}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Fig 12: git throughput (files/s)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "fs", "add", "commit", "reset")
	for _, name := range names {
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %12.0f\n", name, med[name][0], med[name][1], med[name][2])
	}
	return nil
}

func runRecovery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	trees := fs.Int("trees", 10, "number of source trees (paper: 10)")
	scale := fs.Int("scale", 2, "corpus scale per tree")
	fs.Parse(args)

	dev := pmem.New(4 << 30)
	cfs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		return err
	}
	c, _ := cfs.Attach(fsapi.Root)
	var total corpus.Stats
	for i := 0; i < *trees; i++ {
		root := fmt.Sprintf("/tree%d", i)
		if err := c.Mkdir(root, 0o755); err != nil {
			return err
		}
		st, err := corpus.Generate(c, root, corpus.LinuxLike(*scale))
		if err != nil {
			return err
		}
		total.Dirs += st.Dirs + 1
		total.Files += st.Files
		total.Bytes += st.Bytes
	}
	// Simulate an unclean shutdown: mount again without Unmount.
	_, stats, err := core.Mount(dev, core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## §5.5 recovery test")
	fmt.Fprintf(w, "populated: %d files, %d dirs, %.1f MiB\n", total.Files, total.Dirs,
		float64(total.Bytes)/(1<<20))
	fmt.Fprintf(w, "recovery:  %v (files=%d dirs=%d reclaimed=%d fixed-slots=%d)\n",
		stats.Elapsed, stats.Files, stats.Dirs, stats.Reclaimed, stats.FixedSlots)
	fmt.Fprintf(w, "rate:      %.0f objects/s\n",
		float64(stats.Files+stats.Dirs)/stats.Elapsed.Seconds())
	return nil
}

func runAll(w io.Writer, _ []string) error {
	steps := []struct {
		run  func(io.Writer, []string) error
		args []string
	}{
		{runISA, nil},
		{runMicro, []string{"-duration", "300ms"}},
		// Fig 6.
		{runMicro, []string{"-bench", "read-shared-cachehot,read-shared", "-fs", "simurgh,nova", "-duration", "300ms"}},
		// The ablation: the same design entered through jmpp (46 cycles)
		// and through a syscall (400 cycles). The paper argues the ~330
		// saved cycles halve a resolvepath; slower operations gain mostly
		// from the library design itself.
		{runMicro, []string{"-bench", "resolve-private,create-shared,unlink-private", "-fs", "simurgh,simurgh-syscall",
			"-threads", "1", "-reps", "3", "-duration", "2s"}},
		{runFilebench, []string{"-duration", "500ms", "-files", "200", "-threads", "4"}},
		{runYCSB, []string{"-records", "3000", "-ops", "6000"}},
		{runBreakdown, []string{"-fs", "nova"}},
		{runBreakdown, []string{"-fs", "simurgh"}},
		{runTar, []string{"-scale", "1"}},
		{runGit, []string{"-scale", "1"}},
		{runRecovery, []string{"-trees", "5", "-scale", "1"}},
	}
	for _, st := range steps {
		if err := st.run(w, st.args); err != nil {
			return err
		}
	}
	return nil
}
