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
// (see runAll for both inputs). A system's point is its whole thread sweep.
func runMicro(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("micro", flag.ExitOnError)
	benchList := fs.String("bench", "all", "comma-separated workload names, or 'all' for Fig 7 (see DESIGN.md §4)")
	threads := fs.String("threads", "", "comma-separated thread counts (default 1..min(10,cores))")
	dur := fs.Duration("duration", 500*time.Millisecond, "measurement time per point")
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
		switch name {
		case "overwrite-shared":
			fsNames = append(slices.Clone(fsNames), "simurgh-relaxed")
		case "read-shared":
			fsNames = append(slices.Clone(fsNames), "max-bandwidth")
		}
		inMB := strings.HasPrefix(name, "read") || strings.HasPrefix(name, "write") ||
			strings.HasPrefix(name, "overwrite") || strings.HasPrefix(name, "append")
		med, err := bench.Medians(fsNames, func(fsName string) ([]float64, error) {
			var vals []float64
			for _, th := range ths {
				var res bench.Result
				var err error
				if fsName == "max-bandwidth" {
					res = bench.RawReadBandwidth(1<<30, th, *dur)
				} else if res, err = bench.RunPoint(ws[name], fsName, 512<<20, th, *dur); err != nil {
					return nil, err
				}
				v := res.OpsPerSec()
				if inMB {
					v = res.MBPerSec()
				}
				vals = append(vals, v)
			}
			return vals, nil
		})
		if err != nil {
			return err
		}
		bench.PrintSeries(w, microFigs[name], ths, fsNames, med, inMB)
	}
	return nil
}

// runFilebench draws Fig 8. A system's point is every personality, each
// one bench.RunPoint over its own fresh volume.
func runFilebench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("filebench", flag.ExitOnError)
	files := fs.Int("files", 300, "fileset size (paper: 1k/10k)")
	threads := fs.Int("threads", 8, "worker threads (paper: 16-100)")
	dur := fs.Duration("duration", time.Second, "measured time")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)

	names := parseFS(*fsList)
	ps := filebench.Personalities()
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		var vals []float64
		for _, p := range ps {
			res, err := bench.RunPoint(p.Workload(*files), fsName, 1<<30, *threads, *dur)
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.OpsPerSec())
		}
		return vals, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Fig 8: Filebench throughput (flowops/s)")
	fmt.Fprintf(w, "%-12s", "workload")
	for _, n := range names {
		fmt.Fprintf(w, "%12s", n)
	}
	fmt.Fprintln(w)
	for i, p := range ps {
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, n := range names {
			fmt.Fprintf(w, "%12.0f", med[n][i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runYCSB draws Fig 9. A system's point is the six workloads, each on its
// own fresh volume.
func runYCSB(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ycsb", flag.ExitOnError)
	records := fs.Int("records", 5000, "rows loaded")
	ops := fs.Int("ops", 10000, "run-phase operations")
	threads := fs.Int("threads", 2, "client threads")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)

	names := parseFS(*fsList)
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		var vals []float64
		for _, spec := range ycsb.Workloads {
			fsi, err := bench.MakeFS(fsName, 1<<30)
			if err != nil {
				return nil, err
			}
			res, err := ycsb.Run(fsi, spec, ycsb.Config{Records: *records, Ops: *ops, Threads: *threads})
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.RunThroughput())
		}
		return vals, nil
	})
	if err != nil {
		return err
	}
	table := func(format string, base []float64) {
		fmt.Fprintf(w, "%-10s", "workload")
		for _, n := range names {
			fmt.Fprintf(w, "%12s", n)
		}
		fmt.Fprintln(w)
		for i, spec := range ycsb.Workloads {
			fmt.Fprintf(w, "Run%-7s", spec.Name)
			for _, n := range names {
				fmt.Fprintf(w, format, med[n][i]/base[i])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "## Fig 9: YCSB throughput on LevelDB (ops/s)")
	table("%12.0f", slices.Repeat([]float64{1}, len(ycsb.Workloads)))
	if sf, ok := med["splitfs"]; ok {
		fmt.Fprintln(w, "\nnormalized to splitfs:")
		table("%12.2f", sf)
	}
	return nil
}

// runBreakdown splits three workloads' wall time into application, data
// copy and file system (Table 1 for nova, Fig 10 for simurgh). Every file
// system is measured one way: its client is wrapped in bench.TimedClient,
// whose stopwatch around each call gives the in-FS time and whose byte
// count, at the host's memcpy bandwidth, gives the copy share. Each share is
// of the three durations' medians, so a row still sums to 100 %.
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

	med, err := bench.Medians([]string{*fsName}, func(fsName string) ([]float64, error) {
		var vals []float64
		for _, r := range rows {
			fsi, err := bench.MakeFS(fsName, 1<<30)
			if err != nil {
				return nil, err
			}
			app, cp, fst, err := r.run(fsi)
			if err != nil {
				return nil, err
			}
			vals = append(vals, float64(app), float64(cp), float64(fst))
		}
		return vals, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Execution-time breakdown for %s (Table 1 / Fig 10)\n", *fsName)
	fmt.Fprintf(w, "%-12s %14s %14s %14s\n", "workload", "application", "data copy", "file system")
	for i, r := range rows {
		v := med[*fsName][3*i : 3*i+3]
		total := max(v[0]+v[1]+v[2], 1)
		fmt.Fprintf(w, "%-12s %13.2f%% %13.2f%% %13.2f%%\n", r.name, 100*v[0]/total, 100*v[1]/total, 100*v[2]/total)
	}
	return nil
}

func runTar(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tar", flag.ExitOnError)
	scale := fs.Int("scale", 2, "corpus scale factor")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
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
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
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
			"-threads", "1", "-duration", "2s"}},
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
