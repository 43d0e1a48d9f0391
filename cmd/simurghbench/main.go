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
	var out []int
	for _, part := range strings.Split(s, ",") {
		if n, err := strconv.Atoi(strings.TrimSpace(part)); err == nil && n > 0 {
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
					// The raw line reads a device the size of read-shared's.
					res = bench.RawReadBandwidth(ws["read-shared"].DevSize, th, *dur)
				} else if res, err = bench.RunPoint(ws[name], fsName, th, *dur); err != nil {
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

	var ws []bench.Workload
	for _, p := range filebench.Personalities() {
		ws = append(ws, p.Workload(*files))
	}
	_, err := workloadTable(w, "## Fig 8: Filebench throughput (flowops/s)", ws, parseFS(*fsList), *threads, *dur)
	return err
}

// runYCSB draws Fig 9. A system's point is the six run phases, each one
// bench.RunPoint over its own fresh, loaded volume.
func runYCSB(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ycsb", flag.ExitOnError)
	records := fs.Int("records", 5000, "rows loaded")
	dur := fs.Duration("duration", time.Second, "run-phase time per workload")
	threads := fs.Int("threads", 2, "client threads")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)

	var ws []bench.Workload
	for _, spec := range ycsb.Workloads {
		ws = append(ws, spec.Workload(ycsb.Config{Records: *records}))
	}
	names := parseFS(*fsList)
	title := fmt.Sprintf("## Fig 9: YCSB throughput on LevelDB (ops/s in a %v window)", *dur)
	med, err := workloadTable(w, title, ws, names, *threads, *dur)
	if sf, ok := med["splitfs"]; ok && err == nil {
		fmt.Fprintln(w, "\nnormalized to splitfs:")
		printByWorkload(w, ws, names, med, "%12.2f", sf)
	}
	return err
}

// workloadTable takes every named system's point as one bench.RunPoint per
// workload, each on its own fresh volume, prints the ops/s medians under
// title, and returns them.
func workloadTable(w io.Writer, title string, ws []bench.Workload, names []string, threads int, d time.Duration) (map[string][]float64, error) {
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		var vals []float64
		for _, wl := range ws {
			res, err := bench.RunPoint(wl, fsName, threads, d)
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.OpsPerSec())
		}
		return vals, nil
	})
	if err == nil {
		fmt.Fprintln(w, title)
		printByWorkload(w, ws, names, med, "%12.0f", nil)
	}
	return med, err
}

// printByWorkload prints a row per workload and a column per system, each
// median divided by base's value for its row (by 1 when base is nil).
func printByWorkload(w io.Writer, ws []bench.Workload, names []string, med map[string][]float64, format string, base []float64) {
	fmt.Fprintf(w, "%-12s", "workload")
	for _, n := range names {
		fmt.Fprintf(w, "%12s", n)
	}
	fmt.Fprintln(w)
	for i, wl := range ws {
		fmt.Fprintf(w, "%-12s", wl.Name)
		for _, n := range names {
			div := 1.0
			if base != nil {
				div = base[i]
			}
			fmt.Fprintf(w, format, med[n][i]/div)
		}
		fmt.Fprintln(w)
	}
}

// volume makes a fresh volume of the named system on a device of size
// bytes and attaches a client to it.
func volume(fsName string, size uint64) (fsapi.Client, error) {
	fsi, err := bench.MakeFS(fsName, size)
	if err != nil {
		return nil, err
	}
	return fsi.Attach(fsapi.Root)
}

// corpusVolume makes a volume with room for copies copies of spec's corpus
// (every file rounded up to whole 4 KiB blocks, and 64 MiB of headroom)
// and generates one copy at /src.
func corpusVolume(fsName string, spec corpus.Spec, copies uint64) (fsapi.Client, error) {
	st := spec.Stats()
	c, err := volume(fsName, 64<<20+copies*(st.Bytes+st.Files*4096))
	if err != nil {
		return nil, err
	}
	if err := c.Mkdir("/src", 0o755); err != nil {
		return nil, err
	}
	_, err = corpus.Generate(c, "/src", spec)
	return c, err
}

// passRate times pass in bench.RunPasses, with reset between passes, and
// returns what a pass reports (every pass repeats the first's work) per
// second of the median pass, and the number of passes.
func passRate(pass func() (uint64, error), reset func() error) (rate, passes float64, err error) {
	var n uint64
	p, err := bench.RunPasses(func() (err error) {
		n, err = pass()
		return err
	}, reset)
	return float64(n) / p.Median.Seconds(), float64(p.N), err
}

// runBreakdown splits three workloads' run time into application, data
// copy and file system (Table 1 for nova, Fig 10 for simurgh). Every row is
// a pass window (bench.RunPasses) whose passes run through a
// bench.TimedClient: its stopwatch around each call gives the in-FS time
// and its byte count, at the host's memcpy bandwidth, the copy share, both
// summed over the timed passes; the resets run on the plain client. Each
// share is of the three per-pass durations' medians, so a row still sums to
// 100 %.
func runBreakdown(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	fsName := fs.String("fs", "nova", "file system to break down (Table 1: nova; Fig 10: simurgh)")
	records := fs.Int("records", 5000, "YCSB rows")
	scale := fs.Int("scale", 1, "corpus scale for tar/git rows")
	fs.Parse(args)

	cfg, spec := ycsb.Config{Records: *records}, corpus.LinuxLike(*scale)
	var repo *gitbench.Repo
	rows := []struct {
		name string
		// volume makes the row's fresh volume, holding what its pass reads.
		volume func(fsName string) (fsapi.Client, error)
		// pass runs through the stopwatch client; undo, through the plain
		// one, restores the state pass started from.
		pass func(tc fsapi.Client) error
		undo func(c fsapi.Client) error
	}{
		{"YCSB LoadA", func(fsName string) (fsapi.Client, error) { return volume(fsName, cfg.DevSize()) },
			func(tc fsapi.Client) error { return ycsb.Load(tc, cfg) }, ycsb.UndoLoad},
		{"Tar Pack", func(fsName string) (fsapi.Client, error) { return corpusVolume(fsName, spec, 2) },
			func(tc fsapi.Client) error {
				_, err := tarbench.Pack(tc)
				return err
			}, tarbench.UndoPack},
		{"Git Commit", func(fsName string) (fsapi.Client, error) {
			c, err := corpusVolume(fsName, spec, 2)
			if err == nil {
				if repo, err = gitbench.Init(c, "/repo", "/src"); err == nil {
					_, err = repo.Add(c)
				}
			}
			return c, err
		}, func(tc fsapi.Client) error {
			_, err := repo.Commit(tc, "bench")
			return err
		}, func(c fsapi.Client) error { return repo.Undo(c) }},
	}

	med, err := bench.Medians([]string{*fsName}, func(fsName string) ([]float64, error) {
		var vals []float64
		for _, r := range rows {
			c, err := r.volume(fsName)
			if err != nil {
				return nil, err
			}
			tc := bench.NewTimedClient(c)
			p, err := bench.RunPasses(func() error { return r.pass(tc) }, func() error { return r.undo(c) })
			if err != nil {
				return nil, err
			}
			app, cp, fst := tc.Breakdown(p.Total)
			n := float64(p.N)
			vals = append(vals, float64(app)/n, float64(cp)/n, float64(fst)/n, n)
		}
		return vals, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Execution-time breakdown for %s (Table 1 / Fig 10)\n", *fsName)
	fmt.Fprintf(w, "%-12s %14s %14s %14s %8s\n", "workload", "application", "data copy", "file system", "passes")
	for i, r := range rows {
		v := med[*fsName][4*i : 4*i+4]
		total := max(v[0]+v[1]+v[2], 1)
		fmt.Fprintf(w, "%-12s %13.2f%% %13.2f%% %13.2f%% %8.0f\n", r.name, 100*v[0]/total, 100*v[1]/total, 100*v[2]/total, v[3])
	}
	return nil
}

// runTar draws Fig 11. A system's point is a pack window and an unpack
// window (bench.RunPasses) over one corpus; each rate is of the median
// pass.
func runTar(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tar", flag.ExitOnError)
	scale := fs.Int("scale", 2, "corpus scale factor")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		// The corpus, its archive and its unpacked copy.
		c, err := corpusVolume(fsName, corpus.LinuxLike(*scale), 3)
		if err != nil {
			return nil, err
		}
		var vals, passes []float64
		for _, op := range []struct {
			run  func(fsapi.Client) (tarbench.Result, error)
			undo func(fsapi.Client) error
		}{{tarbench.Pack, tarbench.UndoPack}, {tarbench.Unpack, tarbench.UndoUnpack}} {
			r, n, err := passRate(func() (uint64, error) {
				res, err := op.run(c)
				return res.Bytes, err
			}, func() error { return op.undo(c) })
			if err != nil {
				return nil, err
			}
			vals, passes = append(vals, r/(1<<20)), append(passes, n)
		}
		return append(vals, passes...), nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 11: tar throughput (MiB/s, median pass of a %v window; passes per window)\n", bench.PassWindow)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "fs", "pack", "unpack", "pack-n", "unpack-n")
	for _, name := range names {
		v := med[name]
		fmt.Fprintf(w, "%-12s %12.1f %12.1f %12.0f %12.0f\n", name, v[0], v[1], v[2], v[3])
	}
	return nil
}

// runGit draws Fig 12. A system's point is an add, a commit and a reset
// window (bench.RunPasses) over one corpus, each pass undone before the
// next; the work tree is deleted between commit and reset, as in the
// paper. Each rate is of the median pass.
func runGit(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("git", flag.ExitOnError)
	scale := fs.Int("scale", 2, "corpus scale factor")
	fsList := fs.String("fs", "all", "file systems")
	fs.Parse(args)
	names := parseFS(*fsList)
	med, err := bench.Medians(names, func(fsName string) ([]float64, error) {
		// The corpus and its objects; a reset restores into the deleted
		// work tree's space.
		c, err := corpusVolume(fsName, corpus.LinuxLike(*scale), 2)
		if err != nil {
			return nil, err
		}
		repo, err := gitbench.Init(c, "/repo", "/src")
		if err != nil {
			return nil, err
		}
		var vals, passes []float64
		for i, op := range []func() (gitbench.Result, error){
			func() (gitbench.Result, error) { return repo.Add(c) },
			func() (gitbench.Result, error) { return repo.Commit(c, "bench") },
			func() (gitbench.Result, error) { return repo.Reset(c) },
		} {
			if i == 2 {
				if err := repo.DeleteWorkTree(c); err != nil {
					return nil, err
				}
			}
			r, n, err := passRate(func() (uint64, error) {
				res, err := op()
				return res.Files, err
			}, func() error { return repo.Undo(c) })
			if err != nil {
				return nil, err
			}
			vals, passes = append(vals, r), append(passes, n)
		}
		return append(vals, passes...), nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Fig 12: git throughput (files/s, median pass of a %v window; passes per window)\n", bench.PassWindow)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %12s %12s\n", "fs", "add", "commit", "reset", "add-n", "commit-n", "reset-n")
	for _, name := range names {
		v := med[name]
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n", name, v[0], v[1], v[2], v[3], v[4], v[5])
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
		{runYCSB, []string{"-records", "3000", "-duration", "500ms"}},
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
