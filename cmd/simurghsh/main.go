// Command simurghsh is an interactive shell over a Simurgh volume — handy
// for poking at the file system, inspecting recovery behaviour, and demos.
//
//	simurghsh                      fresh in-memory volume
//	simurghsh -image vol.img       open (and on exit save) an image file
//	simurghsh -metrics host:port   also serve live metrics over HTTP
//	simurghsh -connect host:port   drive a remote simurghd volume instead
//	simurghsh -route host:port     drive a sharded cluster through the router
//	simurghsh -promote host:port   promote a backup simurghd to primary
//	simurghsh trace merge <out> <in...>   one-shot: merge Chrome trace dumps
//	simurghsh shards <addr>               one-shot: print the live shard map
//	simurghsh migrate <seed> <id> <tgt,...>  one-shot: live-migrate a shard
//
// Commands: ls [path], cat <file>, write <file> <text...>, append <file>
// <text...>, mkdir <dir>, rm <file>, rmdir <dir>, mv <old> <new>,
// ln -s <target> <link>, ln <old> <new>, stat <path>, chmod <perm> <path>,
// tree [path], df, stats [reset], trace <on [n]|off|dump <file>|merge
// <out> <in...>>, slow <on <dur> [n]|off|show|dump <file>>, crashdemo,
// su <uid> <gid>, help, exit.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/export"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
	"simurgh/internal/shard"
	"simurgh/internal/wire/client"
)

func main() {
	image := flag.String("image", "", "volume image to open and save on exit")
	size := flag.Uint64("size", 256<<20, "volume size for fresh volumes")
	metrics := flag.String("metrics", "", "serve live metrics on this host:port (e.g. 127.0.0.1:9180)")
	connect := flag.String("connect", "", "drive a remote simurghd at this host:port instead of a local volume")
	route := flag.String("route", "", "drive a sharded cluster through the client router, seeded at this host:port")
	promote := flag.String("promote", "", "tell the simurghd at this host:port to become the replication primary, then exit")
	flag.Parse()

	// `simurghsh trace merge <out> <in...>` runs one-shot: it only touches
	// local dump files, so it needs neither a volume nor a connection.
	if flag.NArg() >= 2 && flag.Arg(0) == "trace" && flag.Arg(1) == "merge" {
		if err := traceMerge(flag.Args()[2:]); err != nil {
			fatal(err)
		}
		return
	}

	// `simurghsh shards <addr>` and `simurghsh migrate <seed> <id> <tgt,...>`
	// are one-shot cluster control commands.
	if flag.NArg() >= 1 && flag.Arg(0) == "shards" {
		if err := printShards(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "migrate" {
		if err := migrateShard(flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}

	if *promote != "" {
		epoch, err := shard.PromoteNode(*promote, 5*time.Second)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s promoted: epoch %d\n", *promote, epoch)
		return
	}

	if *route != "" {
		if *image != "" || *metrics != "" || *connect != "" {
			fatal(fmt.Errorf("-route is exclusive with -image, -metrics and -connect"))
		}
		rt, err := client.DialRouter(*route, client.RouterOptions{})
		if err != nil {
			fatal(err)
		}
		cred := fsapi.Root
		c, err := rt.Attach(cred)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("routing %s via %s\n", rt.Name(), *route)
		sh := &shell{fsys: rt, c: c, cred: cred, reg: obs.NewRegistry()}
		repl(sh)
		c.Detach()
		rt.Close()
		return
	}

	if *connect != "" {
		if *image != "" || *metrics != "" {
			fatal(fmt.Errorf("-connect is exclusive with -image and -metrics (those need a local volume)"))
		}
		// The shell is a distributed-tracing participant: its registry
		// records the client-side spans, and with TraceSample 1 every
		// interactive operation carries a trace context once `trace on`
		// arms the recorder (the server ignores it until then — sampling
		// requires an enabled recorder).
		reg := obs.NewRegistry()
		reg.SetNode("simurghsh")
		remote, err := client.Dial(*connect, client.Options{Obs: reg, TraceSample: 1})
		if err != nil {
			fatal(err)
		}
		cred := fsapi.Root
		c, err := remote.Attach(cred)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("connected to %s at %s\n", remote.Name(), *connect)
		sh := &shell{fsys: remote, c: c, cred: cred, reg: reg}
		repl(sh)
		c.Detach()
		remote.Close()
		return
	}

	// The shell is interactive, so sample every operation: exact latency
	// and NVMM attribution matter more than per-call overhead here.
	reg := obs.NewRegistry()
	reg.SetSamplePeriod(1)

	var dev *pmem.Device
	var fs *core.FS
	if *image != "" {
		if f, err := os.Open(*image); err == nil {
			d, err := pmem.ReadImage(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			mounted, stats, err := core.Mount(d, core.Options{Obs: reg})
			if err != nil {
				fatal(err)
			}
			if !stats.WasClean {
				fmt.Printf("recovered unclean volume in %v (%d repairs)\n",
					stats.Elapsed, stats.FixedSlots+stats.FixedCreates+stats.FixedRenames+stats.FixedLogs)
			}
			dev, fs = d, mounted
		}
	}
	if fs == nil {
		dev = pmem.New(*size)
		formatted, err := core.Format(dev, fsapi.Root, core.Options{Obs: reg})
		if err != nil {
			fatal(err)
		}
		fs = formatted
	}

	if *metrics != "" {
		srv, err := export.Serve(*metrics, fs.Stats, nil, reg, export.Options{})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics on %s  (/metrics /stats.json /trace.json /slow.json)\n", srv.URL)
	}

	cred := fsapi.Root
	c, _ := fs.Attach(cred)
	sh := &shell{fsys: fs, fs: fs, dev: dev, c: c, cred: cred, reg: reg, base: fs.Stats()}
	repl(sh)
	fs.Unmount()
	if *image != "" {
		f, err := os.Create(*image)
		if err != nil {
			fatal(err)
		}
		dev.WriteTo(f)
		f.Close()
		fmt.Printf("saved volume to %s\n", *image)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simurghsh:", err)
	os.Exit(1)
}

// repl runs the interactive loop until EOF or exit.
func repl(sh *shell) {
	fmt.Println("simurghsh — type 'help' for commands, 'exit' to quit")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("simurgh[uid=%d]> ", sh.cred.UID)
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			break
		}
		sh.exec(line)
	}
}

type shell struct {
	fsys fsapi.FileSystem // what su re-attaches through (local or remote)
	fs   *core.FS         // nil when driving a remote volume over -connect
	dev  *pmem.Device
	c    fsapi.Client
	cred fsapi.Cred
	reg  *obs.Registry // volume registry locally; client-side registry over -connect
	base obs.Snapshot  // stats baseline; `stats reset` moves it
}

// errRemote reports commands that need the volume in-process.
func errRemote(cmd string) error {
	return fmt.Errorf("%s needs a local volume (not available over -connect)", cmd)
}

func (s *shell) exec(line string) {
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "help":
		fmt.Println("ls cat write append mkdir rm rmdir mv ln stat chmod tree df stats trace slow maintain crashdemo su exit")
	case "ls":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		var ents []fsapi.DirEntry
		ents, err = s.c.ReadDir(path)
		for _, e := range ents {
			kind := "-"
			if fsapi.IsDir(e.Mode) {
				kind = "d"
			} else if fsapi.IsSymlink(e.Mode) {
				kind = "l"
			}
			fmt.Printf("%s %04o  %s\n", kind, e.Mode&fsapi.ModePermMask, e.Name)
		}
	case "cat":
		if len(rest) < 1 {
			err = errUsage("cat <file>")
			break
		}
		var fd fsapi.FD
		fd, err = s.c.Open(rest[0], fsapi.ORdonly, 0)
		if err != nil {
			break
		}
		buf := make([]byte, 64<<10)
		for {
			n, rerr := s.c.Read(fd, buf)
			if n > 0 {
				os.Stdout.Write(buf[:n])
			}
			if rerr != nil || n == 0 {
				break
			}
		}
		fmt.Println()
		s.c.Close(fd)
	case "write", "append":
		if len(rest) < 2 {
			err = errUsage(cmd + " <file> <text...>")
			break
		}
		flags := fsapi.OCreate | fsapi.OWronly
		if cmd == "append" {
			flags |= fsapi.OAppend
		} else {
			flags |= fsapi.OTrunc
		}
		var fd fsapi.FD
		fd, err = s.c.Open(rest[0], flags, 0o644)
		if err != nil {
			break
		}
		_, err = s.c.Write(fd, []byte(strings.Join(rest[1:], " ")+"\n"))
		s.c.Close(fd)
	case "mkdir":
		if len(rest) < 1 {
			err = errUsage("mkdir <dir>")
			break
		}
		err = s.c.Mkdir(rest[0], 0o755)
	case "rm":
		if len(rest) < 1 {
			err = errUsage("rm <file>")
			break
		}
		err = s.c.Unlink(rest[0])
	case "rmdir":
		if len(rest) < 1 {
			err = errUsage("rmdir <dir>")
			break
		}
		err = s.c.Rmdir(rest[0])
	case "mv":
		if len(rest) < 2 {
			err = errUsage("mv <old> <new>")
			break
		}
		err = s.c.Rename(rest[0], rest[1])
	case "ln":
		switch {
		case len(rest) == 3 && rest[0] == "-s":
			err = s.c.Symlink(rest[1], rest[2])
		case len(rest) == 2:
			err = s.c.Link(rest[0], rest[1])
		default:
			err = errUsage("ln [-s] <target> <link>")
		}
	case "stat":
		if len(rest) < 1 {
			err = errUsage("stat <path>")
			break
		}
		var st fsapi.Stat
		st, err = s.c.Stat(rest[0])
		if err == nil {
			fmt.Printf("inode %#x  mode %o  uid/gid %d/%d  nlink %d  size %d\n",
				st.Ino, st.Mode, st.UID, st.GID, st.Nlink, st.Size)
		}
	case "chmod":
		if len(rest) < 2 {
			err = errUsage("chmod <octal-perm> <path>")
			break
		}
		var perm uint64
		perm, err = strconv.ParseUint(rest[0], 8, 32)
		if err == nil {
			err = s.c.Chmod(rest[1], uint32(perm))
		}
	case "tree":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		s.tree(path, 0)
	case "df":
		if s.fs == nil {
			err = errRemote(cmd)
			break
		}
		free := s.fs.FreeBlocks()
		total := s.dev.Size() / core.BlockSize
		fmt.Printf("%d / %d blocks free (%.1f%%)\n", free, total, 100*float64(free)/float64(total))
	case "stats":
		if s.fs == nil {
			err = errRemote(cmd)
			break
		}
		if len(rest) > 0 && rest[0] == "reset" {
			s.base = s.fs.Stats()
			fmt.Println("stats baseline reset")
			break
		}
		s.fs.Stats().Sub(s.base).WriteTable(os.Stdout)
	case "trace":
		// `trace merge` operates on dump files alone. The other verbs
		// drive this process's registry: the volume's locally, the
		// client-side recorder over -connect (dump it and merge with the
		// servers' /trace.json for the cross-node timeline).
		if len(rest) > 0 && rest[0] == "merge" {
			err = traceMerge(rest[1:])
			break
		}
		err = s.trace(rest)
	case "slow":
		err = s.slow(rest)
	case "maintain":
		if s.fs == nil {
			err = errRemote(cmd)
			break
		}
		st := s.fs.Maintain()
		fmt.Printf("visited %d dirs, freed %d hash blocks\n", st.DirsVisited, st.BlocksFreed)
	case "crashdemo":
		if s.fs == nil {
			err = errRemote(cmd)
			break
		}
		err = s.crashDemo()
	case "su":
		if len(rest) < 2 {
			err = errUsage("su <uid> <gid>")
			break
		}
		uid, e1 := strconv.Atoi(rest[0])
		gid, e2 := strconv.Atoi(rest[1])
		if e1 != nil || e2 != nil {
			err = errUsage("su <uid> <gid>")
			break
		}
		s.cred = fsapi.Cred{UID: uint32(uid), GID: uint32(gid)}
		s.c, err = s.fsys.Attach(s.cred)
	default:
		err = fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	if err != nil {
		fmt.Println("error:", err)
	}
}

// crashDemo kills a create mid-flight and shows the next access completing
// it (recovery-on-access, §4.3). The device stops the create at its last
// fence, the one that commits the entry its slot already links: a process
// death, so the line's busy bit stays held too. A probe create of the same
// shape counts the fences first.
func (s *shell) crashDemo() error {
	const name = "/crashdemo-file"
	flags := fsapi.OCreate | fsapi.OWronly
	base := s.dev.Stats.Fences.Load()
	fd, err := s.c.Open("/crashdemo-probe", flags, 0o644)
	if err != nil {
		return err
	}
	n := s.dev.Stats.Fences.Load() - base
	if err := s.c.Close(fd); err != nil {
		return err
	}
	if err := s.c.Unlink("/crashdemo-probe"); err != nil {
		return err
	}
	s.dev.SetMode(pmem.ModeTracked)
	s.dev.StopAt(s.dev.Stats.Fences.Load() + n)
	stopped := pmem.Run(func() { s.c.Open(name, flags, 0o644) })
	s.dev.StopAt(0)
	s.dev.SetMode(pmem.ModeFast)
	if !stopped {
		return fmt.Errorf("the create of %s ran to completion (does it exist already?)", name)
	}
	fmt.Printf("create of %s stopped at its fence %d of %d (process death)\n", name, n, n)
	fmt.Println("the next access completes it (recovery-on-access):")
	st, err := s.c.Stat(name)
	if err != nil {
		return err
	}
	fmt.Printf("  %s exists, inode %#x\n", name, st.Ino)
	return nil
}

// trace drives the flight recorder: `trace on [spans]` arms it,
// `trace off` disarms it, `trace dump <file>` writes the recorded spans
// as Chrome trace-event JSON for ui.perfetto.dev.
func (s *shell) trace(rest []string) error {
	if len(rest) == 0 {
		return errUsage("trace <on [spans]|off|dump <file>>")
	}
	reg := s.reg
	switch rest[0] {
	case "on":
		capacity := 4096
		if len(rest) > 1 {
			n, err := strconv.Atoi(rest[1])
			if err != nil || n <= 0 {
				return errUsage("trace on [spans]")
			}
			capacity = n
		}
		reg.EnableTrace(capacity)
		fmt.Printf("flight recorder on (%d spans)\n", capacity)
	case "off":
		reg.EnableTrace(0)
		fmt.Println("flight recorder off")
	case "dump":
		if len(rest) < 2 {
			return errUsage("trace dump <file>")
		}
		f, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		if err := reg.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s — open it in ui.perfetto.dev or chrome://tracing\n", rest[1])
	default:
		return errUsage("trace <on [spans]|off|dump <file>|merge <out> <in...>>")
	}
	return nil
}

// traceMerge combines several nodes' Chrome trace dumps (client, primary,
// backup) into one timeline file: distributed spans line up side by side
// in ui.perfetto.dev, linked by the trace ID in each span's args.
func traceMerge(rest []string) error {
	if len(rest) < 2 {
		return errUsage("trace merge <out> <in...>")
	}
	dumps := make([][]byte, 0, len(rest)-1)
	for _, name := range rest[1:] {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		dumps = append(dumps, b)
	}
	var buf bytes.Buffer
	if err := obs.MergeChromeTraces(&buf, dumps...); err != nil {
		return err
	}
	if err := os.WriteFile(rest[0], buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged %d dumps into %s — open it in ui.perfetto.dev\n", len(dumps), rest[0])
	return nil
}

// slow drives the slow-operation log: `slow on <threshold> [n]` arms it,
// `slow off` disarms it, `slow show` prints the ring, `slow dump <file>`
// writes it as JSON (the same document /slow.json serves).
func (s *shell) slow(rest []string) error {
	usage := "slow <on <threshold> [entries]|off|show|dump <file>>"
	if len(rest) == 0 {
		return errUsage(usage)
	}
	reg := s.reg
	switch rest[0] {
	case "on":
		if len(rest) < 2 {
			return errUsage(usage)
		}
		d, err := time.ParseDuration(rest[1])
		if err != nil || d <= 0 {
			return errUsage("slow on <threshold> [entries]  (e.g. slow on 1ms)")
		}
		capacity := obs.DefaultSlowLogCapacity
		if len(rest) > 2 {
			n, err := strconv.Atoi(rest[2])
			if err != nil || n <= 0 {
				return errUsage(usage)
			}
			capacity = n
		}
		reg.SetSlowThreshold(d, capacity)
		fmt.Printf("slow log on: threshold %v, %d entries\n", d, capacity)
	case "off":
		reg.SetSlowThreshold(0, 0)
		fmt.Println("slow log off")
	case "show":
		ops := reg.SlowOps()
		if len(ops) == 0 {
			fmt.Println("slow log empty")
			break
		}
		fmt.Printf("%-14s %-10s %12s %18s\n", "span", "op", "latency", "trace")
		for _, op := range ops {
			trace := "-"
			if op.Trace != 0 {
				trace = fmt.Sprintf("%016x", op.Trace)
			}
			fmt.Printf("%-14s %-10s %12v %18s\n",
				op.Name(), op.Op.String(), time.Duration(op.LatNs), trace)
		}
	case "dump":
		if len(rest) < 2 {
			return errUsage("slow dump <file>")
		}
		f, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		if err := reg.WriteSlowJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", rest[1])
	default:
		return errUsage(usage)
	}
	return nil
}

func (s *shell) tree(path string, depth int) {
	ents, err := s.c.ReadDir(path)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, e := range ents {
		fmt.Printf("%s%s", strings.Repeat("  ", depth), e.Name)
		child := path + "/" + e.Name
		if path == "/" {
			child = "/" + e.Name
		}
		if fsapi.IsDir(e.Mode) {
			fmt.Println("/")
			if depth < 10 {
				s.tree(child, depth+1)
			}
		} else if fsapi.IsSymlink(e.Mode) {
			target, _ := s.c.Readlink(child)
			fmt.Printf(" -> %s\n", target)
		} else {
			st, _ := s.c.Stat(child)
			fmt.Printf(" (%d)\n", st.Size)
		}
	}
}

func errUsage(u string) error { return fmt.Errorf("usage: %s", u) }

// printShards fetches and pretty-prints the live shard map from a node.
func printShards(rest []string) error {
	if len(rest) < 1 {
		return errUsage("shards <addr>")
	}
	m, err := shard.FetchMapAny(strings.Split(rest[0], ","), 0)
	if err != nil {
		return err
	}
	fmt.Printf("shard map epoch %d (%d shards)\n", m.Epoch, len(m.Shards))
	fmt.Printf("%-5s %-12s %-10s %s\n", "ID", "PREFIX", "STATE", "ADDRS")
	for i := range m.Shards {
		sh := &m.Shards[i]
		prefix := sh.Prefix
		if prefix == "" {
			prefix = "(hash)"
		}
		fmt.Printf("%-5d %-12s %-10s %s\n", sh.ID, prefix, sh.State, strings.Join(sh.Addrs, ","))
	}
	return nil
}

// migrateShard live-migrates one shard to a new owner group.
func migrateShard(rest []string) error {
	if len(rest) < 3 {
		return errUsage("migrate <seed> <shard-id> <target-addr,...>")
	}
	id, err := strconv.ParseUint(rest[1], 10, 32)
	if err != nil {
		return errUsage("migrate <seed> <shard-id> <target-addr,...>")
	}
	m, err := shard.Migrate(strings.Split(rest[0], ","), uint32(id), strings.Split(rest[2], ","),
		shard.MigrateOptions{Logf: func(f string, a ...any) { fmt.Printf(f+"\n", a...) }})
	if err != nil {
		return err
	}
	fmt.Printf("shard %s now at %s (map epoch %d)\n", rest[1], rest[2], m.Epoch)
	return nil
}
