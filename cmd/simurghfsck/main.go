// Command simurghfsck inspects and repairs Simurgh volume images. The
// Simurgh library includes a dedicated recovery entry point (§5.5); this
// tool drives it offline:
//
//	simurghfsck -image vol.img             check/repair an image in place
//	simurghfsck -image vol.img -dump       also list the directory tree
//	simurghfsck -demo vol.img [-size N]    create a demo image containing a
//	                                       crashed volume, then repair it
//
// Images are created with simurgh.Volume.Device().WriteTo (see the
// crashrecovery example).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// toDelta maps the device counter snapshot into the obs traffic type.
func toDelta(s pmem.StatsSnapshot) obs.Delta {
	return obs.Delta{
		LoadBytes:  s.LoadBytes,
		StoreBytes: s.StoreBytes,
		NTBytes:    s.NTBytes,
		Flushes:    s.Flushes,
		Fences:     s.Fences,
	}
}

func main() {
	image := flag.String("image", "", "volume image to check and repair")
	dump := flag.Bool("dump", false, "list the directory tree after repair")
	demo := flag.String("demo", "", "write a demo image of a volume that lost power mid-unlink to this path")
	size := flag.Uint64("size", 256<<20, "demo volume size in bytes")
	flag.Parse()

	switch {
	case *demo != "":
		if err := makeDemo(*demo, *size); err != nil {
			fmt.Fprintln(os.Stderr, "simurghfsck:", err)
			os.Exit(1)
		}
	case *image != "":
		if err := check(*image, *dump); err != nil {
			fmt.Fprintln(os.Stderr, "simurghfsck:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func makeDemo(path string, size uint64) error {
	dev := pmem.New(size)
	fs, err := core.Format(dev, fsapi.Root, core.Options{})
	if err != nil {
		return err
	}
	c, _ := fs.Attach(fsapi.Root)
	if err := c.Mkdir("/project", 0o755); err != nil {
		return err
	}
	if _, err := corpus.Generate(c, "/project", corpus.LinuxLike(1)); err != nil {
		return err
	}
	// Cut the power in the middle of an unlink: at its second fence, after
	// the first has made the entry's invalidation durable. The slot still
	// points at the entry and the inode survives, exactly the state §4.3
	// recovers from.
	dev.SetMode(pmem.ModeTracked)
	dev.StopAt(dev.Stats.Fences.Load() + 2)
	if !pmem.Run(func() { c.Unlink("/project/file_0_0.c") }) {
		return fmt.Errorf("the unlink ran to completion")
	}
	dev.StopAt(0)
	dev.Crash()
	// No Unmount: the image is dirty on purpose.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := dev.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("wrote dirty demo image to %s (crashed mid-unlink)\n", path)
	return nil
}

func check(path string, dump bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	dev, err := pmem.ReadImage(f)
	f.Close()
	if err != nil {
		return err
	}
	// Each fsck stage is reported as an obs.Phase: the same diffable
	// counter-snapshot types the live file system exposes, with the stage's
	// NVMM traffic attributed from the device counter delta.
	base := dev.StatsSnapshot()
	fs, stats, err := core.Mount(dev, core.Options{})
	if err != nil {
		return err
	}
	recoverPmem := dev.StatsSnapshot().Sub(base)

	base = dev.StatsSnapshot()
	auditStart := time.Now()
	free := fs.FreeBlocks()
	maint := fs.Maintain()
	auditElapsed := time.Since(auditStart)
	auditPmem := dev.StatsSnapshot().Sub(base)

	state := "dirty (recovery performed)"
	if stats.WasClean {
		state = "clean"
	}
	fmt.Printf("volume: %s, %d bytes\n", state, dev.Size())
	obs.WritePhases(os.Stdout, []obs.Phase{
		{
			Name:    "recover",
			Elapsed: stats.Elapsed,
			Counters: []obs.Counter{
				{Name: "files", Value: stats.Files},
				{Name: "dirs", Value: stats.Dirs},
				{Name: "symlinks", Value: stats.Symlinks},
				{Name: "dir-blocks", Value: stats.DirBlocks},
				{Name: "fixed-slots", Value: stats.FixedSlots},
				{Name: "fixed-creates", Value: stats.FixedCreates},
				{Name: "fixed-renames", Value: stats.FixedRenames},
				{Name: "fixed-logs", Value: stats.FixedLogs},
				{Name: "fixed-links", Value: stats.FixedLinks},
				{Name: "reclaimed", Value: stats.Reclaimed},
			},
			Pmem: toDelta(recoverPmem),
		},
		{
			Name:    "audit",
			Elapsed: auditElapsed,
			Counters: []obs.Counter{
				{Name: "used-blocks", Value: stats.UsedDataBlock},
				{Name: "free-blocks", Value: free},
				{Name: "dirs-visited", Value: maint.DirsVisited},
				{Name: "blocks-compacted", Value: maint.BlocksFreed},
			},
			Pmem: toDelta(auditPmem),
		},
	})
	if dump {
		c, _ := fs.Attach(fsapi.Root)
		dumpTree(c, "/", 0)
	}
	fs.Unmount()
	// Write the repaired image back.
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	_, err = dev.WriteTo(out)
	return err
}

func dumpTree(c fsapi.Client, path string, depth int) {
	if depth > 8 {
		return
	}
	ents, err := c.ReadDir(path)
	if err != nil {
		return
	}
	for _, e := range ents {
		p := path + "/" + e.Name
		if path == "/" {
			p = "/" + e.Name
		}
		for i := 0; i < depth; i++ {
			fmt.Print("  ")
		}
		if fsapi.IsDir(e.Mode) {
			fmt.Printf("%s/\n", e.Name)
			dumpTree(c, p, depth+1)
		} else {
			st, _ := c.Stat(p)
			fmt.Printf("%s (%d bytes)\n", e.Name, st.Size)
		}
	}
}
