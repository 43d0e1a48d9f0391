package main

import (
	"fmt"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// crashDurability is the untimed pass that keeps a dropped fence from
// winning the benchmark. On a tracked-mode arena — where only lines that were
// flushed or NT-stored and then fenced survive — one client runs sc.CrashOps
// seeded operations, the device loses power, the volume is mounted again,
// and the workload's own verification runs against what is left: every
// acknowledged write, fsync'd append and create must be readable, and the
// file whose unlink was the last call acknowledged must be gone. Read-only
// workloads have nothing to lose and are skipped.
func crashDurability(m *model, w workload) error {
	switch w := w.(type) {
	case *dataWorkload:
		if !w.write {
			return nil
		}
	case *mailWorkload:
	default:
		return nil
	}
	sc := m.sc
	sc.VolumeBytes, sc.DataBytes = sc.CrashVolume, sc.CrashData
	cm := newModel(m.seed, sc)
	cw, err := newWorkload(w.name(), cm)
	if err != nil {
		return err
	}
	fail := func(err error) error { return fmt.Errorf("crash-durability pass (%s): %w", w.name(), err) }

	dev := pmem.New(sc.VolumeBytes)
	fs, err := core.Format(dev, fsapi.Root, coreOptions)
	if err != nil {
		return fail(err)
	}
	setup, err := fs.Attach(fsapi.Root)
	if err != nil {
		return fail(err)
	}
	if err := cw.populate(setup, func(string) bool { return true }, 1); err != nil {
		return fail(err)
	}
	dev.SetMode(pmem.ModeTracked) // everything so far is durable; from here only fenced lines are

	fc, err := fs.Attach(fsapi.Root)
	if err != nil {
		return fail(err)
	}
	c, err := cw.newClient(0, 1, newCoreTarget(fc), cw.batch())
	if err != nil {
		return fail(err)
	}
	// Stop where an unlink has just been acknowledged (varmail) so its
	// durability is checked too; the batch workloads may stop anywhere.
	mc, _ := c.(*mailClient)
	stopHere := func() bool { return mc == nil || mc.state == mailCreate }
	for done := 0; done < sc.CrashOps || !stopHere(); {
		a, f := c.step()
		if f > 0 {
			return fail(fmt.Errorf("%d of %d operations failed before the crash", f, a))
		}
		done += a
	}

	dev.Crash()
	fs2, _, err := core.Mount(dev, coreOptions)
	if err != nil {
		return fail(fmt.Errorf("mount after crash: %w", err))
	}
	vc, err := fs2.Attach(fsapi.Root)
	if err != nil {
		return fail(err)
	}
	t := newCoreTarget(vc)
	if _, err := cw.verify(t, []worker{c}); err != nil {
		return fail(fmt.Errorf("after crash and remount: %w", err))
	}
	return nil
}
