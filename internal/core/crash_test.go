package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// crashWorld creates a tracked device so power failures can be simulated,
// with a short line-lock timeout so waiter recovery triggers fast in tests.
func crashWorld(t *testing.T) (*pmem.Device, *FS, fsapi.Client) {
	t.Helper()
	dev := pmem.New(32 << 20)
	fs, err := Format(dev, fsapi.Root, Options{LineLockTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetMode(pmem.ModeTracked)
	c, _ := fs.Attach(fsapi.Root)
	return dev, fs, c
}

// remount simulates a full power failure + recovery mount.
func remount(t *testing.T, dev *pmem.Device) (*FS, *RecoveryStats, fsapi.Client) {
	t.Helper()
	dev.Crash()
	fs, stats, err := Mount(dev, Options{LineLockTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Attach(fsapi.Root)
	return fs, stats, c
}

func TestWaiterRecoversStuckLineDirectly(t *testing.T) {
	// A process dies holding a line busy bit with no pending operation: the
	// waiter must clear it and proceed.
	_, fs, c := crashWorld(t)
	c.Create("/a-file", 0o644)
	// Manually jam the line of a name we'll create next.
	first := fs.inoData(fs.rootInode)
	line := lineOf(fnv32("jammed-name"))
	fs.lockLine(first, line)
	done := make(chan error, 1)
	go func() {
		_, err := c.Create("/jammed-name", 0o644)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("create after stuck lock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered the stuck line lock")
	}
	s := fs.Stats()
	if s.Events[obs.EvLineLockTimeout] == 0 {
		t.Error("busy-flag timeout not counted")
	}
	if s.Events[obs.EvWaiterRecovery] == 0 {
		t.Error("waiter recovery not counted")
	}
}

// TestDeadWriterReleasesFileLock: a process that dies inside a write leaves
// the file's lock word held. The next reader and writer take it over once
// the timeout passes, and a later mount finds the word free.
func TestDeadWriterReleasesFileLock(t *testing.T) {
	const timeout = time.Millisecond
	oldData, newData := pattern(2*BlockSize, 1), pattern(BlockSize, 2)
	// deadWriter leaves a Pwrite past the end of an 8 KiB file stopped at its
	// first fence, and returns the file's inode.
	deadWriter := func(t *testing.T, opts Options) (*pmem.Device, *FS, pmem.Ptr) {
		t.Helper()
		dev := pmem.New(32 << 20)
		fs, err := Format(dev, fsapi.Root, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := fs.Attach(fsapi.Root)
		fd, err := openWith(c, "/f", oldData, fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		ino, err := c.(*Client).resolve("/f", true)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetMode(pmem.ModeTracked)
		dev.StopAt(dev.Stats.Fences.Load() + 1)
		if !pmem.Run(func() { c.Pwrite(fd, newData, uint64(len(oldData))) }) {
			t.Fatal("the write ran to completion")
		}
		dev.StopAt(0)
		return dev, fs, ino
	}

	t.Run("survivor", func(t *testing.T) {
		_, fs, _ := deadWriter(t, Options{LineLockTimeout: timeout})
		c, _ := fs.Attach(fsapi.Root)
		fd, err := c.Open("/f", fsapi.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4*BlockSize)
		done := make(chan error, 2)
		go func() {
			n, err := c.Pread(fd, buf, 0)
			if n != len(oldData) && n != len(oldData)+len(newData) {
				err = fmt.Errorf("read %d bytes (%v), want a size of %d or %d", n, err, len(oldData), len(oldData)+len(newData))
			} else if !bytes.Equal(buf[:len(oldData)], oldData) || !bytes.Equal(buf[len(oldData):n], newData[:n-len(oldData)]) {
				err = fmt.Errorf("read bytes that are neither old nor new")
			} else {
				err = nil
			}
			done <- err
			_, err = c.Pwrite(fd, newData, 0)
			done <- err
		}()
		wait := time.After(100 * timeout)
		for returned := 0; returned < 2; returned++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-wait:
				t.Fatalf("survivor still blocked after %v (%d of 2 returned)", 100*timeout, returned)
			}
		}
		s := fs.Stats()
		if s.Events[obs.EvFileLockTimeout] == 0 || s.LockWaits[obs.LockFile].Waits == 0 {
			t.Errorf("takeover not counted: %d file-lock timeouts, %d file-lock waits",
				s.Events[obs.EvFileLockTimeout], s.LockWaits[obs.LockFile].Waits)
		}
	})

	// A mount frees the word: after a power failure, and on a backup that
	// mounts a snapshot cut while the word was held.
	opts := Options{LineLockTimeout: 10 * time.Second}
	for _, how := range []string{"crash", "snapshot"} {
		t.Run(how, func(t *testing.T) {
			dev, _, ino := deadWriter(t, opts)
			// The held word reaches the media, as an evicted line would.
			dev.Persist(uint64(ino)+inoLockOff, 8)
			if how == "crash" {
				dev.Crash()
			} else {
				var img bytes.Buffer
				if _, err := dev.WriteTo(&img); err != nil {
					t.Fatal(err)
				}
				var err error
				if dev, err = pmem.ReadImage(&img); err != nil {
					t.Fatal(err)
				}
			}
			if dev.Load64(uint64(ino)+inoLockOff)&fileWriter == 0 {
				t.Fatal("the image does not hold the dead writer's lock word")
			}
			fs, _, err := Mount(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := fs.Attach(fsapi.Root)
			fd, err := c.Open("/f", fsapi.ORdwr, 0)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := c.Pwrite(fd, newData, 0); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el > 100*time.Millisecond {
				t.Errorf("pwrite took %v after the mount", el)
			}
			if n := fs.Stats().Events[obs.EvFileLockTimeout]; n != 0 {
				t.Errorf("%d file-lock timeouts after the mount, want 0", n)
			}
		})
	}
}

func TestFullCrashRecoveryPreservesTree(t *testing.T) {
	// Build a real tree, crash without unmounting, recover, verify
	// everything — including file contents.
	dev, fs, c := crashWorld(t)
	type file struct {
		path string
		data []byte
	}
	var files []file
	rng := rand.New(rand.NewSource(7))
	for d := 0; d < 5; d++ {
		dir := fmt.Sprintf("/dir%d", d)
		if err := c.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 20; f++ {
			p := fmt.Sprintf("%s/file%02d", dir, f)
			data := make([]byte, rng.Intn(20000))
			rng.Read(data)
			fd, err := c.Create(p, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(fd, data); err != nil {
				t.Fatal(err)
			}
			c.Close(fd)
			files = append(files, file{p, data})
		}
	}
	c.Symlink("/dir0/file00", "/link0")
	_ = fs

	_, stats, c2 := remount(t, dev)
	if stats.WasClean {
		t.Fatal("unclean crash reported as clean")
	}
	if stats.Dirs != 6 { // root + 5
		t.Fatalf("recovered dirs = %d, want 6", stats.Dirs)
	}
	if stats.Files != 100 {
		t.Fatalf("recovered files = %d, want 100", stats.Files)
	}
	if stats.Symlinks != 1 {
		t.Fatalf("recovered symlinks = %d, want 1", stats.Symlinks)
	}
	for _, f := range files {
		fd, err := c2.Open(f.path, fsapi.ORdonly, 0)
		if err != nil {
			t.Fatalf("open %s after crash: %v", f.path, err)
		}
		buf := make([]byte, len(f.data)+1)
		n, _ := c2.Pread(fd, buf, 0)
		if n != len(f.data) {
			t.Fatalf("%s: %d bytes after crash, want %d", f.path, n, len(f.data))
		}
		for i := 0; i < n; i++ {
			if buf[i] != f.data[i] {
				t.Fatalf("%s: byte %d corrupted", f.path, i)
			}
		}
		c2.Close(fd)
	}
}

func TestRandomizedCrashRecoveryNeverCorrupts(t *testing.T) {
	// Property-style fuzz: run random metadata operations with the device
	// stopped at a random fence, power-cycle, recover, and verify global
	// invariants (every surviving file statable, readable, directory
	// listable, recreate/unlink works).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		dev := pmem.New(32 << 20)
		fs, err := Format(dev, fsapi.Root, Options{LineLockTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := fs.Attach(fsapi.Root)
		c.Mkdir("/d1", 0o755)
		c.Mkdir("/d2", 0o755)
		live := map[string]bool{}
		for i := 0; i < 30; i++ {
			p := fmt.Sprintf("/d1/f%d", i)
			c.Create(p, 0o644)
			live[p] = true
		}
		dev.SetMode(pmem.ModeTracked)

		// Stop at a random fence, then run random ops until one stops.
		fence := 1 + rng.Intn(200)
		dev.StopAt(dev.Stats.Fences.Load() + uint64(fence))
		crashed := false
		stops := func(f func() error) (err error) {
			crashed = pmem.Run(func() { err = f() })
			return err
		}
		for i := 0; i < 60 && !crashed; i++ {
			switch op := rng.Intn(4); op {
			case 0:
				p := fmt.Sprintf("/d1/n%d", i)
				if err := stops(func() error { _, err := c.Create(p, 0o644); return err }); err == nil && !crashed {
					live[p] = true
				}
			case 1:
				for p := range live {
					if err := stops(func() error { return c.Unlink(p) }); err == nil {
						delete(live, p) // stopped: outcome unknown, dropped from the model
					}
					break
				}
			case 2, 3:
				dir := "/d1/r"
				if op == 3 {
					dir = "/d2/x"
				}
				for p := range live {
					np := fmt.Sprintf("%s%d", dir, i)
					if err := stops(func() error { return c.Rename(p, np) }); err == nil {
						delete(live, p) // stopped: either name may survive
						if !crashed {
							live[np] = true
						}
					}
					break
				}
			}
		}

		dev.StopAt(0)
		dev.Crash()
		fs2, _, err := Mount(dev, Options{LineLockTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatalf("trial %d (fence %d): mount after crash: %v", trial, fence, err)
		}
		c2, _ := fs2.Attach(fsapi.Root)
		// Invariant 1: all files the model knows survived must be intact.
		for p := range live {
			if _, err := c2.Stat(p); err != nil {
				t.Fatalf("trial %d (fence %d): %s lost: %v", trial, fence, p, err)
			}
		}
		// Invariant 2: directories are listable and consistent with stat.
		for _, dir := range []string{"/", "/d1", "/d2"} {
			ents, err := c2.ReadDir(dir)
			if err != nil {
				t.Fatalf("trial %d (fence %d): readdir %s: %v", trial, fence, dir, err)
			}
			for _, e := range ents {
				if _, err := c2.Stat(dir + "/" + e.Name); err != nil {
					t.Fatalf("trial %d (fence %d): listed entry %s/%s not statable: %v",
						trial, fence, dir, e.Name, err)
				}
			}
		}
		// Invariant 3: the FS still works.
		if _, err := c2.Create("/d1/post-crash", 0o644); err != nil {
			t.Fatalf("trial %d (fence %d): create after recovery: %v", trial, fence, err)
		}
		if err := c2.Unlink("/d1/post-crash"); err != nil {
			t.Fatalf("trial %d (fence %d): unlink after recovery: %v", trial, fence, err)
		}
	}
}
func TestRecoveryStatsElapsed(t *testing.T) {
	dev, _, c := crashWorld(t)
	for i := 0; i < 50; i++ {
		c.Create(fmt.Sprintf("/f%d", i), 0o644)
	}
	_, stats, _ := remount(t, dev)
	if stats.Elapsed <= 0 {
		t.Fatal("recovery elapsed time not measured")
	}
	if stats.Files != 50 {
		t.Fatalf("files = %d", stats.Files)
	}
}
