package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// Torn-crash testing: CrashPartial lets an arbitrary subset of unfenced
// cache lines reach the media (as real hardware may, through cache
// eviction). The Figure 5 protocols must produce a recoverable state for
// EVERY such subset, not just the strict all-or-nothing crash.

func TestTornCrashRecoveryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		dev := pmem.New(32 << 20)
		fs, err := Format(dev, fsapi.Root, Options{LineLockTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := fs.Attach(fsapi.Root)
		c.Mkdir("/d1", 0o755)
		c.Mkdir("/d2", 0o755)
		live := map[string][]byte{}
		for i := 0; i < 20; i++ {
			p := fmt.Sprintf("/d1/f%d", i)
			data := make([]byte, rng.Intn(3000))
			rng.Read(data)
			fd, _ := c.Create(p, 0o644)
			c.Write(fd, data)
			c.Close(fd)
			live[p] = data
		}
		dev.SetMode(pmem.ModeTracked)

		// Stop at a random fence, then run random ops until one stops.
		fence := 1 + rng.Intn(150)
		dev.StopAt(dev.Stats.Fences.Load() + uint64(fence))
		stopped := false
		stops := func(f func() error) (err error) {
			stopped = pmem.Run(func() { err = f() })
			return err
		}
		for i := 0; i < 40 && !stopped; i++ {
			switch op := rng.Intn(4); op {
			case 0:
				p := fmt.Sprintf("/d1/n%d", i)
				if err := stops(func() error { _, err := c.Create(p, 0o644); return err }); err == nil && !stopped {
					live[p] = nil
				}
			case 1:
				for p := range live {
					if err := stops(func() error { return c.Unlink(p) }); err == nil {
						delete(live, p)
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
					data := live[p]
					if err := stops(func() error { return c.Rename(p, np) }); err == nil {
						delete(live, p) // stopped: either name may survive
						if !stopped {
							live[np] = data
						}
					}
					break
				}
			}
		}
		dev.StopAt(0)
		// Torn power failure: unfenced lines persist with probability 1/2.
		dev.CrashPartial(rng)
		fs2, _, err := Mount(dev, Options{LineLockTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatalf("trial %d (fence %d): mount after torn crash: %v", trial, fence, err)
		}
		c2, _ := fs2.Attach(fsapi.Root)
		// Invariant 1: every file known to be durable is intact, content
		// included (its writes were fenced before the crash window).
		for p, data := range live {
			st, err := c2.Stat(p)
			if err != nil {
				t.Fatalf("trial %d (fence %d): %s lost after torn crash: %v", trial, fence, p, err)
			}
			if data != nil {
				if st.Size != uint64(len(data)) {
					t.Fatalf("trial %d (fence %d): %s size %d, want %d", trial, fence, p, st.Size, len(data))
				}
				fd, err := c2.Open(p, fsapi.ORdonly, 0)
				if err != nil {
					t.Fatalf("trial %d: open %s: %v", trial, p, err)
				}
				buf := make([]byte, len(data))
				c2.Pread(fd, buf, 0)
				for i := range data {
					if buf[i] != data[i] {
						t.Fatalf("trial %d (fence %d): %s byte %d corrupted", trial, fence, p, i)
					}
				}
				c2.Close(fd)
			}
		}
		// Invariant 2: directories listable; every listed entry statable.
		for _, dir := range []string{"/", "/d1", "/d2"} {
			ents, err := c2.ReadDir(dir)
			if err != nil {
				t.Fatalf("trial %d (fence %d): readdir %s: %v", trial, fence, dir, err)
			}
			for _, e := range ents {
				if _, err := c2.Stat(dir + "/" + e.Name); err != nil {
					t.Fatalf("trial %d (fence %d): listed %s/%s not statable: %v",
						trial, fence, dir, e.Name, err)
				}
			}
		}
		// Invariant 3: the volume still works after recovery.
		if _, err := c2.Create("/d2/post", 0o644); err != nil {
			t.Fatalf("trial %d (fence %d): create after torn recovery: %v", trial, fence, err)
		}
	}
}

func TestTornCrashDuringWritesNeverTearsFencedData(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 10; trial++ {
		dev := pmem.New(16 << 20)
		fs, err := Format(dev, fsapi.Root, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := fs.Attach(fsapi.Root)
		fd, _ := c.Open("/data", fsapi.OCreate|fsapi.ORdwr, 0o644)
		committed := make([]byte, 32768)
		rng.Read(committed)
		c.Pwrite(fd, committed, 0) // fenced by the write path
		dev.SetMode(pmem.ModeTracked)
		// Overwrite region [8k,16k) but die at one of its two fences: before
		// the data is ordered, or before the size and times are.
		dev.StopAt(dev.Stats.Fences.Load() + 1 + uint64(rng.Intn(2)))
		newData := make([]byte, 8192)
		rng.Read(newData)
		if !pmem.Run(func() { c.Pwrite(fd, newData, 8192) }) {
			t.Fatalf("trial %d: the pwrite did not stop", trial)
		}
		dev.StopAt(0)
		dev.CrashPartial(rng)
		fs2, _, err := Mount(dev, Options{})
		if err != nil {
			t.Fatalf("trial %d: mount after torn write: %v", trial, err)
		}
		c2, _ := fs2.Attach(fsapi.Root)
		st2, err := c2.Stat("/data")
		if err != nil || st2.Size != 32768 {
			t.Fatalf("trial %d: stat = (%+v, %v)", trial, st2, err)
		}
		// Every 64-byte line of the torn region holds either the old or the
		// new bytes — never invented data. Regions outside are untouched.
		fd2, _ := c2.Open("/data", fsapi.ORdonly, 0)
		got := make([]byte, 32768)
		c2.Pread(fd2, got, 0)
		for off := 0; off < 32768; off += 64 {
			oldLine := committed[off : off+64]
			var newLine []byte
			if off >= 8192 && off < 16384 {
				newLine = newData[off-8192 : off-8192+64]
			}
			if bytesEqual(got[off:off+64], oldLine) {
				continue
			}
			if newLine != nil && bytesEqual(got[off:off+64], newLine) {
				continue
			}
			t.Fatalf("trial %d: line at %d is neither old nor new data", trial, off)
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
