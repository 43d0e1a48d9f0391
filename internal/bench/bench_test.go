package bench

import (
	"strings"
	"testing"
	"time"

	"simurgh/internal/fsapi"
)

func TestMakeFSAllVariants(t *testing.T) {
	names := append(append([]string{}, FSNames...), "simurgh-relaxed", "simurgh-syscall")
	for _, name := range names {
		fs, err := MakeFS(name, 64<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := fs.Attach(fsapi.Root)
		if err != nil {
			t.Fatalf("%s attach: %v", name, err)
		}
		if _, err := c.Create("/probe", 0o644); err != nil {
			t.Fatalf("%s create: %v", name, err)
		}
	}
	if _, err := MakeFS("btrfs", 64<<20); err == nil {
		t.Fatal("unknown fs accepted")
	}
}

func TestRunPointAndSweep(t *testing.T) {
	w := Workload{
		Name: "touch",
		Worker: func(fs fsapi.FileSystem, _ any, tid int, stop <-chan struct{}) (uint64, uint64, error) {
			c, _ := fs.Attach(fsapi.Root)
			var ops uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return ops, 0, nil
				default:
				}
				fd, err := c.Open("/", fsapi.ORdonly, 0)
				if err == nil {
					c.Close(fd)
				}
				// Root open is rejected for write; just stat instead.
				if _, err := c.Stat("/"); err != nil {
					return ops, 0, err
				}
				ops++
			}
		},
	}
	res, err := RunPoint(w, "simurgh", 32<<20, 2, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.OpsPerSec() <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	var all []Result
	for _, fsName := range []string{"simurgh", "nova"} {
		for _, th := range []int{1, 2} {
			r, err := RunPoint(w, fsName, 32<<20, th, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, r)
		}
	}
	var sb strings.Builder
	PrintSeries(&sb, "test", all, false)
	out := sb.String()
	if !strings.Contains(out, "simurgh") || !strings.Contains(out, "nova") {
		t.Fatalf("series output missing rows:\n%s", out)
	}
}

func TestDefaultThreads(t *testing.T) {
	ths := DefaultThreads()
	if len(ths) == 0 || ths[0] != 1 {
		t.Fatalf("threads = %v", ths)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] != ths[i-1]+1 {
			t.Fatalf("not consecutive: %v", ths)
		}
	}
	if ths[len(ths)-1] > 10 {
		t.Fatalf("exceeds paper sweep: %v", ths)
	}
}

func TestRawReadBandwidth(t *testing.T) {
	r := RawReadBandwidth(64<<20, 2, 30*time.Millisecond)
	if r.MBPerSec() <= 0 {
		t.Fatalf("no bandwidth measured: %+v", r)
	}
	if r.FS != "max-bandwidth" {
		t.Fatalf("label = %q", r.FS)
	}
}

func TestMemcpyBandwidthCached(t *testing.T) {
	a := MemcpyBandwidth()
	b := MemcpyBandwidth()
	// The cached value is stored as an integer; allow sub-byte rounding.
	if a <= 0 || a-b > 1 || b-a > 1 {
		t.Fatalf("bandwidth = %f then %f", a, b)
	}
}

func TestTimedClientAccounting(t *testing.T) {
	fs, _ := MakeFS("simurgh", 32<<20)
	c, _ := fs.Attach(fsapi.Root)
	tc := NewTimedClient(c)
	fd, err := tc.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tc.Write(fd, make([]byte, 10000))
	tc.Close(fd)
	if tc.Calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", tc.Calls.Load())
	}
	if tc.Bytes.Load() != 10000 {
		t.Fatalf("bytes = %d", tc.Bytes.Load())
	}
	app, cp, fsT := tc.Breakdown(time.Second)
	if app < 0 || cp < 0 || fsT < 0 {
		t.Fatalf("negative breakdown: %v %v %v", app, cp, fsT)
	}
}
