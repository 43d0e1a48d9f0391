package core

import (
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// TestOpAttribution checks that the instrumented dispatch path charges each
// operation class its own NVMM traffic: create, write and unlink are all
// persistence points in the paper's protocols, so each must attribute at
// least one fence to its own class (not to a neighbour).
func TestOpAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSamplePeriod(1)
	dev := pmem.New(64 << 20)
	fs, err := Format(dev, fsapi.Root, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fs.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/f"); err != nil {
		t.Fatal(err)
	}

	s := fs.Stats()
	for _, op := range []obs.Op{obs.OpCreate, obs.OpWrite, obs.OpUnlink} {
		o := s.Ops[op]
		if o.Calls != 1 {
			t.Errorf("%v: calls = %d, want 1", op, o.Calls)
		}
		if o.Errors != 0 {
			t.Errorf("%v: errors = %d, want 0", op, o.Errors)
		}
		if o.Pmem.Fences < 1 {
			t.Errorf("%v: attributed %d fences, want >= 1", op, o.Pmem.Fences)
		}
	}
	// Write pushes file content through non-temporal stores, so its class
	// must carry the NT bytes.
	if s.Ops[obs.OpWrite].Pmem.NTBytes < 4096 {
		t.Errorf("write attributed %d NT bytes, want >= 4096", s.Ops[obs.OpWrite].Pmem.NTBytes)
	}
	if s.Ops[obs.OpClose].Calls != 1 {
		t.Errorf("close calls = %d, want 1", s.Ops[obs.OpClose].Calls)
	}

	// FS.Stats carries the shard contention counters and device totals
	// (per-directory state has no lock to report on: lookups only load).
	if len(s.Shards) != 2 {
		t.Fatalf("shards = %+v, want locks/refs", s.Shards)
	}
	var gets uint64
	for _, sh := range s.Shards {
		gets += sh.Gets
	}
	if gets == 0 {
		t.Error("no shard activity recorded for a create/write/unlink sequence")
	}
	if s.Device.Fences == 0 || s.Device.NTBytes == 0 {
		t.Errorf("device totals missing: %+v", s.Device)
	}

	// Failed operations count as errors on their own class.
	if _, err := c.Stat("/missing"); err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	s = fs.Stats()
	if o := s.Ops[obs.OpStat]; o.Calls != 1 || o.Errors != 1 {
		t.Errorf("stat stats = calls %d errors %d, want 1/1", o.Calls, o.Errors)
	}
}
