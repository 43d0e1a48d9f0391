package alloc

import (
	"sync"
	"testing"

	"simurgh/internal/pmem"
)

// slabWorld builds a device with a superblock page holding two class heads
// and a block allocator over the rest.
func slabWorld(t *testing.T) (*pmem.Device, *BlockAlloc, *ObjAlloc) {
	t.Helper()
	dev := pmem.New(4 << 20)
	ba := NewBlockAlloc(dev, 4096, 1, dev.Size()/4096-1, 4)
	oa, err := NewObjAlloc(dev, ba, []ClassConfig{
		{ObjSize: 128, SegBlocks: 4, HeadOff: 64}, // class 0: "inodes"
		{ObjSize: 64, SegBlocks: 2, HeadOff: 128}, // class 1: "file entries"
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return dev, ba, oa
}

func TestObjAllocFlagsProtocol(t *testing.T) {
	dev, _, oa := slabWorld(t)
	ptr, err := oa.Alloc(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := oa.Flags(ptr); f != FlagValid|FlagDirty {
		t.Fatalf("freshly allocated flags = %b, want valid|dirty", f)
	}
	// Body must be zero.
	body := make([]byte, 128-BodyOff)
	dev.ReadAt(uint64(ptr)+BodyOff, body)
	for i, b := range body {
		if b != 0 {
			t.Fatalf("body byte %d = %d, want 0", i, b)
		}
	}
	oa.ClearDirty(ptr)
	if f := oa.Flags(ptr); f != FlagValid {
		t.Fatalf("flags after ClearDirty = %b", f)
	}
	oa.Free(0, ptr)
	if f := oa.Flags(ptr); f != 0 {
		t.Fatalf("flags after Free = %b", f)
	}
}

func TestObjAllocDistinctPointers(t *testing.T) {
	_, _, oa := slabWorld(t)
	seen := map[pmem.Ptr]bool{}
	for i := 0; i < 500; i++ {
		p, err := oa.Alloc(1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("pointer %#x handed out twice", p)
		}
		seen[p] = true
	}
}

func TestObjAllocReuseAfterFree(t *testing.T) {
	_, _, oa := slabWorld(t)
	p1, _ := oa.Alloc(0, 0)
	oa.ClearDirty(p1)
	oa.Free(0, p1)
	// The freed slot must be allocatable again.
	found := false
	for i := 0; i < 2000; i++ {
		p, err := oa.Alloc(0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if p == p1 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("freed object never recycled")
	}
}

func TestObjAllocGrowsChain(t *testing.T) {
	dev, _, oa := slabWorld(t)
	// Class 1: 64-byte objects, 2-block segments -> (8192-64)/64 = 127 per
	// segment. Allocate past one segment to force chain growth.
	for i := 0; i < 300; i++ {
		if _, err := oa.Alloc(1, uint64(i)); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	// Walk the chain: needs >= 3 segments.
	segs := 0
	seg := dev.Load64(128)
	for seg != 0 {
		segs++
		seg = dev.Load64(seg + 8)
	}
	if segs < 3 {
		t.Fatalf("chain has %d segments, want >= 3", segs)
	}
}

func TestObjAllocConcurrent(t *testing.T) {
	// All workers hold on to everything they allocate; every held pointer
	// must be globally unique.
	_, _, oa := slabWorld(t)
	const workers = 8
	held := make([][]pmem.Ptr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p, err := oa.Alloc(0, uint64(w))
				if err != nil {
					t.Error(err)
					return
				}
				oa.ClearDirty(p)
				held[w] = append(held[w], p)
			}
		}()
	}
	wg.Wait()
	all := map[pmem.Ptr]int{}
	for w, ps := range held {
		for _, p := range ps {
			if prev, dup := all[p]; dup {
				t.Fatalf("pointer %#x held by workers %d and %d", p, prev, w)
			}
			all[p] = w
		}
	}
}

func TestObjAllocConcurrentChurn(t *testing.T) {
	// Allocate/free churn across workers: the allocator must never hand the
	// same object to two workers that hold it at the same time. Each worker
	// writes its id into the object body and checks it before freeing.
	dev, _, oa := slabWorld(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, err := oa.Alloc(0, uint64(w+i))
				if err != nil {
					t.Error(err)
					return
				}
				dev.Store64(uint64(p)+BodyOff, uint64(w)+1)
				oa.ClearDirty(p)
				if got := dev.Load64(uint64(p) + BodyOff); got != uint64(w)+1 {
					t.Errorf("object %#x owned by worker %d overwritten: %d", p, w, got)
					return
				}
				oa.Free(0, p)
			}
		}()
	}
	wg.Wait()
}

func TestSweepReclaimsDirtyObjects(t *testing.T) {
	dev, _, oa := slabWorld(t)
	live, _ := oa.Alloc(0, 0)
	oa.ClearDirty(live)
	leaked, _ := oa.Alloc(0, 1) // valid|dirty: op never completed
	halfFreed, _ := oa.Alloc(0, 2)
	oa.ClearDirty(halfFreed)
	// Simulate a crash mid-Free: valid cleared, dirty set, body not zeroed.
	dev.Store64(uint64(halfFreed)+BodyOff, 0xabcdef)
	dev.AtomicStore64(uint64(halfFreed), FlagDirty)
	dev.Persist(uint64(halfFreed), 8)

	st := oa.Sweep(0, func(p pmem.Ptr) bool { return p == live })
	if st.Live != 1 {
		t.Fatalf("live = %d, want 1", st.Live)
	}
	if st.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1 (the leaked valid|dirty object)", st.Reclaimed)
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (the half-freed object)", st.Completed)
	}
	if f := oa.Flags(leaked); f != 0 {
		t.Fatalf("leaked object flags after sweep = %b", f)
	}
	if v := dev.Load64(uint64(halfFreed) + BodyOff); v != 0 {
		t.Fatalf("half-freed body not zeroed by sweep: %#x", v)
	}
	if f := oa.Flags(live); f != FlagValid {
		t.Fatalf("live object disturbed by sweep: flags %b", f)
	}
}

func TestSweepReclaimsUnreferencedValidObjects(t *testing.T) {
	_, _, oa := slabWorld(t)
	orphan, _ := oa.Alloc(0, 0)
	oa.ClearDirty(orphan) // committed but unreachable (e.g. lost rename source)
	st := oa.Sweep(0, func(pmem.Ptr) bool { return false })
	if st.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", st.Reclaimed)
	}
	if f := oa.Flags(orphan); f != 0 {
		t.Fatalf("orphan flags = %b after sweep", f)
	}
}

func TestLoadRepopulatesFreeLists(t *testing.T) {
	dev, ba, oa := slabWorld(t)
	var keep pmem.Ptr
	for i := 0; i < 50; i++ {
		p, _ := oa.Alloc(0, uint64(i))
		oa.ClearDirty(p)
		if i == 25 {
			keep = p
		}
	}
	// Simulate a restart: a brand-new allocator over the same device.
	oa2, err := NewObjAlloc(dev, ba, []ClassConfig{
		{ObjSize: 128, SegBlocks: 4, HeadOff: 64},
		{ObjSize: 64, SegBlocks: 2, HeadOff: 128},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	oa2.Load()
	// New allocations must not collide with live objects.
	for i := 0; i < 200; i++ {
		p, err := oa2.Alloc(0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if p == keep {
			t.Fatal("Load handed out a live object")
		}
	}
}

func TestUsedSegmentsCoversChains(t *testing.T) {
	_, _, oa := slabWorld(t)
	for i := 0; i < 300; i++ {
		oa.Alloc(1, uint64(i))
	}
	var blocks uint64
	oa.UsedSegments(func(b, n uint64) { blocks += n })
	if blocks < 6 { // >= 3 segments x 2 blocks
		t.Fatalf("UsedSegments reported %d blocks, want >= 6", blocks)
	}
}

func TestCrashDuringGrowLeavesConsistentChain(t *testing.T) {
	dev := pmem.New(4 << 20)
	dev.SetMode(pmem.ModeTracked)
	ba := NewBlockAlloc(dev, 4096, 1, dev.Size()/4096-1, 2)
	oa, _ := NewObjAlloc(dev, ba, []ClassConfig{{ObjSize: 64, SegBlocks: 2, HeadOff: 64}}, 2)
	p, err := oa.Alloc(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	oa.ClearDirty(p)
	dev.Crash()
	// After the crash, walking the chain must terminate and find the object.
	oa2, _ := NewObjAlloc(dev, ba, []ClassConfig{{ObjSize: 64, SegBlocks: 2, HeadOff: 64}}, 2)
	found := false
	oa2.Scan(0, func(ptr pmem.Ptr, flags uint64) {
		if ptr == p && flags == FlagValid {
			found = true
		}
	})
	if !found {
		t.Fatal("persisted object lost after crash")
	}
}
