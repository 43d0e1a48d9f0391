package pmem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRoundsToCacheline(t *testing.T) {
	d := New(100)
	if d.Size()%CachelineSize != 0 {
		t.Fatalf("size %d not cacheline aligned", d.Size())
	}
	if d.Size() < 100 {
		t.Fatalf("size %d smaller than requested", d.Size())
	}
}

func TestLoadStore64(t *testing.T) {
	d := New(4096)
	d.Store64(64, 0xdeadbeefcafebabe)
	if got := d.Load64(64); got != 0xdeadbeefcafebabe {
		t.Fatalf("Load64 = %#x", got)
	}
	d.Store32(128, 0x12345678)
	if got := d.Load32(128); got != 0x12345678 {
		t.Fatalf("Load32 = %#x", got)
	}
}

func TestMisalignedPanics(t *testing.T) {
	d := New(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned access")
		}
	}()
	d.Load64(3)
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds access")
		}
	}()
	d.Store64(1024, 1)
}

func TestReadWriteAt(t *testing.T) {
	d := New(4096)
	src := []byte("the quick brown fox")
	d.WriteAt(100, src)
	got := make([]byte, len(src))
	d.ReadAt(100, got)
	if !bytes.Equal(got, src) {
		t.Fatalf("ReadAt = %q, want %q", got, src)
	}
}

func TestZero(t *testing.T) {
	d := New(4096)
	d.WriteAt(0, bytes.Repeat([]byte{0xff}, 256))
	d.Zero(64, 128)
	for i := uint64(64); i < 192; i++ {
		if d.Bytes(i, 1)[0] != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	if d.Bytes(0, 1)[0] != 0xff || d.Bytes(200, 1)[0] != 0xff {
		t.Fatal("Zero touched bytes outside its range")
	}
}

func TestCompareAndSwap(t *testing.T) {
	d := New(4096)
	d.Store64(0, 5)
	if d.CompareAndSwap64(0, 4, 9) {
		t.Fatal("CAS succeeded with wrong old value")
	}
	if !d.CompareAndSwap64(0, 5, 9) {
		t.Fatal("CAS failed with right old value")
	}
	if d.Load64(0) != 9 {
		t.Fatalf("value after CAS = %d", d.Load64(0))
	}
}

func TestAtomicOrAnd(t *testing.T) {
	d := New(4096)
	d.Store64(8, 0b0101)
	if old := d.AtomicOr64(8, 0b0010); old != 0b0101 {
		t.Fatalf("Or old = %b", old)
	}
	if d.Load64(8) != 0b0111 {
		t.Fatalf("after Or = %b", d.Load64(8))
	}
	if old := d.AtomicAnd64(8, 0b0011); old != 0b0111 {
		t.Fatalf("And old = %b", old)
	}
	if d.Load64(8) != 0b0011 {
		t.Fatalf("after And = %b", d.Load64(8))
	}
}

func TestCrashDropsUnfencedStores(t *testing.T) {
	d := New(4096)
	d.Store64(0, 1)
	d.SetMode(ModeTracked) // snapshot: word0=1 durable
	d.Store64(0, 2)        // not flushed
	d.Store64(64, 3)
	d.Persist(64, 8) // flushed + fenced
	d.Crash()
	if got := d.Load64(0); got != 1 {
		t.Fatalf("unfenced store survived crash: word0 = %d, want 1", got)
	}
	if got := d.Load64(64); got != 3 {
		t.Fatalf("fenced store lost: word64 = %d, want 3", got)
	}
}

func TestFlushWithoutFenceNotDurable(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	d.Store64(0, 7)
	d.Flush(0, 8) // no fence
	d.Crash()
	if got := d.Load64(0); got != 0 {
		t.Fatalf("flushed-but-unfenced store survived: %d", got)
	}
}

func TestNTStoreDurableAfterFence(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	d.NTStore(128, []byte{1, 2, 3, 4})
	d.Fence()
	d.Crash()
	got := make([]byte, 4)
	d.ReadAt(128, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("ntstore+fence lost: %v", got)
	}
}

func TestNTStoreWithoutFenceLost(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	d.NTStore(128, []byte{9, 9, 9, 9})
	d.Crash()
	got := make([]byte, 4)
	d.ReadAt(128, got)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("ntstore without fence survived strict crash: %v", got)
	}
}

func TestCrashLineGranularity(t *testing.T) {
	// Two stores to the same cache line: persisting the line persists both.
	d := New(4096)
	d.SetMode(ModeTracked)
	d.Store64(0, 11)
	d.Store64(8, 22)
	d.Persist(0, 8) // flushes the whole 64-byte line
	d.Crash()
	if d.Load64(0) != 11 || d.Load64(8) != 22 {
		t.Fatalf("line-granular persistence violated: %d %d", d.Load64(0), d.Load64(8))
	}
}

func TestCrashPartialProducesLegalStates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := New(4096)
		d.SetMode(ModeTracked)
		d.Store64(0, 123)   // pending
		d.Store64(512, 456) // staged (flushed, no fence)
		d.Flush(512, 8)
		d.CrashPartial(rng)
		// Each word must be either the old value (0) or the new value.
		if v := d.Load64(0); v != 0 && v != 123 {
			t.Fatalf("trial %d: torn word0 = %d", trial, v)
		}
		if v := d.Load64(512); v != 0 && v != 456 {
			t.Fatalf("trial %d: torn word512 = %d", trial, v)
		}
	}
}

func TestDirtyLines(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("fresh tracked device has %d dirty lines", n)
	}
	d.Store64(0, 1)
	d.Store64(256, 1)
	if n := d.DirtyLines(); n != 2 {
		t.Fatalf("dirty lines = %d, want 2", n)
	}
	d.Persist(0, 8)
	if n := d.DirtyLines(); n != 1 {
		t.Fatalf("dirty lines after persist = %d, want 1", n)
	}
	d.Flush(256, 8)
	d.Fence()
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("dirty lines after full persist = %d, want 0", n)
	}
}

func TestStatsCounters(t *testing.T) {
	d := New(4096)
	d.WriteAt(0, make([]byte, 100))
	d.ReadAt(0, make([]byte, 50))
	d.NTStore(512, make([]byte, 64))
	d.Flush(0, 100)
	d.Fence()
	if d.Stats.StoreBytes.Load() != 100 {
		t.Fatalf("StoreBytes = %d", d.Stats.StoreBytes.Load())
	}
	if d.Stats.LoadBytes.Load() != 50 {
		t.Fatalf("LoadBytes = %d", d.Stats.LoadBytes.Load())
	}
	if d.Stats.NTBytes.Load() != 64 {
		t.Fatalf("NTBytes = %d", d.Stats.NTBytes.Load())
	}
	if d.Stats.Flushes.Load() != 2 { // 100 bytes spans 2 lines
		t.Fatalf("Flushes = %d", d.Stats.Flushes.Load())
	}
	if d.Stats.Fences.Load() != 1 {
		t.Fatalf("Fences = %d", d.Stats.Fences.Load())
	}
}

func TestConcurrentAtomicAdd(t *testing.T) {
	d := New(4096)
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d.AtomicAdd64(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := d.Load64(0); got != workers*iters {
		t.Fatalf("concurrent add = %d, want %d", got, workers*iters)
	}
}

func TestConcurrentTrackedStores(t *testing.T) {
	// Tracked-mode bookkeeping must be safe under concurrent writers to
	// disjoint lines.
	d := New(1 << 16)
	d.SetMode(ModeTracked)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint64(w) * 8192
			for i := uint64(0); i < 100; i++ {
				d.Store64(base+i*64, i)
				d.Persist(base+i*64, 8)
			}
		}()
	}
	wg.Wait()
	d.Crash()
	for w := uint64(0); w < 4; w++ {
		for i := uint64(0); i < 100; i++ {
			if got := d.Load64(w*8192 + i*64); got != i {
				t.Fatalf("worker %d word %d = %d", w, i, got)
			}
		}
	}
}

// TestQuickPersistedSurvivesCrash property: any byte pattern that was
// written and persisted is intact after a crash, regardless of what other
// unpersisted writes happened around it.
func TestQuickPersistedSurvivesCrash(t *testing.T) {
	f := func(data []byte, noiseOff uint16, noise []byte) bool {
		if len(data) == 0 || len(data) > 1024 {
			return true
		}
		d := New(1 << 16)
		d.SetMode(ModeTracked)
		const off = 4096
		d.WriteAt(off, data)
		d.Persist(off, uint64(len(data)))
		// Unpersisted noise elsewhere (may share no lines with data).
		no := uint64(noiseOff) % (1 << 15)
		if len(noise) > 0 && (no+uint64(len(noise)) <= off || no >= off+uint64(len(data))+CachelineSize) {
			// Only write noise if it cannot share a cache line with data.
			if no+uint64(len(noise)) < (1 << 16) {
				d.WriteAt(no, noise)
			}
		}
		d.Crash()
		got := make([]byte, len(data))
		d.ReadAt(off, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashNeverInventsData property: after a strict crash, every byte
// equals either its pre-write persistent value or a value that was
// explicitly persisted; nothing else can appear.
func TestQuickCrashNeverInventsData(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1 << 14)
		d.SetMode(ModeTracked)
		type write struct {
			off uint64
			val byte
		}
		var all []write
		written := map[uint64]map[byte]bool{}
		for i := 0; i < int(ops); i++ {
			off := uint64(rng.Intn(1<<14-8)) &^ 7
			val := byte(rng.Intn(256))
			d.WriteAt(off, []byte{val})
			if written[off] == nil {
				written[off] = map[byte]bool{}
			}
			written[off][val] = true
			all = append(all, write{off, val})
			if rng.Intn(2) == 0 {
				d.Persist(off, 1)
			}
		}
		d.Crash()
		// After a crash a byte holds either its initial value (0) or some
		// value that was actually written there — never invented data.
		for _, w := range all {
			b := make([]byte, 1)
			d.ReadAt(w.off, b)
			if b[0] != 0 && !written[w.off][b[0]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStore64Fast(b *testing.B) {
	d := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store64(uint64(i%1024)*8, uint64(i))
	}
}

func BenchmarkNTStore4K(b *testing.B) {
	d := New(1 << 24)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		d.NTStore(uint64(i%4096)*4096, buf)
		d.Fence()
	}
}

// TestAtomicBulkOps checks the word-atomic body operations against the
// plain ones, at every length around the word boundaries.
func TestAtomicBulkOps(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	const off = 128
	for n := 0; n <= 40; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i + 1)
		}
		d.Zero(off, 64)
		d.AtomicWriteAt(off, src)
		plain := make([]byte, 48)
		d.ReadAt(off, plain)
		for i, b := range plain {
			want := byte(0) // the tail of the last word, and everything after, reads zero
			if i < n {
				want = src[i]
			}
			if b != want {
				t.Fatalf("n=%d: byte %d = %d after AtomicWriteAt, want %d", n, i, b, want)
			}
		}
		got := make([]byte, n)
		d.AtomicReadAt(off, got)
		if string(got) != string(src) {
			t.Fatalf("n=%d: AtomicReadAt = %v, want %v", n, got, src)
		}
		if !d.AtomicEqual(off, string(src)) {
			t.Fatalf("n=%d: AtomicEqual rejects what was written", n)
		}
		if n > 0 {
			other := []byte(string(src))
			other[n-1] ^= 0x80
			if d.AtomicEqual(off, string(other)) {
				t.Fatalf("n=%d: AtomicEqual accepts a different last byte", n)
			}
		}
	}
	// Bytes past the compared length do not matter.
	d.WriteAt(off, []byte("abcdefghij"))
	if !d.AtomicEqual(off, "abcde") || d.AtomicEqual(off, "abcdX") {
		t.Fatal("AtomicEqual must compare exactly len(s) bytes")
	}
	// AtomicZero clears, and what it clears is tracked like any store.
	d.Persist(off, 64)
	d.AtomicZero(off, 64)
	if d.Load64(off) != 0 || d.Load64(off+8) != 0 {
		t.Fatal("AtomicZero left data behind")
	}
	d.Crash()
	if !d.AtomicEqual(off, "abcdefghij") {
		t.Fatal("an unflushed AtomicZero survived the crash")
	}
	d.AtomicStore32(off+4, 7)
	if d.AtomicLoad32(off+4) != 7 || d.Load32(off+4) != 7 {
		t.Fatal("AtomicStore32/AtomicLoad32 disagree")
	}
}

func TestStopAtFence(t *testing.T) {
	d := New(4096)
	d.SetMode(ModeTracked)
	base := d.Stats.Fences.Load()
	d.StopAt(base + 3)
	step := 0
	stop := Run(func() {
		for step = 1; step <= 4; step++ {
			d.Store64(uint64(step)*64, uint64(step))
			d.Persist(uint64(step)*64, 8)
		}
	})
	if !stop || step != 3 {
		t.Fatalf("Run = %v at step %d, want a stop at step 3", stop, step)
	}
	// The stopped fence never took effect, nor does any later one.
	if !Run(d.Fence) {
		t.Fatal("a fence after the stop went through")
	}
	d.StopAt(0)
	d.Crash()
	for i, want := range []uint64{1, 2, 0, 0} {
		if got := d.Load64(uint64(i+1) * 64); got != want {
			t.Fatalf("word %d after the crash = %d, want %d", i+1, got, want)
		}
	}
	if Run(d.Fence) {
		t.Fatal("StopAt(0) did not disarm the stop")
	}
}

func TestStopAtIgnoredInFastMode(t *testing.T) {
	d := New(4096)
	d.StopAt(1)
	if Run(d.Fence) {
		t.Fatal("a fast-mode fence stopped")
	}
}

func TestRunRepanicsOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "other" {
			t.Fatalf("recovered %v, want the original panic", r)
		}
	}()
	Run(func() { panic("other") })
}
