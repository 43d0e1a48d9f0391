package cost

import (
	"testing"
	"time"
)

// TestPaperConstants pins the charges derived from internal/isa's micro-op
// table at the paper's §3.3 numbers.
func TestPaperConstants(t *testing.T) {
	if SyscallCycles != 400 {
		t.Fatalf("SyscallCycles = %d", SyscallCycles)
	}
	if JmppExtraCycles != 46 {
		t.Fatalf("JmppExtraCycles = %d (paper: 70-24)", JmppExtraCycles)
	}
}

func TestModelsChargeCorrectAmounts(t *testing.T) {
	k := KernelModel()
	k.Disabled = true
	for i := 0; i < 10; i++ {
		k.Cross()
	}
	if k.ChargedCycles() != 10*SyscallCycles {
		t.Fatalf("kernel charged %d", k.ChargedCycles())
	}
	if k.Calls() != 10 {
		t.Fatalf("calls = %d", k.Calls())
	}
	s := SimurghModel()
	s.Disabled = true
	s.Cross()
	if s.ChargedCycles() != JmppExtraCycles {
		t.Fatalf("simurgh charged %d", s.ChargedCycles())
	}
	k.Reset()
	if k.ChargedCycles() != 0 || k.Calls() != 0 {
		t.Fatal("reset failed")
	}
}

func TestNilModelSafe(t *testing.T) {
	var m *Model
	m.Cross()
	if m.ChargedCycles() != 0 || m.Calls() != 0 {
		t.Fatal("nil model accounted something")
	}
	m.Reset()
}

func TestZeroModelChargesNothing(t *testing.T) {
	var z Model
	z.Cross()
	if z.ChargedCycles() != 0 || z.Calls() != 0 {
		t.Fatalf("zero model charged %d cycles over %d calls", z.ChargedCycles(), z.Calls())
	}
}

func TestSpinTakesRoughlyRightTime(t *testing.T) {
	// 250k cycles at 2.5 GHz = 100 µs; allow generous slack for CI noise.
	start := time.Now()
	Spin(250_000)
	got := time.Since(start)
	if got < 20*time.Microsecond {
		t.Fatalf("Spin(250k cycles) returned too fast: %v", got)
	}
	if got > 10*time.Millisecond {
		t.Fatalf("Spin(250k cycles) took too long: %v", got)
	}
}

func TestSpinNs(t *testing.T) {
	start := time.Now()
	SpinNs(100_000) // 100 µs
	got := time.Since(start)
	if got < 20*time.Microsecond || got > 10*time.Millisecond {
		t.Fatalf("SpinNs(100µs) took %v", got)
	}
}

func TestCyclesToDuration(t *testing.T) {
	if d := CyclesToDuration(2500); d != time.Microsecond {
		t.Fatalf("2500 cycles @ 2.5GHz = %v, want 1µs", d)
	}
}
