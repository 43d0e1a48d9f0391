// Package cost injects calibrated CPU-cycle costs into file-system calls.
//
// The paper's evaluation adds 46 cycles (the measured difference between a
// jmpp-protected call and a plain call) to every Simurgh operation, while
// kernel file systems pay a full syscall entry/exit (~400 cycles measured
// for geteuid on the Xeon Gold testbed, ~1200 cycles on gem5). We reproduce
// that accounting with a calibrated busy-spin: at init we measure how many
// iterations of a side-effect-free loop take one nanosecond and then convert
// cycles → nanoseconds at the paper's 2.5 GHz clock.
//
// The spin can be disabled (Model.Disabled) so unit tests are fast, and the
// injected cycle counts are also tallied so that breakdown experiments
// (Table 1, Fig 10) can report where virtual time went even when spinning is
// off.
package cost

import (
	"sync/atomic"
	"time"

	"simurgh/internal/isa"
)

// Paper-calibrated cycle costs (see §3.3 and §5.1), taken from the micro-op
// table in internal/isa so the §3.3 numbers have one copy.
const (
	// ClockGHz is the testbed clock (Xeon Gold 5215 @ 2.5 GHz).
	ClockGHz = 2.5
	// SyscallCycles is the measured round-trip of a trivial syscall on the
	// testbed (geteuid ≈ 400 cycles).
	SyscallCycles = isa.CyclesSyscallModern
	// JmppExtraCycles is the measured difference between a protected call
	// (jmpp+pret) and a plain call+ret: 70 − 24 = 46 cycles.
	JmppExtraCycles = isa.CyclesJmppPret - isa.CyclesCallRet
)

// spinsPerNano is the calibrated number of spin-loop iterations per
// nanosecond. Calibrated once at package init.
var spinsPerNano float64

func init() {
	calibrate()
}

func calibrate() {
	const iters = 2_000_000
	start := time.Now()
	spinLoop(iters)
	elapsed := time.Since(start)
	if elapsed <= 0 {
		spinsPerNano = 1
		return
	}
	spinsPerNano = float64(iters) / float64(elapsed.Nanoseconds())
	if spinsPerNano <= 0 {
		spinsPerNano = 1
	}
}

//go:noinline
func spinLoop(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Model is a per-file-system cost model: one price per crossing into the
// file system, a syscall for a kernel one and the jmpp/pret delta for
// Simurgh. The zero value charges nothing.
type Model struct {
	// Cycles charged on every crossing.
	Cycles uint64
	// Disabled suppresses the busy-spin (costs are still tallied).
	Disabled bool

	charged atomic.Uint64 // total cycles charged
	calls   atomic.Uint64
}

// KernelModel returns the cost model for a kernel file system: a syscall per
// operation.
func KernelModel() *Model { return &Model{Cycles: SyscallCycles} }

// SimurghModel returns the cost model for Simurgh: the jmpp/pret delta per
// operation.
func SimurghModel() *Model { return &Model{Cycles: JmppExtraCycles} }

// Cross charges one crossing. Safe on a nil model.
func (m *Model) Cross() {
	if m == nil || m.Cycles == 0 {
		return
	}
	m.charged.Add(m.Cycles)
	m.calls.Add(1)
	if !m.Disabled {
		Spin(m.Cycles)
	}
}

// ChargedCycles returns the total cycles charged so far.
func (m *Model) ChargedCycles() uint64 {
	if m == nil {
		return 0
	}
	return m.charged.Load()
}

// Calls returns the number of charged calls.
func (m *Model) Calls() uint64 {
	if m == nil {
		return 0
	}
	return m.calls.Load()
}

// Reset zeroes the tallies.
func (m *Model) Reset() {
	if m == nil {
		return
	}
	m.charged.Store(0)
	m.calls.Store(0)
}

// SpinNs busy-waits for approximately the given number of nanoseconds.
func SpinNs(ns uint64) {
	n := int(float64(ns) * spinsPerNano)
	if n <= 0 {
		n = 1
	}
	spinLoop(n)
}

// Spin busy-waits for approximately the given number of CPU cycles at the
// paper's 2.5 GHz clock.
func Spin(cycles uint64) {
	ns := float64(cycles) / ClockGHz
	n := int(ns * spinsPerNano)
	if n <= 0 {
		n = 1
	}
	spinLoop(n)
}

// CyclesToDuration converts a cycle count to wall time at the paper clock.
func CyclesToDuration(cycles uint64) time.Duration {
	return time.Duration(float64(cycles) / ClockGHz)
}
