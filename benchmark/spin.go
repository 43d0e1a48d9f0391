package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// The device model charges each flush, fence and non-temporal line a fixed
// number of nanoseconds by busy-waiting. The wait is the benchmark's own:
// internal/cost calibrates once in init(), on whatever the host was doing at
// process start, and its 1 µs ran 0.29–1.01 µs across twelve starts of this
// host. Here the loop is calibrated after a warm-up, as a median of trials,
// and checked again before every point.

var spinsPerNs atomic.Uint64 // math.Float64bits of iterations per nanosecond

//go:noinline
func spinLoop(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// spinNs busy-waits for about ns nanoseconds. It is the pmem.Device latency hook.
func spinNs(ns uint64) {
	n := int(float64(ns) * math.Float64frombits(spinsPerNs.Load()))
	if n < 1 {
		n = 1
	}
	spinLoop(n)
}

const (
	spinWarmup  = 50 * time.Millisecond
	spinTrial   = 20 * time.Millisecond
	spinTrials  = 5
	spinProbeNs = 1000
)

// spinTolerPct is how far a requested 1 µs may be off before the spin is
// calibrated again. A variable only so that the smoke test, which times
// nothing, can spare tier-1 the recalibrations.
var spinTolerPct = 5.0

// calibrateSpin sets the loop rate to the median of spinTrials trials of at
// least spinTrial each, after spinWarmup of spinning.
func calibrateSpin() {
	for end := time.Now().Add(spinWarmup); time.Now().Before(end); {
		spinLoop(1 << 16)
	}
	rates := make([]float64, 0, spinTrials)
	iters := 1 << 20
	for len(rates) < spinTrials {
		t0 := time.Now()
		spinLoop(iters)
		d := time.Since(t0)
		if d < spinTrial {
			iters *= 2
			continue
		}
		rates = append(rates, float64(iters)/float64(d.Nanoseconds()))
	}
	sort.Float64s(rates)
	spinsPerNs.Store(math.Float64bits(rates[len(rates)/2]))
}

// spinErrorPct measures how far a requested 1 µs wait is from 1 µs, over
// spinTrial of such waits, in percent (positive = the wait runs long).
func spinErrorPct() float64 {
	n := int(spinTrial / (spinProbeNs * time.Nanosecond))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		spinNs(spinProbeNs)
	}
	got := float64(time.Since(t0).Nanoseconds()) / float64(n)
	return 100 * (got/spinProbeNs - 1)
}

// checkSpin verifies the calibration before a point and redoes it once when a
// requested 1 µs is more than spinTolerPct off. It returns the error left:
// if that is still large, the host's clock is moving under the calibration,
// and doing it over would only chase it.
func checkSpin() float64 {
	if spinsPerNs.Load() == 0 {
		calibrateSpin()
	}
	e := spinErrorPct()
	if math.Abs(e) > spinTolerPct {
		calibrateSpin()
		e = spinErrorPct()
	}
	return e
}
