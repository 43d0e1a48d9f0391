//go:build timing

package simurgh_test

// The wall-clock forms of the two shape claims whose tier-1 form is a count
// (shape_test.go). They compare runs that differ by ~140 ns per call, or a
// file system with the raw device, through a calibrated spin on whatever
// cores the host grants: true by construction, and still a coin toss on a
// loaded 2-vCPU machine. CI's bench job runs them:
//
//	go test -tags timing -run 'TestShapeTimed' .

import (
	"testing"
	"time"

	"simurgh/internal/bench"
	"simurgh/internal/fxmark"
)

func TestShapeTimedResolveBenefitsFromProtectedCalls(t *testing.T) {
	// The ablation claim: the same design with syscall-cost entry is slower
	// on resolvepath; and Simurgh beats the kernel systems on it.
	r := medianRates(t, fxmark.ResolvePrivate(), 400*time.Millisecond, "simurgh", "simurgh-syscall", "nova")
	jmpp, sysc, nova := r["simurgh"], r["simurgh-syscall"], r["nova"]
	if jmpp <= nova {
		t.Errorf("resolve: simurgh %.0f <= nova %.0f (paper: simurgh ~2x kernel FSes)", jmpp, nova)
	}
	if sysc > jmpp*1.05 {
		t.Errorf("resolve: syscall variant %.0f faster than jmpp variant %.0f", sysc, jmpp)
	}
}

func TestShapeTimedReadsTrackDeviceBandwidth(t *testing.T) {
	w := fxmark.ReadShared()
	r, err := bench.RunPoint(w, "simurgh", 1, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	raw := bench.RawReadBandwidth(1<<30, 1, 400*time.Millisecond)
	// Simurgh must reach at least half the raw device bandwidth (the paper
	// shows it saturating the device).
	if r.MBPerSec() < raw.MBPerSec()/2 {
		t.Errorf("shared read %.0f MiB/s far below device %.0f MiB/s", r.MBPerSec(), raw.MBPerSec())
	}
}
