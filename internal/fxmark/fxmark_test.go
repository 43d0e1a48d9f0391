package fxmark

import (
	"testing"
	"time"

	"simurgh/internal/bench"
)

// TestEveryWorkloadRunsOnEveryFS smoke-runs each microbenchmark briefly on
// each file system, catching interface or setup errors.
func TestEveryWorkloadRunsOnEveryFS(t *testing.T) {
	fss := append([]string{}, bench.FSNames...)
	fss = append(fss, "simurgh-relaxed")
	for name, w := range All() {
		w := w
		t.Run(name, func(t *testing.T) {
			for _, fsName := range fss {
				r, err := bench.RunPoint(w, fsName, 2, 30*time.Millisecond)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, fsName, err)
				}
				if r.Ops == 0 {
					t.Fatalf("%s on %s completed zero operations", name, fsName)
				}
			}
		})
	}
}

func TestResultMath(t *testing.T) {
	r := bench.Result{Ops: 1000, Bytes: 4 << 20, Elapsed: 2 * time.Second}
	if got := r.OpsPerSec(); got != 500 {
		t.Fatalf("OpsPerSec = %f", got)
	}
	if got := r.MBPerSec(); got != 2 {
		t.Fatalf("MBPerSec = %f", got)
	}
}
