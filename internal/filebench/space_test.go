package filebench

import (
	"testing"
	"time"

	"simurgh/internal/bench"
	"simurgh/internal/core"
	"simurgh/internal/fsapi"
)

// TestVarmailDoesNotExhaustSpace pins the stationary fileset size of the
// varmail personality (appends are balanced by delete-resets).
func TestVarmailDoesNotExhaustSpace(t *testing.T) {
	p, _ := ByName("varmail")
	w := p.Workload(200)
	var fs fsapi.FileSystem
	populate := w.Setup
	w.Setup = func(f fsapi.FileSystem) (any, error) {
		fs = f
		return populate(f)
	}
	res, err := bench.RunPoint(w, "simurgh", 4, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("err=%v free=%d", err, fs.(*core.FS).FreeBlocks())
	}
	t.Logf("ops=%d free=%d", res.Ops, fs.(*core.FS).FreeBlocks())
}
