package obs

import (
	"testing"
	"time"
)

func BenchmarkEnter(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		if r.EnterAt(0, OpStat) {
			r.SampleAt(0, OpStat, time.Time{}, 100, Delta{}, false)
		}
	}
}
