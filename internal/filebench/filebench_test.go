package filebench

import (
	"testing"
	"time"

	"simurgh/internal/bench"
)

func TestPersonalityLookup(t *testing.T) {
	if _, err := ByName("varmail"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Fatal("phantom personality")
	}
	if len(Personalities()) != 4 {
		t.Fatalf("expected 4 personalities")
	}
}

func TestEveryPersonalityOnSimurgh(t *testing.T) {
	for _, p := range Personalities() {
		t.Run(p.Name, func(t *testing.T) {
			res, err := bench.RunPoint(p.Workload(60), "simurgh", 4, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
		})
	}
}

func TestVarmailOnAllFS(t *testing.T) {
	p, _ := ByName("varmail")
	for _, name := range bench.FSNames {
		res, err := bench.RunPoint(p.Workload(40), name, 3, 80*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops", name)
		}
	}
}
