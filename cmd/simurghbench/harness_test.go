package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// rowValues finds the output line whose first field is label and parses
// the rest of its fields as numbers (a trailing % is dropped).
func rowValues(t *testing.T, out, label string) []float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, label+" ") {
			continue
		}
		var vals []float64
		for _, f := range strings.Fields(strings.TrimPrefix(line, label)) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
			if err != nil {
				t.Fatalf("row %q: field %q: %v", label, f, err)
			}
			vals = append(vals, v)
		}
		return vals
	}
	t.Fatalf("no %q row in:\n%s", label, out)
	return nil
}

// TestFigureCommands runs the figure commands at their smallest scale and
// checks the rows they print: micro over a list of workloads, filebench and
// ycsb over two file systems, and the breakdown, whose three shares of each
// row must be a partition of the run, beside the row's pass count.
func TestFigureCommands(t *testing.T) {
	t.Run("micro", func(t *testing.T) {
		var out strings.Builder
		err := runMicro(&out, []string{"-bench", "resolve-private,create-shared",
			"-fs", "simurgh", "-threads", "1", "-duration", "20ms"})
		if err != nil {
			t.Fatal(err)
		}
		s := out.String()
		for _, name := range []string{"resolve-private", "create-shared"} {
			if !strings.Contains(s, "## "+microFigs[name]+"\n") {
				t.Fatalf("no %s series in:\n%s", name, s)
			}
		}
		if strings.Count(s, "\nsimurgh ") != 2 {
			t.Fatalf("want one simurgh row per workload:\n%s", s)
		}
		if v := rowValues(t, s, "simurgh"); len(v) != 1 || v[0] <= 0 {
			t.Fatalf("simurgh row = %v", v)
		}
	})

	t.Run("filebench", func(t *testing.T) {
		var out strings.Builder
		err := runFilebench(&out, []string{"-files", "20", "-threads", "2", "-duration", "20ms", "-fs", "simurgh,nova"})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"varmail", "webserver", "webproxy", "fileserver"} {
			if v := rowValues(t, out.String(), p); len(v) != 2 || v[0] <= 0 || v[1] <= 0 {
				t.Fatalf("%s row = %v, want two positive rates", p, v)
			}
		}
	})

	t.Run("ycsb", func(t *testing.T) {
		var out strings.Builder
		err := runYCSB(&out, []string{"-records", "100", "-duration", "20ms", "-threads", "2", "-fs", "simurgh,nova"})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"A", "B", "C", "D", "E", "F"} {
			v := rowValues(t, out.String(), "Run"+spec)
			if len(v) != 2 || v[0] <= 0 || v[1] <= 0 {
				t.Fatalf("Run%s row = %v, want two positive rates", spec, v)
			}
		}
	})

	t.Run("breakdown", func(t *testing.T) {
		var out strings.Builder
		// At 2,000 rows a LoadA pass takes milliseconds, so its window
		// is a few dozen passes rather than a thousand collections.
		if err := runBreakdown(&out, []string{"-fs", "simurgh", "-records", "2000"}); err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"YCSB LoadA", "Tar Pack", "Git Commit"} {
			v := rowValues(t, out.String(), label)
			if len(v) != 4 || v[3] < 1 {
				t.Fatalf("%s row = %v, want three shares and a pass count", label, v)
			}
			var sum float64
			for _, share := range v[:3] {
				if share < 0 || share > 100 {
					t.Fatalf("%s row = %v: share outside [0, 100]", label, v)
				}
				sum += share
			}
			if math.Abs(sum-100) > 0.1 {
				t.Fatalf("%s row = %v: shares sum to %.2f", label, v, sum)
			}
		}
	})
}
