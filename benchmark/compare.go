package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// loadSet reads a ledger set: the JSON array `-out` appends to, or one
// ledger on its own.
func loadSet(path string) ([]ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []ledger
	if err := json.Unmarshal(b, &set); err != nil {
		var one ledger
		if err1 := json.Unmarshal(b, &one); err1 != nil {
			return nil, fmt.Errorf("%s: neither a ledger set nor a ledger: %w", path, err)
		}
		set = []ledger{one}
	}
	return set, nil
}

// quartiles returns the first quartile, the median and the third quartile as
// Python's statistics.quantiles(v, n=4) (the exclusive method) gives them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// sample is one metric on one workload across the runs of a set.
type sample struct {
	def    metricDef
	values []float64
}

func collect(set []ledger) map[[2]string]*sample {
	out := make(map[[2]string]*sample)
	for _, l := range set {
		for _, m := range l.Metrics {
			k := [2]string{l.Workload, m.Name}
			if out[k] == nil {
				def, ok := metricByName(m.Name)
				if !ok {
					def = metricDef{Name: m.Name, Unit: m.Unit} // a metric this program no longer has: shown, not judged
				}
				out[k] = &sample{def: def}
			}
			out[k].values = append(out[k].values, m.Value)
		}
	}
	return out
}

// verdict applies the metric's bound to two sets of runs. B is worse than A
// when its median is worse by more than the bound. Where either set's own
// spread (interquartile range over median) is wider than the bound, the
// medians cannot be told apart: the row is unresolved unless every run of B
// reads better than every run of A.
func verdict(def metricDef, a, b []float64) (medA, medB, spreadA, spreadB float64, v string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	spreadA, spreadB = div(q3a-q1a, medA), div(q3b-q1b, medB)
	worseBy := div(medB, medA) - 1
	better := func(x, y float64) bool { return x < y }
	if def.Better == higher {
		worseBy = 1 - div(medB, medA)
		better = func(x, y float64) bool { return x > y }
	}
	if def.Bound == 0 {
		return medA, medB, spreadA, spreadB, "-"
	}
	if max(spreadA, spreadB) > def.Bound {
		allBetter := true
		for _, y := range b {
			for _, x := range a {
				if !better(y, x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return medA, medB, spreadA, spreadB, "ok"
		}
		return medA, medB, spreadA, spreadB, "unresolved"
	}
	if worseBy > def.Bound {
		return medA, medB, spreadA, spreadB, "worse"
	}
	return medA, medB, spreadA, spreadB, "ok"
}

// compare prints one row per (workload, metric) found in both sets and
// reports whether any row is worse.
func compare(w io.Writer, pathA, pathB string) (worse bool, err error) {
	setA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	a, b := collect(setA), collect(setB)
	var keys [][2]string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false, fmt.Errorf("%s and %s share no (workload, metric) pair", pathA, pathB)
	}
	order := make(map[string]int)
	for i, n := range workloadNames {
		order[n] = i
	}
	metricOrder := make(map[string]int)
	for i, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		metricOrder[d.Name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return order[keys[i][0]] < order[keys[j][0]]
		}
		return metricOrder[keys[i][1]] < metricOrder[keys[j][1]]
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB/A\tspread A\tspread B\tbound\tverdict\t\n")
	for _, k := range keys {
		sa, sb := a[k], b[k]
		medA, medB, spA, spB, v := verdict(sa.def, sa.values, sb.values)
		worse = worse || v == "worse"
		bound := "-"
		if sa.def.Bound > 0 {
			bound = fmt.Sprintf("%.0f%% %s", 100*sa.def.Bound, sa.def.Better)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%.4f of A\t%.1f%%\t%.1f%%\t%s\t%s\t\n",
			k[0], k[1], sa.def.Unit, medA, len(sa.values), medB, len(sb.values), div(medB, medA), 100*spA, 100*spB, bound, v)
	}
	return worse, tw.Flush()
}
