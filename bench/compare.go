package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// readRuns loads a file of result lines (written with -o) and groups the
// runs by workload and mode, in file order.
func readRuns(path string) (map[string][]runDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]runDoc)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d runDoc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		key := d.Workload + " " + d.Mode
		out[key] = append(out[key], d)
	}
	return out, sc.Err()
}

// verdict is the outcome of one workload x metric comparison.
type verdict struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	pairs, won, lost     int
	outcome              string // improved, unchanged, regressed, unresolved
}

// judge applies the paired-run rule of the choosing-metrics guide (section
// 8) to one metric: `improved` needs at least nine tenths of the pairs won
// (ties count for neither side) and medians further apart than the parent's
// own inter-quartile range; `regressed` means the change's median is worse
// by more than the bound; `unresolved` means the parent's own spread is
// wider than the bound, so neither can be said. Without a bound (per-layer
// metrics) a regression is the mirror image of an improvement.
func judge(d metricDef, parent, change []float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	v := verdict{pairs: n, parentMed: median(parent), changeMed: median(change)}
	v.parentQ1, v.parentQ3 = quartiles(parent)
	v.changeQ1, v.changeQ3 = quartiles(change)
	sign := 1.0 // positive gain = better
	if d.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		switch g := sign * (change[i] - parent[i]); {
		case g > 0:
			v.won++
		case g < 0:
			v.lost++
		}
	}
	gain := sign * (v.changeMed - v.parentMed)
	iqr := v.parentQ3 - v.parentQ1
	base := math.Abs(v.parentMed)
	clear := func(side int) bool { return float64(side) >= 0.9*float64(n) && math.Abs(gain) > iqr }
	switch {
	case d.Bound > 0 && base > 0 && iqr/base > d.Bound:
		v.outcome = "unresolved"
	case d.Bound > 0 && base > 0 && -gain/base > d.Bound:
		v.outcome = "regressed"
	case gain > 0 && clear(v.won):
		v.outcome = "improved"
	case d.Bound == 0 && gain < 0 && clear(v.lost):
		v.outcome = "regressed"
	default:
		v.outcome = "unchanged"
	}
	return v
}

func metricSeries(runs []runDoc, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles over the paired runs, the share of pairs the change won, and
// the verdict. Counts are compared as counts: their difference is printed,
// never a speed-up.
func runCompare(parentPath, changePath string) int {
	var sides [2]map[string][]runDoc
	for i, path := range []string{parentPath, changePath} {
		runs, err := readRuns(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
			return 2
		}
		sides[i] = runs
	}
	return compareRuns(sides[0], sides[1])
}

func compareRuns(parent, change map[string][]runDoc) int {
	code := 0
	for _, w := range workloadNames() {
		for _, mode := range []struct {
			name string
			defs []metricDef
		}{{"end_to_end", slices.Concat(endToEnd, demoted)}, {"trace", perLayer}} {
			p, c := parent[w+" "+mode.name], change[w+" "+mode.name]
			n := min(len(p), len(c))
			if n == 0 {
				continue
			}
			fmt.Printf("%s (%s): %d pairs", w, mode.name, n)
			if n < 10 {
				fmt.Printf(" -- fewer than the ten pairs a claim needs")
			}
			fmt.Println()
			if mode.name == "end_to_end" {
				same := 0
				for i := 0; i < n; i++ {
					if p[i].Seed == c[i].Seed && p[i].EndToEnd != nil && c[i].EndToEnd != nil &&
						p[i].EndToEnd.MatchedTotal == c[i].EndToEnd.MatchedTotal && c[i].Failed == 0 {
						same++
					}
				}
				fmt.Printf("  matched_total identical and nothing failed in %d of %d pairs\n", same, n)
				if same != n {
					code = 1
				}
			}
			fmt.Printf("  %-38s %-9s %34s %34s %9s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "pairs won", "verdict")
			for _, d := range mode.defs {
				ps, cs := metricSeries(p[:n], d.Name), metricSeries(c[:n], d.Name)
				if len(ps) == 0 || len(cs) == 0 {
					continue
				}
				v := judge(d, ps, cs)
				note := ""
				switch {
				case d.Count && v.won+v.lost == 0:
					note = " (count identical in every pair)"
				case d.Count:
					note = fmt.Sprintf(" (count: %+.6g)", v.changeMed-v.parentMed)
				case v.parentMed != 0:
					note = fmt.Sprintf(" (%+.1f%%)", 100*(v.changeMed-v.parentMed)/math.Abs(v.parentMed))
				}
				fmt.Printf("  %-38s %-9s %12.6g [%9.5g, %9.5g] %12.6g [%9.5g, %9.5g] %5d/%-3d  %s%s\n", d.Name, d.Unit,
					v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.changeQ1, v.changeQ3, v.won, v.pairs, v.outcome, note)
				if v.outcome == "regressed" {
					code = 1
				}
			}
		}
	}
	return code
}
