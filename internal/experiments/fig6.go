package experiments

import (
	"fmt"
	"math/rand"

	"genas/internal/dist"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

// Fig. 6 — attribute reordering. "For each experiment, the profile tree
// contains 5 attributes with different selectivities according to Measure A1
// and A2." Experiment TA1 uses profile distributions with peaks of width
// 10%–80% (wide selectivity spread); TA2 uses distributions that only
// lightly vary. Events are equally distributed, Gauss-distributed, or follow
// a relocated Gauss whose mass concentrates on the zero-subdomains.

// TA1Widths gives attribute coverage fractions 10%–80% (A1 ≈ 0.9…0.2).
var TA1Widths = []float64{0.45, 0.10, 0.80, 0.28, 0.62}

// TA2Widths gives lightly varying coverage (A1 ≈ 0.60…0.45).
var TA2Widths = []float64{0.48, 0.40, 0.55, 0.44, 0.52}

// Fig6ProfileCount keeps the five-attribute trees tractable: range profiles
// over five attributes multiply subranges per level.
const Fig6ProfileCount = 60

// fig6EventDists are the three event distributions of the experiment.
var fig6EventDists = []string{"equal", "gauss", "relgauss-low"}

// fig6Orderings are the three tree orderings: the natural attribute order,
// ascending selectivity (the worst case) and descending selectivity
// (Measure A2's recommendation).
var fig6Orderings = []string{"natur.", "asc.", "desc."}

// Fig6 regenerates Fig. 6(a) (wide selectivity differences, TA1) or 6(b)
// (small differences, TA2). Columns are eventDist × ordering, series are
// the two search strategies of the figure: the event-descending linear
// order and binary search.
func Fig6(widths []float64, title string, seed int64) (Table, error) {
	s := SchemaND(len(widths))
	rng := rand.New(rand.NewSource(seed))
	profiles := GenProfilesND(s, Fig6ProfileCount, widths, rng)
	if len(profiles) == 0 {
		return Table{}, fmt.Errorf("experiments: no profiles generated")
	}

	t := Table{Title: title, Metric: "average #operations per event"}
	linear := Series{Label: "event desc order search"}
	binary := Series{Label: "binary search"}

	for _, edName := range fig6EventDists {
		eds := make([]dist.Dist, s.N())
		for i := 0; i < s.N(); i++ {
			d, err := distByName(edName, s.At(i).Domain)
			if err != nil {
				return Table{}, err
			}
			eds[i] = d
		}
		stats := selectivity.AttributeStats(s, profiles, eds)

		for _, ord := range fig6Orderings {
			var order []int
			switch ord {
			case "natur.":
				order = identity(s.N())
			case "asc.":
				order = selectivity.OrderAttributes(stats, selectivity.MeasureA2, false)
			default:
				order = selectivity.OrderAttributes(stats, selectivity.MeasureA2, true)
			}
			t.Columns = append(t.Columns, edName+" "+ord)

			tr, err := tree.Build(s, profiles, tree.WithAttributeOrder(order), tree.WithSearch(tree.SearchLinear))
			if err != nil {
				return Table{}, err
			}
			vo := selectivity.V1(eds, true)
			tr.ApplyValueOrder(vo)
			linear.Values = append(linear.Values, selectivity.Analyze(tr, eds).TotalOps)

			// Binary search ignores the scan order, so the same automaton is
			// reused, copied for the other strategy.
			binary.Values = append(binary.Values, selectivity.Analyze(tr.WithStrategy(tree.SearchBinary, vo), eds).TotalOps)
		}
	}
	t.Series = []Series{linear, binary}
	return t, nil
}

// Fig6a regenerates Fig. 6(a): wide differences in attribute selectivities.
func Fig6a(seed int64) (Table, error) {
	return Fig6(TA1Widths,
		"Fig. 6(a) — attribute reordering, wide selectivity differences (TA1)", seed)
}

// Fig6b regenerates Fig. 6(b): small differences in attribute selectivities.
func Fig6b(seed int64) (Table, error) {
	return Fig6(TA2Widths,
		"Fig. 6(b) — attribute reordering, small selectivity differences (TA2)", seed)
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
