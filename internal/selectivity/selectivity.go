// Package selectivity implements the paper's distribution-based selectivity
// measures and the expected-response-time model of §3–§4.
//
// Value selectivity reorders the values tested inside each tree node:
//
//	V1: descending event probability P_e(x_i)
//	V2: descending profile probability P_p(x_i)
//	V3: descending combined probability P_e(x_i)·P_p(x_i)
//
// Attribute selectivity reorders the tree levels:
//
//	A1: s(a_j) = d₀(a_j) / d_j
//	A2: s(a_j) = d₀(a_j)·P_e(D₀(a_j)) / d_j
//	A3: the attribute order minimizing the expected operations under the
//	    conditional distributions (exhaustive, O(n!·(2p−1)))
//
// The response time R(a, P_p, P_e) = E(X) + R₀(P_e, x₀) of Eq. 2 is computed
// by Analyze, which walks the shared-state automaton and weights every
// bucket's search cost by its event probability.
package selectivity

import (
	"errors"
	"fmt"
	"sort"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
	"genas/internal/tree"
)

// ErrTooManyAttributes guards the factorial A3 search.
var ErrTooManyAttributes = errors.New("selectivity: A3 exhaustive search supports at most 8 attributes")

// --- Value orderings -----------------------------------------------------------

// massOf sums an event/profile distribution over a bucket region.
func massOf(d dist.Dist, region []tree.Interval) float64 {
	total := 0.0
	for _, iv := range region {
		total += d.Mass(iv)
	}
	return total
}

// Natural returns the ascending natural value order.
func Natural() tree.ValueOrder { return tree.NaturalOrder() }

// NaturalDesc returns the descending natural value order.
func NaturalDesc() tree.ValueOrder {
	vo := tree.NaturalOrder()
	vo.Name = "natural-desc"
	vo.Descending = true
	return vo
}

// V1 orders values by event probability (Measure V1). dists is indexed by
// schema attribute. The same P_e weighs the probe trees of the weighted search.
func V1(dists []dist.Dist, descending bool) tree.ValueOrder {
	mass := func(attr int, region []tree.Interval) float64 {
		return massOf(dists[attr], region)
	}
	return tree.ValueOrder{Name: suffix("event", descending), Descending: descending, Rank: mass, Mass: mass}
}

// V2 orders values by profile probability (Measure V2).
func V2(pdists []dist.Dist, descending bool) tree.ValueOrder {
	return tree.ValueOrder{
		Name:       suffix("profile", descending),
		Descending: descending,
		Rank: func(attr int, region []tree.Interval) float64 {
			return massOf(pdists[attr], region)
		},
	}
}

// V3 orders values by the product P_e·P_p (Measure V3).
func V3(edists, pdists []dist.Dist, descending bool) tree.ValueOrder {
	return tree.ValueOrder{
		Name:       suffix("event*profile", descending),
		Descending: descending,
		Rank: func(attr int, region []tree.Interval) float64 {
			return massOf(edists[attr], region) * massOf(pdists[attr], region)
		},
		Mass: V1(edists, descending).Mass,
	}
}

// V2Empirical orders values by the priority-weighted fraction of profiles
// referencing them, estimating P_p from the profile set itself when no
// profile distribution is given (the adaptive component's default). Profile
// priorities realize the user-centric approach: regions demanded by
// high-priority subscribers are tested first.
func V2Empirical(s *schema.Schema, profiles []*predicate.Profile, descending bool) tree.ValueOrder {
	return tree.ValueOrder{
		Name:       suffix("profile-emp", descending),
		Descending: descending,
		Rank: func(attr int, region []tree.Interval) float64 {
			total, hit := 0.0, 0.0
			for _, p := range profiles {
				w := p.Weight()
				total += w
				if !p.Constrains(attr) {
					hit += w // don't-care references every region
					continue
				}
				if overlapsAny(p.Pred(attr).Intervals(s.At(attr).Domain), region) {
					hit += w
				}
			}
			if total == 0 {
				return 0
			}
			return hit / total
		},
	}
}

func overlapsAny(a []schema.Interval, b []tree.Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

func suffix(name string, descending bool) string {
	if descending {
		return name
	}
	return name + "-asc"
}

// --- Attribute selectivity ------------------------------------------------------

// AttrStats carries the per-attribute quantities of Measures A1/A2.
type AttrStats struct {
	Attr       int
	DomainSize float64 // d_j
	D0Size     float64 // d₀(a_j), zero when any profile leaves a_j unspecified
	PE0        float64 // P_e(D₀(a_j)), event mass on the zero-subdomain
	A1         float64 // d₀/d
	A2         float64 // d₀·P_e(D₀)/d
}

// AttributeStats computes A1/A2 statistics for every attribute from the full
// profile set. edists may be nil, in which case PE0 and A2 are zero.
func AttributeStats(s *schema.Schema, profiles []*predicate.Profile, edists []dist.Dist) []AttrStats {
	out := make([]AttrStats, s.N())
	for attr := 0; attr < s.N(); attr++ {
		dom := s.At(attr).Domain
		cons := make([]subrange.Constraint, 0, len(profiles))
		for i, p := range profiles {
			if !p.Constrains(attr) {
				cons = append(cons, subrange.Constraint{Profile: i, DontCare: true})
				continue
			}
			cons = append(cons, subrange.Constraint{Profile: i, Intervals: p.Pred(attr).Intervals(dom)})
		}
		dec := subrange.Decompose(dom, cons)
		st := AttrStats{Attr: attr, DomainSize: dec.DomainSize, D0Size: dec.D0Size}
		if dec.DomainSize > 0 {
			st.A1 = dec.D0Size / dec.DomainSize
		}
		if edists != nil && dec.D0Size > 0 {
			for _, g := range dec.Gaps {
				st.PE0 += edists[attr].Mass(g)
			}
			st.A2 = st.A1 * st.PE0
		}
		out[attr] = st
	}
	return out
}

// AttrMeasure selects which attribute selectivity measure drives ordering.
type AttrMeasure int

// Attribute measures.
const (
	MeasureA1 AttrMeasure = iota + 1
	MeasureA2
	MeasureA3
)

// String names the measure.
func (m AttrMeasure) String() string {
	switch m {
	case MeasureA1:
		return "A1"
	case MeasureA2:
		return "A2"
	case MeasureA3:
		return "A3"
	default:
		return fmt.Sprintf("AttrMeasure(%d)", int(m))
	}
}

// OrderAttributes returns the attribute order (most selective first when
// descending=true; the paper's recommended configuration) under Measure A1
// or A2. Ties keep the natural attribute order.
func OrderAttributes(stats []AttrStats, m AttrMeasure, descending bool) []int {
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	score := func(a int) float64 {
		switch m {
		case MeasureA2:
			return stats[a].A2
		default:
			return stats[a].A1
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := score(order[i]), score(order[j])
		if si != sj {
			if descending {
				return si > sj
			}
			return si < sj
		}
		return order[i] < order[j]
	})
	return order
}

// OrderAttributesA3 exhaustively searches all n! attribute orders for the one
// minimizing the analytic expected operations (Measure A3). It returns the
// best order and its expected operations per event.
func OrderAttributesA3(
	s *schema.Schema,
	profiles []*predicate.Profile,
	edists []dist.Dist,
	vo tree.ValueOrder,
	strategy tree.Search,
) ([]int, float64, error) {
	n := s.N()
	if n > 8 {
		return nil, 0, fmt.Errorf("%w: n=%d", ErrTooManyAttributes, n)
	}
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	bestOps := 0.0
	var best []int
	first := true
	var err error
	permute(base, 0, func(order []int) {
		if err != nil {
			return
		}
		tr, buildErr := tree.Build(s, profiles,
			tree.WithAttributeOrder(order), tree.WithSearch(strategy), tree.WithValueOrder(vo))
		if buildErr != nil {
			err = buildErr
			return
		}
		a := Analyze(tr, edists)
		if first || a.TotalOps < bestOps {
			first = false
			bestOps = a.TotalOps
			best = append(best[:0], order...)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return best, bestOps, nil
}

// permute enumerates permutations of xs in place (Heap's algorithm would
// also work; simple recursion keeps the order deterministic).
func permute(xs []int, k int, visit func([]int)) {
	if k == len(xs) {
		visit(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, visit)
		xs[k], xs[i] = xs[i], xs[k]
	}
}
