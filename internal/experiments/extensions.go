package experiments

import (
	"fmt"
	"math/rand"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

// The paper's outlook announces two further investigations: "the influence
// of don't care-edges and different operators on the performance" (§5).
// These experiments realize both.

// DontCareSweep measures the expected operations per event and the automaton
// size as the fraction of don't-care predicates per attribute grows. More
// don't-care predicates create complement "(*)" edges, shrink D₀ (fewer
// early rejections) and increase state sharing.
func DontCareSweep(seed int64) (Table, error) {
	const (
		nAttrs       = 3
		profileCount = 400
	)
	fractions := []float64{0, 0.2, 0.4, 0.6, 0.8}
	s := SchemaND(nAttrs)
	eds := make([]dist.Dist, nAttrs)
	for i := range eds {
		d, err := distByName("gauss", s.At(i).Domain)
		if err != nil {
			return Table{}, err
		}
		eds[i] = d
	}

	t := Table{
		Title:  "Extension — influence of don't-care edges (paper §5 outlook)",
		Metric: "per don't-care fraction",
	}
	linear := Series{Label: "ops/event (V1 linear)"}
	binary := Series{Label: "ops/event (binary)"}
	nodes := Series{Label: "automaton nodes"}
	matchP := Series{Label: "match probability"}

	rng := rand.New(rand.NewSource(seed))
	for _, frac := range fractions {
		t.Columns = append(t.Columns, fmt.Sprintf("dc=%.0f%%", frac*100))
		profiles := genProfilesEqualityND(s, profileCount, eds, frac, rng)
		tr, err := tree.Build(s, profiles, tree.WithSearch(tree.SearchLinear))
		if err != nil {
			return Table{}, err
		}
		vo := selectivity.V1(eds, true)
		tr.ApplyValueOrder(vo)
		a := selectivity.Analyze(tr, eds)
		linear.Values = append(linear.Values, a.TotalOps)
		binary.Values = append(binary.Values, selectivity.Analyze(tr.WithStrategy(tree.SearchBinary, vo), eds).TotalOps)
		nodes.Values = append(nodes.Values, float64(tr.Stats().Nodes))
		matchP.Values = append(matchP.Values, a.MatchProb)
	}
	t.Series = []Series{linear, binary, nodes, matchP}
	return t, nil
}

// operatorMix describes one profile-corpus flavor for OperatorSweep.
type operatorMix struct {
	name string
	gen  func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile
}

// OperatorSweep measures how the predicate operator family influences the
// filter: equality tests (many point subranges), narrow ranges, wide
// overlapping ranges, inequalities (two-sided complements) and set
// containment.
func OperatorSweep(seed int64) (Table, error) {
	const profileCount = 300
	s := Schema1D()
	dom := s.At(0).Domain
	hi := int(dom.Hi())
	pe, err := distByName("gauss", dom)
	if err != nil {
		return Table{}, err
	}

	mixes := []operatorMix{
		{"equality", func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile {
			pr, _ := predicate.NewComparison(0, predicate.OpEq, float64(rng.Intn(hi+1)))
			p, _ := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
			return p
		}},
		{"narrow-range", func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile {
			lo := rng.Intn(hi - 3)
			pr, _ := predicate.NewRange(0, float64(lo), float64(lo+3))
			p, _ := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
			return p
		}},
		{"wide-range", func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile {
			lo := rng.Intn(hi / 2)
			pr, _ := predicate.NewRange(0, float64(lo), float64(lo+hi/3))
			p, _ := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
			return p
		}},
		{"inequality", func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile {
			pr, _ := predicate.NewComparison(0, predicate.OpNe, float64(rng.Intn(hi+1)))
			p, _ := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
			return p
		}},
		{"set", func(s *schema.Schema, i int, rng *rand.Rand) *predicate.Profile {
			vs := []float64{float64(rng.Intn(hi + 1)), float64(rng.Intn(hi + 1)), float64(rng.Intn(hi + 1))}
			pr, _ := predicate.NewIn(0, vs...)
			p, _ := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
			return p
		}},
	}

	t := Table{
		Title:  "Extension — influence of predicate operators (paper §5 outlook)",
		Metric: "per operator family",
	}
	linear := Series{Label: "ops/event (V1 linear)"}
	binary := Series{Label: "ops/event (binary)"}
	edges := Series{Label: "root subrange edges"}
	expM := Series{Label: "expected matches/event"}

	eds := []dist.Dist{pe}
	for _, mix := range mixes {
		t.Columns = append(t.Columns, mix.name)
		rng := rand.New(rand.NewSource(seed))
		profiles := make([]*predicate.Profile, 0, profileCount)
		for i := 0; i < profileCount; i++ {
			if p := mix.gen(s, i, rng); p != nil {
				profiles = append(profiles, p)
			}
		}
		tr, err := tree.Build(s, profiles, tree.WithSearch(tree.SearchLinear))
		if err != nil {
			return Table{}, err
		}
		vo := selectivity.V1(eds, true)
		tr.ApplyValueOrder(vo)
		a := selectivity.Analyze(tr, eds)
		linear.Values = append(linear.Values, a.TotalOps)
		binary.Values = append(binary.Values, selectivity.Analyze(tr.WithStrategy(tree.SearchBinary, vo), eds).TotalOps)
		edges.Values = append(edges.Values, float64(len(tr.Root().Edges())))
		expM.Values = append(expM.Values, a.ExpMatches)
	}
	t.Series = []Series{linear, binary, edges, expM}
	return t, nil
}

// SearchSweep contrasts all five node-search strategies analytically on one
// workload grid — the head-to-head the paper's outlook calls for
// ("binary-, interpolation-, or hash-based search within attribute-values").
func SearchSweep(seed int64) (Table, error) {
	combos := []combo{
		{"equal", "equal"}, {"gauss", "equal"}, {"95% low", "equal"},
		{"equal", "95% low"}, {"95% low", "95% low"},
	}
	strategies := []tree.Search{
		tree.SearchLinear, tree.SearchLinearNoStop, tree.SearchBinary,
		tree.SearchInterpolation, tree.SearchHash,
	}
	t := Table{
		Title:  "Extension — node search strategies head-to-head (TV4, V1 order)",
		Metric: "average #operations per event",
	}
	for _, c := range combos {
		t.Columns = append(t.Columns, c.String())
	}
	s := Schema1D()
	for _, strategy := range strategies {
		series := Series{Label: strategy.String()}
		for ci, c := range combos {
			pe, err := distByName(c.pe, s.At(0).Domain)
			if err != nil {
				return Table{}, err
			}
			pp, err := distByName(c.pp, s.At(0).Domain)
			if err != nil {
				return Table{}, err
			}
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			profiles := GenProfiles1D(s, ProfilesPerCell, pp, rng)
			tr, err := tree.Build(s, profiles, tree.WithSearch(strategy))
			if err != nil {
				return Table{}, err
			}
			eds := []dist.Dist{pe}
			tr.ApplyValueOrder(selectivity.V1(eds, true))
			series.Values = append(series.Values, selectivity.Analyze(tr, eds).TotalOps)
		}
		t.Series = append(t.Series, series)
	}
	return t, nil
}
