package selectivity_test

import (
	"math"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

func almost(t *testing.T, name string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Errorf("%s = %.4f, want %.4f (±%g)", name, got, want, eps)
	}
}

// stepOver builds a distribution assigning exact masses to regions of a
// numeric domain. cuts are domain coordinates (ascending, spanning the
// domain); weights[i] is the mass of [cuts[i], cuts[i+1]].
func stepOver(t *testing.T, dom schema.Domain, cuts []float64, weights []float64) dist.Dist {
	t.Helper()
	unit := make([]float64, len(cuts))
	lo, hi := dom.Lo(), dom.Hi()
	for i, c := range cuts {
		unit[i] = (c - lo) / (hi - lo)
	}
	sh, err := dist.NewStepAt("test", unit, weights)
	if err != nil {
		t.Fatal(err)
	}
	return dist.New(sh, dom)
}

// example2Setup builds the single-attribute temperature tree of Example 2:
// subranges x1=[−30,−20], x2=[30,35), x3=[35,50] and zero-subdomain
// x0=(−20,30), with P_e = (2%, 1%, 80%) and P_e(x0)=17%.
func example2Setup(t *testing.T) (*tree.Tree, []dist.Dist) {
	t.Helper()
	temp, err := schema.NewNumericDomain(-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "temperature", Domain: temp})
	profiles := []*predicate.Profile{
		predicate.MustParse(s, "PA", "profile(temperature in [-30,-20])"),
		predicate.MustParse(s, "PB", "profile(temperature >= 30)"),
		predicate.MustParse(s, "PC", "profile(temperature >= 35)"),
	}
	tr, err := tree.Build(s, profiles, tree.WithSearch(tree.SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root().Edges()) != 3 {
		t.Fatalf("want 3 subranges, got %d:\n%s", len(tr.Root().Edges()), tr.Dump())
	}
	pe := stepOver(t, temp,
		[]float64{-30, -20, 30, 35, 50},
		[]float64{0.02, 0.17, 0.01, 0.80})
	return tr, []dist.Dist{pe}
}

// TestPaperExample2 reproduces every number of Example 2.
//
// Event-ordered (Measure V1): E(X) = 0.02·2 + 0.01·3 + 0.8·1 = 0.87 and the
// non-match region x0 ranks second in the defined order, so r0 = 2 and
// R = 0.87 + 2·0.17 = 1.21.
//
// Binary search: E(X) = 0.01·1 + 0.02·2 + 0.8·2 = 1.65, r0 = log2(2p−1) = 2,
// R = 1.65 + 0.34 = 1.99.
func TestPaperExample2(t *testing.T) {
	tr, pe := example2Setup(t)

	v1 := selectivity.V1(pe, true)
	tr.ApplyValueOrder(v1)
	a := selectivity.Analyze(tr, pe)
	almost(t, "V1 E(X)", a.MatchOps, 0.87, 1e-9)
	almost(t, "V1 R0", a.R0Ops, 0.34, 1e-9)
	almost(t, "V1 R", a.TotalOps, 1.21, 1e-9)

	b := selectivity.Analyze(tr.WithStrategy(tree.SearchBinary, v1), pe)
	almost(t, "binary E(X)", b.MatchOps, 1.65, 1e-9)
	almost(t, "binary R0", b.R0Ops, 0.34, 1e-9)
	almost(t, "binary R", b.TotalOps, 1.99, 1e-9)
}

// TestPaperExample2Empirical verifies that posting sampled events through the
// real matcher converges to the analytic expectation (the consistency the
// paper's "statistics objects" simulation relies on, §4.2).
func TestPaperExample2Empirical(t *testing.T) {
	tr, pe := example2Setup(t)
	tr.ApplyValueOrder(selectivity.V1(pe, true))

	rng := newRand(42)
	const nEvents = 200000
	total := 0
	for i := 0; i < nEvents; i++ {
		v := pe[0].Sample(rng)
		_, ops := tr.Match([]float64{v})
		total += ops
	}
	avg := float64(total) / nEvents
	almost(t, "empirical avg ops", avg, 1.21, 0.01)
}

// example3Setup builds the full three-attribute tree with the event
// distributions of Examples 2–4 (independence assumed, as in the paper).
func example3Setup(t *testing.T) (*schema.Schema, []*predicate.Profile, []dist.Dist) {
	t.Helper()
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	rad, _ := schema.NewNumericDomain(1, 100)
	s := schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "radiation", Domain: rad},
	)
	profiles := []*predicate.Profile{
		predicate.MustParse(s, "P1", "profile(temperature >= 35; humidity >= 90)"),
		predicate.MustParse(s, "P2", "profile(temperature >= 30; humidity >= 90)"),
		predicate.MustParse(s, "P3", "profile(temperature >= 30; humidity >= 90; radiation in [35,50])"),
		predicate.MustParse(s, "P4", "profile(temperature in [-30,-20]; humidity <= 5; radiation in [40,100])"),
		predicate.MustParse(s, "P5", "profile(temperature >= 30; humidity >= 80)"),
	}
	// P_e(X1) as in Example 2; P_e(X2), P_e(X3) as given in Example 3, with
	// bucket masses assigned to the tree subranges they align with: humidity
	// [0,5]→5%, (5,80)→60%, [80,90)→25%, [90,100]→10%; radiation
	// [1,35)→90%, [35,40)→5%, [40,50]→2%, (50,100]→3%.
	pe := []dist.Dist{
		stepOver(t, temp, []float64{-30, -20, 30, 35, 50}, []float64{0.02, 0.17, 0.01, 0.80}),
		stepOver(t, hum, []float64{0, 5, 80, 90, 100}, []float64{0.05, 0.60, 0.25, 0.10}),
		stepOver(t, rad, []float64{1, 35, 40, 50, 100}, []float64{0.90, 0.05, 0.02, 0.03}),
	}
	return s, profiles, pe
}

// TestPaperExample3Selectivities checks the Measure A1 values of Example 3:
// s(a1) = 50/80 = 0.625, s(a2) = 75/100 = 0.75, s(a3) = 0 (radiation is
// unspecified in P1, P2, P5, so its zero-subdomain is empty).
func TestPaperExample3Selectivities(t *testing.T) {
	s, profiles, pe := example3Setup(t)
	stats := selectivity.AttributeStats(s, profiles, pe)

	almost(t, "d0(a1)", stats[0].D0Size, 50, 1e-9)
	almost(t, "d(a1)", stats[0].DomainSize, 80, 1e-9)
	almost(t, "A1(a1)", stats[0].A1, 0.625, 1e-9)

	almost(t, "d0(a2)", stats[1].D0Size, 75, 1e-9)
	almost(t, "A1(a2)", stats[1].A1, 0.75, 1e-9)

	almost(t, "d0(a3)", stats[2].D0Size, 0, 1e-9)
	almost(t, "A1(a3)", stats[2].A1, 0, 1e-9)

	// P_e(D0): a1 → 17%, a2 → 60%, a3 → 0.
	almost(t, "PE0(a1)", stats[0].PE0, 0.17, 1e-9)
	almost(t, "PE0(a2)", stats[1].PE0, 0.60, 1e-9)
	almost(t, "PE0(a3)", stats[2].PE0, 0, 1e-9)

	// Both A1 and A2 order the attributes a2 > a1 > a3 ("Reordering based on
	// Measure A2 … leads to the same result").
	for _, m := range []selectivity.AttrMeasure{selectivity.MeasureA1, selectivity.MeasureA2} {
		order := selectivity.OrderAttributes(stats, m, true)
		if order[0] != 1 || order[1] != 0 || order[2] != 2 {
			t.Errorf("%v order = %v, want [1 0 2]", m, order)
		}
	}
}

// TestPaperExample3Reordering reproduces the headline of Example 3: attribute
// reordering by Measure A1 cuts the expected operations per matched event
// dramatically. The paper reports 3.371 → 1.91; under the operation-counting
// convention calibrated on Example 2 our model yields 3.16 → 1.57 (the
// paper's per-level addends 0.568 and 0.702 are not internally consistent
// with its own Examples 2 and 4 — see EXPERIMENTS.md). The first addends
// match the paper exactly: E(X1)=2.44 for the natural tree and E(X2)=0.85
// for the reordered tree, as does E(X1|X2)=0.364.
func TestPaperExample3Reordering(t *testing.T) {
	s, profiles, pe := example3Setup(t)

	natural, err := tree.Build(s, profiles, tree.WithSearch(tree.SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	an := selectivity.Analyze(natural, pe)
	almost(t, "natural E(X1)", an.PerLevelOpsMatched(0), 2.44, 1e-9)

	stats := selectivity.AttributeStats(s, profiles, pe)
	order := selectivity.OrderAttributes(stats, selectivity.MeasureA1, true)
	reordered, err := tree.Build(s, profiles, tree.WithAttributeOrder(order), tree.WithSearch(tree.SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	ar := selectivity.Analyze(reordered, pe)
	almost(t, "reordered E(X2)", ar.PerLevelOpsMatched(0), 0.85, 1e-9)
	almost(t, "reordered E(X1|X2)", ar.PerLevelOpsMatched(1), 0.3645, 1e-4)

	if ar.MatchOps >= an.MatchOps {
		t.Errorf("A1 reordering must reduce matched-path operations: natural %.3f, reordered %.3f",
			an.MatchOps, ar.MatchOps)
	}
	// The improvement factor is in the paper's ballpark (paper: 1.76×).
	ratio := an.MatchOps / ar.MatchOps
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("improvement ratio %.2f outside [1.5, 2.5]", ratio)
	}
}

// TestPaperExample4 applies both reorderings (V1 values + A2 attributes) and
// checks the combined tree beats the A1/natural-value tree of Example 3, and
// that linear search on the reordered tree beats binary search there (paper:
// 1.08 vs 1.616).
func TestPaperExample4(t *testing.T) {
	s, profiles, pe := example3Setup(t)
	stats := selectivity.AttributeStats(s, profiles, pe)
	order := selectivity.OrderAttributes(stats, selectivity.MeasureA2, true)

	combined, err := tree.Build(s, profiles, tree.WithAttributeOrder(order), tree.WithSearch(tree.SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	v1 := selectivity.V1(pe, true)
	combined.ApplyValueOrder(v1)
	av := selectivity.Analyze(combined, pe)

	naturalValues, err := tree.Build(s, profiles, tree.WithAttributeOrder(order), tree.WithSearch(tree.SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	anat := selectivity.Analyze(naturalValues, pe)

	if av.MatchOps >= anat.MatchOps {
		t.Errorf("V1 ordering must improve on natural values: V1 %.3f, natural %.3f",
			av.MatchOps, anat.MatchOps)
	}

	abin := selectivity.Analyze(combined.WithStrategy(tree.SearchBinary, v1), pe)
	if av.MatchOps >= abin.MatchOps {
		t.Errorf("on this distribution V1 linear must beat binary: V1 %.3f, binary %.3f",
			av.MatchOps, abin.MatchOps)
	}
}
