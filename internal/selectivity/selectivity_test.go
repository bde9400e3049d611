package selectivity_test

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/dist"
	"genas/internal/experiments"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

func gridSchema(t *testing.T, n, hi int) *schema.Schema {
	t.Helper()
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		d, err := schema.NewIntegerDomain(0, hi)
		if err != nil {
			t.Fatal(err)
		}
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Domain: d}
	}
	return schema.MustNew(attrs...)
}

func uniformDists(s *schema.Schema) []dist.Dist {
	ds := make([]dist.Dist, s.N())
	for i := range ds {
		ds[i] = dist.New(dist.UniformShape{}, s.At(i).Domain)
	}
	return ds
}

// randomEqProfiles draws equality/range/don't-care profiles.
func randomEqProfiles(t *testing.T, s *schema.Schema, p int, rng *rand.Rand) []*predicate.Profile {
	t.Helper()
	out := make([]*predicate.Profile, 0, p)
	for i := 0; i < p; i++ {
		var preds []predicate.Predicate
		for attr := 0; attr < s.N(); attr++ {
			hi := int(s.At(attr).Domain.Hi())
			switch rng.Intn(3) {
			case 0:
				continue
			case 1:
				pr, _ := predicate.NewComparison(attr, predicate.OpEq, float64(rng.Intn(hi+1)))
				preds = append(preds, pr)
			default:
				lo := rng.Intn(hi)
				pr, _ := predicate.NewRange(attr, float64(lo), float64(lo+rng.Intn(hi-lo+1)))
				preds = append(preds, pr)
			}
		}
		prof, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), preds...)
		if err != nil {
			continue
		}
		out = append(out, prof)
	}
	if len(out) == 0 {
		pr, _ := predicate.NewComparison(0, predicate.OpEq, 1)
		prof, _ := predicate.New(s, "p0", pr)
		out = append(out, prof)
	}
	return out
}

// TestAnalyzeMatchesEmpirical: the analytic expectation agrees with the
// empirical mean over sampled events for the tree's probe and for every scan
// the reproduction models, on random workloads — the property that makes TV4
// a valid substitute for posting millions of events (§4.2 "The result is
// similar to posting the events with the given distribution").
func TestAnalyzeMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		s := gridSchema(t, 1+rng.Intn(3), 15)
		profiles := randomEqProfiles(t, s, 3+rng.Intn(20), rng)
		eds := make([]dist.Dist, s.N())
		for i := range eds {
			switch trial % 3 {
			case 0:
				eds[i] = dist.New(dist.UniformShape{}, s.At(i).Domain)
			case 1:
				eds[i] = dist.New(dist.Gauss(), s.At(i).Domain)
			default:
				eds[i] = dist.New(dist.PeakLow(0.9), s.At(i).Domain)
			}
		}
		tr, err := tree.Build(s, profiles, tree.WithValueOrder(selectivity.V1(eds)))
		if err != nil {
			t.Fatal(err)
		}
		for _, search := range searchModels(tr, experiments.V1(eds, true)) {
			want := selectivity.Analyze(tr, eds, search.cost).TotalOps

			const n = 40000
			total := 0
			vals := make([]float64, s.N())
			for i := 0; i < n; i++ {
				for a := range vals {
					vals[a] = eds[a].Sample(rng)
				}
				_, ops := search.match(vals)
				total += ops
			}
			got := float64(total) / n
			if !schema.AlmostEqual(got, want, 0.05) {
				t.Fatalf("trial %d %s: empirical %.3f vs analytic %.3f", trial, search.name, got, want)
			}
		}
	}
}

// TestAnalyzeProbabilities: MatchProb ∈ [0,1], ExpMatches ≥ MatchProb, and
// per-profile probabilities sum to ExpMatches.
func TestAnalyzeProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := gridSchema(t, 2, 12)
	profiles := randomEqProfiles(t, s, 15, rng)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	eds := uniformDists(s)
	a := selectivity.Analyze(tr, eds, selectivity.Probe)
	if a.MatchProb < 0 || a.MatchProb > 1+1e-9 {
		t.Errorf("MatchProb = %g", a.MatchProb)
	}
	if a.ExpMatches < a.MatchProb-1e-9 {
		t.Errorf("ExpMatches %g < MatchProb %g", a.ExpMatches, a.MatchProb)
	}
	sum := 0.0
	for _, pc := range a.PerProfile {
		sum += pc.MatchProb
	}
	if !schema.AlmostEqual(sum, a.ExpMatches, 1e-9) {
		t.Errorf("Σ per-profile prob %g != ExpMatches %g", sum, a.ExpMatches)
	}
	if a.TotalOps != a.MatchOps+a.R0Ops {
		t.Error("TotalOps decomposition broken")
	}
	for l := 0; l < s.N(); l++ {
		if !schema.AlmostEqual(a.PerLevelOps[l], a.PerLevelMatch[l]+a.PerLevelR0[l], 1e-9) {
			t.Errorf("level %d decomposition broken", l)
		}
	}
}

// TestV1ReducesExpectedOps: on peaked event distributions probe trees
// weighted by V1 must not spend more on matched events than the uniformly
// weighted ones.
func TestV1ReducesExpectedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	s := gridSchema(t, 1, 50)
	profiles := randomEqProfiles(t, s, 30, rng)
	eds := []dist.Dist{dist.New(dist.PeakHigh(0.9), s.At(0).Domain)}

	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	natural := selectivity.Analyze(tr, eds, selectivity.Probe).MatchOps
	tr, _, _ = tr.Reordered(selectivity.V1(eds))
	ordered := selectivity.Analyze(tr, eds, selectivity.Probe).MatchOps
	if ordered > natural+1e-9 {
		t.Errorf("V1 %.3f worse than natural %.3f on matched events", ordered, natural)
	}
}

// TestA3FindsOptimum: the exhaustive A3 search returns an order at least as
// good as both the natural and the A1 orders.
func TestA3FindsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	s := gridSchema(t, 3, 10)
	profiles := randomEqProfiles(t, s, 12, rng)
	eds := make([]dist.Dist, s.N())
	for i := range eds {
		eds[i] = dist.New(dist.RelocatedGauss(0.1), s.At(i).Domain)
	}
	vo := selectivity.V1(eds)

	best, bestOps, err := selectivity.OrderAttributesA3(s, profiles, eds, vo)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 3 {
		t.Fatalf("A3 order = %v", best)
	}
	check := func(order []int) float64 {
		tr, err := tree.Build(s, profiles, tree.WithAttributeOrder(order), tree.WithValueOrder(vo))
		if err != nil {
			t.Fatal(err)
		}
		return selectivity.Analyze(tr, eds, selectivity.Probe).TotalOps
	}
	natOps := check([]int{0, 1, 2})
	st := selectivity.AttributeStats(s, profiles, eds)
	a1Ops := check(selectivity.OrderAttributes(st, selectivity.MeasureA1, true))
	if bestOps > natOps+1e-9 || bestOps > a1Ops+1e-9 {
		t.Errorf("A3 ops %.3f worse than natural %.3f or A1 %.3f", bestOps, natOps, a1Ops)
	}
	if got := check(best); !schema.AlmostEqual(got, bestOps, 1e-9) {
		t.Errorf("A3 reported %.3f but rebuild gives %.3f", bestOps, got)
	}
}

// TestA3RejectsWideSchemas: the factorial search is guarded.
func TestA3RejectsWideSchemas(t *testing.T) {
	s := gridSchema(t, 9, 3)
	rng := rand.New(rand.NewSource(1))
	profiles := randomEqProfiles(t, s, 3, rng)
	_, _, err := selectivity.OrderAttributesA3(s, profiles, uniformDists(s), tree.NaturalOrder())
	if err == nil {
		t.Fatal("9-attribute A3 must be rejected")
	}
}

// TestOrderAttributesStable: ties preserve natural order.
func TestOrderAttributesStable(t *testing.T) {
	stats := []selectivity.AttrStats{
		{Attr: 0, A1: 0.5}, {Attr: 1, A1: 0.5}, {Attr: 2, A1: 0.9},
	}
	order := selectivity.OrderAttributes(stats, selectivity.MeasureA1, true)
	if order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Errorf("order = %v, want [2 0 1]", order)
	}
	asc := selectivity.OrderAttributes(stats, selectivity.MeasureA1, false)
	if asc[0] != 0 || asc[1] != 1 || asc[2] != 2 {
		t.Errorf("asc order = %v, want [0 1 2]", asc)
	}
}

// TestV2EmpiricalPriorities: higher-priority profiles pull their regions
// forward in the scan's defined order.
func TestV2EmpiricalPriorities(t *testing.T) {
	s := gridSchema(t, 1, 9)
	lo := predicate.MustParse(s, "lo", "profile(a0 = 2)")
	hi := predicate.MustParse(s, "hi", "profile(a0 = 7)")
	hi.Priority = 10
	profiles := []*predicate.Profile{lo, hi}

	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Root().Edges()); n != 2 {
		t.Fatalf("edges = %d", n)
	}
	scan := experiments.NewScan(tr, experiments.SearchLinear, experiments.V2Empirical(s, profiles, true))
	if _, ops := scan.Match([]float64{7}); ops != 1 {
		t.Errorf("high-priority region must be scanned first, found after %d operations", ops)
	}
	if _, ops := scan.Match([]float64{2}); ops != 2 {
		t.Errorf("low-priority region must be scanned second, found after %d operations", ops)
	}
}

// TestMeanProfileOpsAndNotification metrics behave sanely.
func TestDerivedMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := gridSchema(t, 2, 10)
	profiles := randomEqProfiles(t, s, 10, rng)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	a := selectivity.Analyze(tr, uniformDists(s), selectivity.Probe)
	if a.ExpMatches > 0 && a.OpsPerNotification() <= 0 {
		t.Error("OpsPerNotification must be positive when matches exist")
	}
	if a.MeanProfileOps() < 0 {
		t.Error("MeanProfileOps negative")
	}
	empty := selectivity.Analysis{}
	if empty.OpsPerNotification() != 0 || empty.MeanProfileOps() != 0 {
		t.Error("empty analysis metrics must be 0")
	}
}

// TestAnalyzeCountsParkedProfiles: on a tree grown by WithProfile, where the
// inserts park don't-care profiles at interior nodes, the analysis is exactly
// what matching every event of the grid gives under the uniform distribution,
// for the tree's probe and for every scan: operations, match probability,
// matches per event and each profile's match probability — the parked
// profiles' on the paths that dead-end below them too.
func TestAnalyzeCountsParkedProfiles(t *testing.T) {
	s := gridSchema(t, 3, 6)
	profiles := randomEqProfiles(t, s, 24, newRand(31))
	tr, err := tree.Build(s, profiles[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles[4:] {
		tr, _ = tr.WithProfile(p, tree.NaturalOrder())
	}
	parked := 0
	for l, level := range tr.Levels() {
		for _, id := range level {
			parked += len(tr.Node(l, id).Extra())
		}
	}
	if parked == 0 {
		t.Fatal("no insert parked a profile: the corpus does not exercise the case")
	}
	for _, search := range searchModels(tr, experiments.Natural()) {
		got := selectivity.Analyze(tr, uniformDists(s), search.cost)

		events, matchedEvents, matches, ops := 0, 0, 0, 0
		perProfile := make([]int, len(profiles))
		for v := 0; v < 7*7*7; v++ {
			matched, o := search.match([]float64{float64(v % 7), float64(v / 7 % 7), float64(v / 49)})
			events, ops, matches = events+1, ops+o, matches+len(matched)
			if len(matched) > 0 {
				matchedEvents++
			}
			for _, pi := range matched {
				perProfile[pi]++
			}
		}
		n := float64(events)
		almost(t, search.name+" TotalOps", got.TotalOps, float64(ops)/n, 1e-9)
		almost(t, search.name+" MatchProb", got.MatchProb, float64(matchedEvents)/n, 1e-9)
		almost(t, search.name+" ExpMatches", got.ExpMatches, float64(matches)/n, 1e-9)
		for pi, c := range perProfile {
			almost(t, fmt.Sprintf("%s profile %d MatchProb", search.name, pi), got.PerProfile[pi].MatchProb, float64(c)/n, 1e-9)
		}
	}
}
