package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/stats"
	"genas/internal/tree"
)

// The four test scenarios of §4.3:
//
//	TV1: creation of the profile tree (n attributes), 10,000 profiles from a
//	     given distribution, event tests until 95% precision for the average
//	     #operations is reached;
//	TV2: full (prebuilt) profile tree, event tests until 95% precision;
//	TV3: full profile tree with one attribute only, 4,000 events;
//	TV4: full profile tree with one attribute only, all possible events,
//	     average #operations computed from the event distribution (Eq. 2).

// ScenarioResult reports one scenario run.
type ScenarioResult struct {
	Scenario  string
	Profiles  int
	Events    uint64
	MeanOps   float64
	HalfWidth float64
	BuildTime time.Duration
	// Analytic is the TV4 expectation for the same configuration (0 when
	// not computed).
	Analytic float64
}

// String renders the result row.
func (r ScenarioResult) String() string {
	s := fmt.Sprintf("%-4s p=%-6d events=%-8d mean ops/event=%.3f ±%.3f",
		r.Scenario, r.Profiles, r.Events, r.MeanOps, r.HalfWidth)
	if r.BuildTime > 0 {
		s += fmt.Sprintf(" build=%s", r.BuildTime.Round(time.Microsecond))
	}
	if r.Analytic > 0 {
		s += fmt.Sprintf(" analytic=%.3f", r.Analytic)
	}
	return s
}

// Precision95 is the stopping rule: 95% CI half-width within 5% of the mean.
const precisionRel = 0.05

// minEventsForStop guards the stopping rule against early flukes.
const minEventsForStop = 2000

// maxEventsCap bounds scenario runtime.
const maxEventsCap = 2_000_000

// TV1 builds an n-attribute tree over profileCount profiles drawn from ppName
// and posts events from peName until the precision criterion holds. The
// build time is part of the scenario (tree "creation" is measured).
func TV1(n, profileCount int, peName, ppName string, vo string, seed int64) (ScenarioResult, error) {
	s := SchemaND(n)
	rng := rand.New(rand.NewSource(seed))

	pds := make([]dist.Dist, n)
	eds := make([]dist.Dist, n)
	for i := 0; i < n; i++ {
		var err error
		if pds[i], err = distByName(ppName, s.At(i).Domain); err != nil {
			return ScenarioResult{}, err
		}
		if eds[i], err = distByName(peName, s.At(i).Domain); err != nil {
			return ScenarioResult{}, err
		}
	}

	// Multi-attribute corpora combine an equality predicate per attribute
	// with a don't-care probability, keeping the automaton representative
	// of mixed workloads.
	profiles := genProfilesEqualityND(s, profileCount, pds, 0.3, rng)

	start := time.Now()
	tr, err := buildOrdered(s, profiles, vo, eds, pds)
	if err != nil {
		return ScenarioResult{}, err
	}
	buildTime := time.Since(start)

	res, err := runUntilPrecise(tr, eds, rng)
	if err != nil {
		return ScenarioResult{}, err
	}
	res.Scenario = "TV1"
	res.Profiles = len(profiles)
	res.BuildTime = buildTime
	return res, nil
}

// TV2 is TV1 with the tree prebuilt (construction excluded).
func TV2(n, profileCount int, peName, ppName string, vo string, seed int64) (ScenarioResult, error) {
	r, err := TV1(n, profileCount, peName, ppName, vo, seed)
	if err != nil {
		return ScenarioResult{}, err
	}
	r.Scenario = "TV2"
	r.BuildTime = 0
	return r, nil
}

// TV3 posts exactly 4,000 events through a one-attribute tree.
func TV3(profileCount int, peName, ppName string, vo string, seed int64) (ScenarioResult, error) {
	s := Schema1D()
	rng := rand.New(rand.NewSource(seed))
	pe, err := distByName(peName, s.At(0).Domain)
	if err != nil {
		return ScenarioResult{}, err
	}
	pp, err := distByName(ppName, s.At(0).Domain)
	if err != nil {
		return ScenarioResult{}, err
	}
	profiles := GenProfiles1D(s, profileCount, pp, rng)
	eds := []dist.Dist{pe}
	tr, err := buildOrdered(s, profiles, vo, eds, []dist.Dist{pp})
	if err != nil {
		return ScenarioResult{}, err
	}

	var run stats.Running
	vals := make([]float64, 1)
	for i := 0; i < 4000; i++ {
		vals[0] = pe.Sample(rng)
		_, ops := tr.Match(vals)
		run.Observe(float64(ops))
	}
	return ScenarioResult{
		Scenario:  "TV3",
		Profiles:  len(profiles),
		Events:    run.N(),
		MeanOps:   run.Mean(),
		HalfWidth: run.HalfWidth95(),
		Analytic:  selectivity.Analyze(tr, eds).TotalOps,
	}, nil
}

// TV4 computes the analytic expectation (Eq. 2) for a one-attribute tree:
// "all possible events, average #operations computed based on #operations
// and event distribution".
func TV4(profileCount int, peName, ppName string, vo string, seed int64) (ScenarioResult, error) {
	s := Schema1D()
	rng := rand.New(rand.NewSource(seed))
	pe, err := distByName(peName, s.At(0).Domain)
	if err != nil {
		return ScenarioResult{}, err
	}
	pp, err := distByName(ppName, s.At(0).Domain)
	if err != nil {
		return ScenarioResult{}, err
	}
	profiles := GenProfiles1D(s, profileCount, pp, rng)
	eds := []dist.Dist{pe}
	tr, err := buildOrdered(s, profiles, vo, eds, []dist.Dist{pp})
	if err != nil {
		return ScenarioResult{}, err
	}
	a := selectivity.Analyze(tr, eds)
	return ScenarioResult{
		Scenario: "TV4",
		Profiles: len(profiles),
		MeanOps:  a.TotalOps,
		Analytic: a.TotalOps,
	}, nil
}

// buildOrdered builds the tree searched by the paper's scan under the named
// value order, or by binary search.
func buildOrdered(s *schema.Schema, profiles []*predicate.Profile, vo string, eds, pds []dist.Dist) (*tree.Tree, error) {
	search := tree.SearchLinear
	if vo == "binary" {
		search = tree.SearchBinary
	}
	tr, err := tree.Build(s, profiles, tree.WithSearch(search))
	if err != nil {
		return nil, err
	}
	switch vo {
	case "", "natural", "binary":
	case "event":
		tr.ApplyValueOrder(selectivity.V1(eds, true))
	case "profile":
		tr.ApplyValueOrder(selectivity.V2(pds, true))
	case "event*profile":
		tr.ApplyValueOrder(selectivity.V3(eds, pds, true))
	default:
		return nil, fmt.Errorf("experiments: unknown value order %q", vo)
	}
	return tr, nil
}

// runUntilPrecise posts sampled events until the 95% CI half-width is within
// 5% of the running mean.
func runUntilPrecise(tr *tree.Tree, eds []dist.Dist, rng *rand.Rand) (ScenarioResult, error) {
	var run stats.Running
	n := len(eds)
	vals := make([]float64, n)
	for {
		for i := 0; i < n; i++ {
			vals[i] = eds[i].Sample(rng)
		}
		_, ops := tr.Match(vals)
		run.Observe(float64(ops))
		if run.PreciseEnough(precisionRel, minEventsForStop) || run.N() >= maxEventsCap {
			break
		}
	}
	return ScenarioResult{
		Events:    run.N(),
		MeanOps:   run.Mean(),
		HalfWidth: run.HalfWidth95(),
		Analytic:  selectivity.Analyze(tr, eds).TotalOps,
	}, nil
}

// genProfilesEqualityND draws profiles with an equality predicate per
// attribute, each attribute independently left don't-care with probability
// dontCare (at least one attribute is always constrained).
func genProfilesEqualityND(s *schema.Schema, count int, pds []dist.Dist, dontCare float64, rng *rand.Rand) []*predicate.Profile {
	profiles := make([]*predicate.Profile, 0, count)
	for i := 0; i < count; i++ {
		preds := make([]predicate.Predicate, 0, s.N())
		constrained := false
		for attr := 0; attr < s.N(); attr++ {
			if rng.Float64() < dontCare && !(attr == s.N()-1 && !constrained) {
				continue
			}
			constrained = true
			pr, err := predicate.NewComparison(attr, predicate.OpEq, pds[attr].Sample(rng))
			if err != nil {
				continue
			}
			preds = append(preds, pr)
		}
		prof, err := predicate.New(s, predicate.ID(fmt.Sprintf("t%05d", i)), preds...)
		if err != nil {
			continue
		}
		profiles = append(profiles, prof)
	}
	return profiles
}
