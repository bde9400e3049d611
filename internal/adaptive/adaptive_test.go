package adaptive

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
)

func testEngine(t *testing.T, profileCount int, seed int64) (*core.Engine, *schema.Schema) {
	t.Helper()
	d, _ := schema.NewIntegerDomain(0, 99)
	s := schema.MustNew(schema.Attribute{Name: "v", Domain: d})
	e := core.NewEngine(s, core.Config{})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < profileCount; i++ {
		expr := fmt.Sprintf("profile(v = %d)", rng.Intn(100))
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return e, s
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.Goal != EventCentric || p.Window != 1024 || p.Threshold != 0.1 || p.Bins != 64 {
		t.Errorf("defaults = %+v", p)
	}
	if p.MinHistory != 1024 {
		t.Errorf("MinHistory = %d", p.MinHistory)
	}
}

// TestDriftTriggersRestructure: a strongly drifted stream triggers exactly
// the restructures the thresholds allow, and the restructured tree is
// cheaper for the new distribution.
func TestDriftTriggersRestructure(t *testing.T) {
	e, s := testEngine(t, 50, 7)
	a, err := New(e, Policy{Window: 200, Threshold: 0.15, Bins: 20})
	if err != nil {
		t.Fatal(err)
	}

	before, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	_ = before

	// Feed a heavily peaked stream: mass near value 90.
	src := dist.New(dist.PeakHigh(0.95), s.At(0).Domain)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	if a.Restructures() == 0 {
		t.Fatal("peaked stream must trigger a restructure")
	}
	if a.Seen() != 1000 {
		t.Errorf("seen = %d", a.Seen())
	}

	// After adaptation the engine is ordered (the scan) or weighted (the
	// default search) for the peak: its analytic cost under the observed
	// distribution must beat the same tree left on the uniform prior.
	adapted, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	nat := core.NewEngine(s, core.Config{})
	for _, p := range e.Profiles() {
		if err := nat.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := nat.Rebuild(); err != nil {
		t.Fatal(err)
	}
	natural := selectivity.Analyze(nat.Tree(), e.Config().EventDists)
	if adapted.TotalOps >= natural.TotalOps {
		t.Errorf("adapted %.3f must beat natural %.3f under the drifted distribution",
			adapted.TotalOps, natural.TotalOps)
	}
}

// TestNoRestructureWithoutDrift: a uniform stream matching the prior stays
// put.
func TestNoRestructureWithoutDrift(t *testing.T) {
	e, s := testEngine(t, 30, 11)
	a, err := New(e, Policy{Window: 100, Threshold: 0.2, Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	src := dist.New(dist.UniformShape{}, s.At(0).Domain)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	if a.Restructures() != 0 {
		t.Errorf("uniform stream triggered %d restructures", a.Restructures())
	}
	if a.Checks() == 0 {
		t.Error("drift checks must have run")
	}
}

// TestForceAdapt always restructures.
func TestForceAdapt(t *testing.T) {
	e, s := testEngine(t, 10, 13)
	a, err := New(e, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	src := dist.New(dist.Gauss(), s.At(0).Domain)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	if err := a.ForceAdapt(); err != nil {
		t.Fatal(err)
	}
	if a.Restructures() != 1 {
		t.Errorf("restructures = %d", a.Restructures())
	}
}

// TestUserCentricGoal sets the combined measure.
func TestUserCentricGoal(t *testing.T) {
	e, _ := testEngine(t, 10, 17)
	a, err := New(e, Policy{Goal: UserCentric})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ForceAdapt(); err != nil {
		t.Fatal(err)
	}
	if got := e.Config().ValueMeasure; got != core.ValueCombined {
		t.Errorf("measure = %v, want ValueCombined", got)
	}
}

// TestReorderAttributesGoal rebuilds with A2.
func TestReorderAttributesGoal(t *testing.T) {
	d1, _ := schema.NewIntegerDomain(0, 99)
	d2, _ := schema.NewIntegerDomain(0, 99)
	s := schema.MustNew(
		schema.Attribute{Name: "a", Domain: d1},
		schema.Attribute{Name: "b", Domain: d2},
	)
	e := core.NewEngine(s, core.Config{})
	if err := e.AddProfile(predicate.MustParse(s, "p", "profile(a in [10,20]; b >= 50)")); err != nil {
		t.Fatal(err)
	}
	a, err := New(e, Policy{ReorderAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ForceAdapt(); err != nil {
		t.Fatal(err)
	}
	if got := e.Config().AttrOrdering; got != core.AttrA2 {
		t.Errorf("ordering = %v, want AttrA2", got)
	}
	// Matching still works after the rebuild.
	ids, _, err := e.Match([]float64{15, 60})
	if err != nil || len(ids) != 1 {
		t.Errorf("match after rebuild: %v, %v", ids, err)
	}
}

// TestHistoryReflectsStream: History returns distributions close to the fed
// stream.
func TestHistoryReflectsStream(t *testing.T) {
	e, s := testEngine(t, 5, 19)
	a, err := New(e, Policy{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	src := dist.New(dist.PeakLow(0.9), s.At(0).Domain)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	h := a.History()[0]
	if tv := dist.TotalVariation(h.Shape(), dist.PeakLow(0.9), 10); tv > 0.1 {
		t.Errorf("history TV from source = %g", tv)
	}
}

func TestGoalStrings(t *testing.T) {
	if EventCentric.String() != "event-centric" || UserCentric.String() != "user-centric" {
		t.Error("goal names wrong")
	}
}

// TestHysteresisAfterAdaptation: once the tree is restructured for a stable
// peaked stream, continued traffic from the same distribution triggers no
// further restructures — the threshold provides the stability the paper
// demands of the fragile event-order measure.
func TestHysteresisAfterAdaptation(t *testing.T) {
	e, s := testEngine(t, 40, 23)
	a, err := New(e, Policy{Window: 200, Threshold: 0.12, Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := dist.New(dist.PeakHigh(0.9), s.At(0).Domain)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	after := a.Restructures()
	if after == 0 {
		t.Fatal("initial drift must restructure")
	}
	for i := 0; i < 4000; i++ {
		a.Observe([]float64{src.Sample(rng)})
	}
	if got := a.Restructures(); got > after+1 {
		t.Errorf("stable stream caused %d further restructures", got-after)
	}
}
