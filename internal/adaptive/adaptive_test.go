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
	if p.Window != 1024 || p.Threshold != 0.1 || p.Bins != 64 {
		t.Errorf("defaults = %+v", p)
	}
	if p.MinHistory != 1024 {
		t.Errorf("MinHistory = %d", p.MinHistory)
	}
}

// TestDriftTriggersRestructure: a strongly drifted stream triggers exactly
// the restructures the thresholds allow, and the restructured tree is
// cheaper for the new distribution: than the same tree left on the uniform
// prior where its nodes are narrow enough for weighted probe trees, and, on
// the 50-profile corpus, whose wide root is searched by interpolation, no
// dearer than its weighted probe trees were after adapting (2.293 operations
// per event).
func TestDriftTriggersRestructure(t *testing.T) {
	for _, c := range []struct {
		profiles int
		most     float64 // the adapted cost's bound; 0: it must beat the natural one
	}{{50, 2.293}, {12, 0}} {
		e, s := testEngine(t, c.profiles, 7)
		a, err := New(e, Policy{Window: 200, Threshold: 0.15, Bins: 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Analyze(); err != nil {
			t.Fatal(err)
		}

		// Feed a heavily peaked stream: mass near value 90.
		src := dist.New(dist.PeakHigh(0.95), s.At(0).Domain)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			a.Observe([]float64{src.Sample(rng)})
		}
		if a.Restructures() == 0 {
			t.Fatalf("%d profiles: peaked stream must trigger a restructure", c.profiles)
		}
		if a.Seen() != 1000 {
			t.Errorf("%d profiles: seen = %d", c.profiles, a.Seen())
		}

		adapted, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		nat := core.NewEngine(s, core.Config{})
		for _, m := range e.Members() {
			if err := nat.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := nat.Rebuild(); err != nil {
			t.Fatal(err)
		}
		natural := selectivity.Analyze(nat.Tree(), e.Config().EventDists, selectivity.Probe)
		root := len(e.Tree().Root().Edges())
		t.Logf("%d profiles, %d root edges: adapted %.3f, natural %.3f", c.profiles, root, adapted.TotalOps, natural.TotalOps)
		switch {
		case c.most > 0 && adapted.TotalOps > c.most:
			t.Errorf("%d profiles: adapted %.3f, want at most %.3f", c.profiles, adapted.TotalOps, c.most)
		case c.most == 0 && root >= 16:
			t.Fatalf("%d profiles: the root has %d edges, want a narrow node", c.profiles, root)
		case c.most == 0 && adapted.TotalOps >= natural.TotalOps:
			// The engine's probe trees are weighted for the peak.
			t.Errorf("%d profiles: adapted %.3f must beat natural %.3f under the drifted distribution",
				c.profiles, adapted.TotalOps, natural.TotalOps)
		}
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
