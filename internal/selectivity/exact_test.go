package selectivity_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

// wideEdges is the subrange edges from which the tree searches a node by
// interpolation instead of a probe tree.
const wideEdges = 16

// TestAnalyzeIsExact enumerates every event of small integer schemas whose
// automata have wide nodes, and holds Analyze's expected operations under
// the tree's own probe to the mean of Tree.Match's operations over the
// events, each weighted by its mass, to 1e-9: under uniform events and under
// peaked ones, on a tree laid out for each. An interpolation probe's cost
// varies inside a piece of a wide node, so this holds only where Analyze
// charges each part of a piece its own cost.
func TestAnalyzeIsExact(t *testing.T) {
	grid := func(attrs, hi, profiles int, seed int64) (*schema.Schema, []*predicate.Profile) {
		as := make([]schema.Attribute, attrs)
		for i := range as {
			d, err := schema.NewIntegerDomain(0, hi)
			if err != nil {
				t.Fatal(err)
			}
			as[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Domain: d}
		}
		s := schema.MustNew(as...)
		rng := rand.New(rand.NewSource(seed))
		var ps []*predicate.Profile
		for i := 0; i < profiles; i++ {
			var preds []predicate.Predicate
			for attr := range attrs {
				if attr > 0 && rng.Intn(4) == 0 {
					continue // don't-care: a complement edge, or a parked profile
				}
				lo := rng.Intn(hi)
				pr, err := predicate.NewRange(attr, float64(lo), float64(lo+rng.Intn(hi/5+1)))
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, pr)
			}
			p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), preds...)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		return s, ps
	}
	corr, corrProfiles := correlationGrid(t)
	cases := []struct {
		name     string
		s        *schema.Schema
		profiles []*predicate.Profile
	}{
		{"correlation grid", corr, corrProfiles},
		{"three attributes", nil, nil},
	}
	cases[1].s, cases[1].profiles = grid(3, 29, 150, 4)
	for _, c := range cases {
		peaked := make([]dist.Dist, c.s.N())
		for i := range peaked {
			shape := dist.PeakHigh(0.9)
			if i%2 == 1 {
				shape = dist.PeakLow(0.8)
			}
			peaked[i] = dist.New(shape, c.s.At(i).Domain)
		}
		for _, ds := range []struct {
			name string
			d    []dist.Dist
		}{{"uniform", uniformDists(c.s)}, {"peaked", peaked}} {
			tr, err := tree.Build(c.s, c.profiles, tree.WithValueOrder(selectivity.V1(ds.d)))
			if err != nil {
				t.Fatal(err)
			}
			wide := 0
			for l, ids := range tr.Levels() {
				for _, id := range ids {
					n, sub := tr.Node(l, id), 0
					for i := range n.Edges() {
						if n.Kind(i) == tree.EdgeSubrange {
							sub++
						}
					}
					if sub >= wideEdges {
						wide++
					}
				}
			}
			if wide == 0 {
				t.Fatalf("%s: no node of %d subrange edges or more", c.name, wideEdges)
			}
			analytic := selectivity.Analyze(tr, ds.d, selectivity.Probe).TotalOps
			mean := 0.0
			vals := make([]float64, c.s.N())
			var walk func(attr int, mass float64)
			walk = func(attr int, mass float64) {
				if attr == len(vals) {
					_, ops := tr.Match(vals)
					mean += mass * float64(ops)
					return
				}
				dom := c.s.At(attr).Domain
				for v := dom.Lo(); v <= dom.Hi(); v++ {
					vals[attr] = v
					walk(attr+1, mass*ds.d[attr].Mass(schema.Point(v)))
				}
			}
			walk(0, 1)
			t.Logf("%s, %s events: %d wide nodes, analytic %.12f, enumerated %.12f", c.name, ds.name, wide, analytic, mean)
			if math.Abs(analytic-mean) > 1e-9 {
				t.Errorf("%s, %s events: Analyze reads %.12f operations per event, the enumeration %.12f", c.name, ds.name, analytic, mean)
			}
		}
	}
}

// correlationGrid is TestAnalyzeUnderCorrelation's schema and profiles: two
// attributes over 0..49, and 25 range profiles watching the (high, high)
// corner.
func correlationGrid(t *testing.T) (*schema.Schema, []*predicate.Profile) {
	d1, _ := schema.NewIntegerDomain(0, 49)
	d2, _ := schema.NewIntegerDomain(0, 49)
	s := schema.MustNew(
		schema.Attribute{Name: "a", Domain: d1},
		schema.Attribute{Name: "b", Domain: d2},
	)
	rng := rand.New(rand.NewSource(15))
	var profiles []*predicate.Profile
	for i := 0; i < 25; i++ {
		p1, _ := predicate.NewRange(0, float64(30+rng.Intn(15)), float64(45+rng.Intn(5)))
		p2, _ := predicate.NewRange(1, float64(30+rng.Intn(15)), float64(45+rng.Intn(5)))
		prof, err := predicate.New(s, predicate.ID(string(rune('a'+i))), p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	return s, profiles
}
