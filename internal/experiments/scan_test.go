package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/tree"
)

var searches = []Search{SearchLinear, SearchLinearNoStop, SearchBinary, SearchInterpolation, SearchHash}

// scanCorpus is 25 equality profiles on [0,50] and one range, whose riders
// force a complement edge.
func scanCorpus(t *testing.T) (*schema.Schema, []*predicate.Profile) {
	t.Helper()
	d, err := schema.NewIntegerDomain(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d})
	rng := rand.New(rand.NewSource(41))
	var profiles []*predicate.Profile
	for i := 0; i < 25; i++ {
		profiles = append(profiles, predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), fmt.Sprintf("profile(x = %d)", rng.Intn(51))))
	}
	profiles = append(profiles, predicate.MustParse(s, "range", "profile(x in [10,20])"))
	return s, profiles
}

// pseudo is a value measure that scrambles the natural order.
var pseudo = ScanOrder{Name: "pseudo", Descending: true, Rank: func(_ int, r []tree.Interval) float64 {
	return float64(int64(r[0].Lo*13) % 7)
}}

// TestScanCostIsMatch: for every piece of the root, every search's Cost is
// what its Match spends on a value of that piece, on the piece's edge — the
// bridge between the analytic model and the empirical scenarios.
func TestScanCostIsMatch(t *testing.T) {
	s, profiles := scanCorpus(t)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, search := range searches {
		sc := NewScan(tr, search, pseudo)
		pieces := 0
		for p := tr.Pieces(tr.Root()); p.Next(); pieces++ {
			edge, want := sc.Cost(tr.Root(), &p)
			matched, got := sc.Match([]float64{p.Iv.Lo}) // integer pieces start on an atom
			if got != want {
				t.Fatalf("%v piece %d (%s): Match ops %d != Cost %d", search, pieces, p.Iv, got, want)
			}
			if edge != p.Edge || (edge >= 0) != (matched != nil) {
				t.Fatalf("%v piece %d of edge %d: edge=%d but matched=%v", search, pieces, p.Edge, edge, matched)
			}
		}
		if pieces < 25 {
			t.Fatalf("%v: the root has %d pieces", search, pieces)
		}
		if matched, ops := sc.Match([]float64{99}); matched != nil || ops != 0 {
			t.Errorf("%v out-of-domain: matched=%v ops=%d, want a free reject", search, matched, ops)
		}
	}
}

// TestScanPositionsIncreasing: under any value measure the scan follows
// strictly increasing defined-order positions (Example 5's invariant) and
// visits every edge exactly once.
func TestScanPositionsIncreasing(t *testing.T) {
	s, profiles := scanCorpus(t)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []ScanOrder{Natural(), NaturalDesc(), pseudo} {
		l := NewScan(tr, SearchLinear, order).node(tr.Root())
		seen := make(map[int32]bool)
		for i, ei := range l.scan {
			if seen[ei] || i > 0 && l.orderPos[ei] <= l.orderPos[l.scan[i-1]] {
				t.Fatalf("%s: scan %v over positions %v", order.Name, l.scan, l.orderPos)
			}
			seen[ei] = true
		}
		if len(seen) != len(tr.Root().Edges()) {
			t.Fatalf("%s: the scan covers %d of %d edges", order.Name, len(seen), len(tr.Root().Edges()))
		}
	}
}

// TestUserCentricFavorsPriorityProfiles verifies the paper's user-centric
// claim on the scan: under Measure V3 with profile priorities, the
// high-priority profile's expected notification cost drops relative to the
// event order V1, even though the average cost per event may rise
// ("algorithms based on V2 and V3 lead to inferior average response time
// according to the events, but to faster notifications for profiles with high
// priority", §4.3).
func TestUserCentricFavorsPriorityProfiles(t *testing.T) {
	d, _ := schema.NewIntegerDomain(0, 99)
	s := schema.MustNew(schema.Attribute{Name: "v", Domain: d})

	// The VIP watches value 90; the crowd watches scattered values. Events
	// concentrate where the crowd watches, so the event order puts the VIP's
	// region late in the scan.
	vip := predicate.MustParse(s, "vip", "profile(v = 90)")
	vip.Priority = 50
	profiles := []*predicate.Profile{vip}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		profiles = append(profiles, predicate.MustParse(s, predicate.ID(fmt.Sprintf("c%d", i)), fmt.Sprintf("profile(v = %d)", rng.Intn(50))))
	}
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	eds := []dist.Dist{dist.New(dist.PeakLow(0.9), d)}

	v1 := V1(eds, true)
	pp := V2Empirical(s, profiles, true)
	v3 := ScanOrder{Name: "event*profile-emp", Descending: true, Rank: func(attr int, region []tree.Interval) float64 {
		return v1.Rank(attr, region) * pp.Rank(attr, region)
	}}
	vipCost := func(order ScanOrder) float64 {
		pc := selectivity.Analyze(tr, eds, NewScan(tr, SearchLinear, order).Cost).PerProfile[0]
		if pc.MatchProb == 0 {
			t.Fatal("vip profile unreachable")
		}
		return pc.CondOps
	}
	if eventCentric, userCentric := vipCost(v1), vipCost(v3); userCentric >= eventCentric {
		t.Errorf("user-centric vip cost %.3f must beat event-centric %.3f", userCentric, eventCentric)
	}
}

// randSchema builds a schema with 1–4 attributes of mixed kinds.
func randSchema(rng *rand.Rand) *schema.Schema {
	n := 1 + rng.Intn(4)
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		var d schema.Domain
		switch rng.Intn(3) {
		case 0:
			d, _ = schema.NewNumericDomain(0, 100)
		case 1:
			d, _ = schema.NewIntegerDomain(0, 20)
		default:
			d, _ = schema.NewCategoricalDomain("a", "b", "c", "d")
		}
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("x%d", i), Domain: d}
	}
	return schema.MustNew(attrs...)
}

// randValue draws a value of attribute attr: uniform over the domain,
// truncated onto the grid of a non-numeric one.
func randValue(s *schema.Schema, attr int, rng *rand.Rand) float64 {
	dom := s.At(attr).Domain
	v := dom.Lo() + rng.Float64()*(dom.Hi()-dom.Lo())
	if dom.Kind() != schema.KindNumeric {
		v = float64(int(v))
	}
	return v
}

// randProfile draws a random profile over s with mixed operators.
func randProfile(s *schema.Schema, id int, rng *rand.Rand) *predicate.Profile {
	var preds []predicate.Predicate
	for attr := 0; attr < s.N(); attr++ {
		pick := func() float64 { return randValue(s, attr, rng) }
		switch rng.Intn(7) {
		case 0:
			continue // don't-care
		case 1:
			pr, _ := predicate.NewComparison(attr, predicate.OpEq, pick())
			preds = append(preds, pr)
		case 2:
			pr, _ := predicate.NewComparison(attr, predicate.OpLe, pick())
			preds = append(preds, pr)
		case 3:
			pr, _ := predicate.NewComparison(attr, predicate.OpGe, pick())
			preds = append(preds, pr)
		case 4:
			a, b := pick(), pick()
			if a > b {
				a, b = b, a
			}
			pr, _ := predicate.NewRange(attr, a, b)
			preds = append(preds, pr)
		case 5:
			pr, _ := predicate.NewComparison(attr, predicate.OpNe, pick())
			preds = append(preds, pr)
		default:
			vs := []float64{pick(), pick(), pick()}
			pr, _ := predicate.NewIn(attr, vs...)
			preds = append(preds, pr)
		}
	}
	p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", id)), preds...)
	if err != nil {
		// All attributes fell on don't-care: force one equality.
		pr, _ := predicate.NewComparison(0, predicate.OpEq, randValue(s, 0, rng))
		p, _ = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", id)), pr)
	}
	return p
}

func randEvent(s *schema.Schema, rng *rand.Rand) []float64 {
	vals := make([]float64, s.N())
	for i := range vals {
		vals[i] = randValue(s, i, rng)
	}
	return vals
}

// bruteForce is the oracle: the ascending indices of the profiles whose
// predicates vals satisfies.
func bruteForce(profiles []*predicate.Profile, vals []float64) []int {
	var matched []int
	for i, p := range profiles {
		if p.Matches(vals) {
			matched = append(matched, i)
		}
	}
	return matched
}

// sameSet reports whether a match lists exactly the ascending indices of want,
// each once, in any order: a walk collects parked profiles first.
func sameSet(got []int32, want []int) bool {
	ints := make([]int, len(got))
	for i, pi := range got {
		ints[i] = int(pi)
	}
	return slices.Equal(slices.Sorted(slices.Values(ints)), want)
}

// TestMatcherEquivalence: the tree and the reproduction's five scans over it
// return the brute-force match set on random workloads. This is the central
// correctness property of the whole repository.
func TestMatcherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		s := randSchema(rng)
		profiles := make([]*predicate.Profile, 1+rng.Intn(40))
		for i := range profiles {
			profiles[i] = randProfile(s, i, rng)
		}
		tr, err := tree.Build(s, profiles)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"tree"}
		matchers := []func([]float64) ([]int32, int){tr.Match}
		for _, search := range []Search{SearchLinear, SearchBinary, SearchLinearNoStop, SearchInterpolation, SearchHash} {
			names = append(names, search.String())
			matchers = append(matchers, NewScan(tr, search, Natural()).Match)
		}
		for ev := 0; ev < 120; ev++ {
			vals := randEvent(s, rng)
			want := bruteForce(profiles, vals)
			for i, match := range matchers {
				got, ops := match(vals)
				if !sameSet(got, want) {
					t.Fatalf("trial %d: %s disagrees on %v:\n got %v\nwant %v\nschema %s",
						trial, names[i], vals, got, want, s)
				}
				if ops < 0 {
					t.Fatalf("%s: negative ops", names[i])
				}
			}
		}
	}
}

// TestMatcherEquivalenceUnderReordering: weighing the probe trees by any
// distribution must never change the match result.
func TestMatcherEquivalenceUnderReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randSchema(rng)
	profiles := make([]*predicate.Profile, 25)
	for i := range profiles {
		profiles[i] = randProfile(s, i, rng)
	}
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}

	orders := []tree.ValueOrder{
		tree.NaturalOrder(),
		{Name: "high-first", Mass: func(_ int, r []tree.Interval) float64 { return r[0].Lo * r[0].Lo }},
		{Name: "shuffle", Mass: func(_ int, r []tree.Interval) float64 {
			return float64(1 + int64(r[0].Lo*7919)%97)
		}},
	}
	for _, vo := range orders {
		tr, _, _ := tr.Reordered(vo)
		for ev := 0; ev < 300; ev++ {
			vals := randEvent(s, rng)
			want := bruteForce(profiles, vals)
			got, _ := tr.Match(vals)
			if !sameSet(got, want) {
				t.Fatalf("order %s changed semantics on %v: got %v want %v", vo.Name, vals, got, want)
			}
		}
	}
}
