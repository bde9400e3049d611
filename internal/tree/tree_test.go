package tree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
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

func eqProfiles(t *testing.T, s *schema.Schema, values ...[]int) []*predicate.Profile {
	t.Helper()
	out := make([]*predicate.Profile, len(values))
	for i, vals := range values {
		var preds []predicate.Predicate
		for attr, v := range vals {
			if v < 0 {
				continue // don't-care
			}
			pr, err := predicate.NewComparison(attr, predicate.OpEq, float64(v))
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		}
		p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), preds...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestBuildErrors(t *testing.T) {
	s := gridSchema(t, 2, 9)
	if _, err := Build(s, nil); err != ErrNoProfiles {
		t.Errorf("empty build error = %v", err)
	}
	p := eqProfiles(t, s, []int{1, 2})
	if _, err := Build(s, p, WithAttributeOrder([]int{0, 0})); err == nil {
		t.Error("non-permutation order must fail")
	}
	if _, err := Build(s, p, WithAttributeOrder([]int{0})); err == nil {
		t.Error("short order must fail")
	}
	if _, err := Build(s, p, WithAttributeOrder([]int{0, 2})); err == nil {
		t.Error("out-of-range order must fail")
	}
}

// TestStateSharing: profiles identical on later attributes share subtrees.
func TestStateSharing(t *testing.T) {
	s := gridSchema(t, 3, 9)
	// Four profiles with distinct first values but identical continuation:
	// after level 0 they collapse pairwise to the same alive sets? They
	// differ in identity, so sharing happens where alive sets coincide:
	// build profiles whose level-1 alive sets repeat via don't-care.
	profiles := eqProfiles(t, s,
		[]int{0, 5, -1},
		[]int{1, 5, -1},
		[]int{2, 5, -1},
		[]int{3, 5, -1},
	)
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.SharedHits != 0 {
		// Each root edge holds a distinct singleton alive set; no sharing
		// expected here.
		t.Logf("shared hits: %d", st.SharedHits)
	}
	// Now profiles that genuinely merge: same alive set via multiple paths
	// is impossible with equality roots; instead verify the automaton size
	// stays linear for don't-care-heavy corpora.
	wide := eqProfiles(t, s,
		[]int{-1, 5, -1},
		[]int{-1, 6, -1},
		[]int{-1, -1, 7},
	)
	tr2, err := Build(s, wide)
	if err != nil {
		t.Fatal(err)
	}
	st2 := tr2.Stats()
	if st2.Nodes > 16 {
		t.Errorf("don't-care corpus built %d nodes, expected small shared automaton", st2.Nodes)
	}
	if st2.Height != 3 || st2.ProfileCount != 3 {
		t.Errorf("stats = %+v", st2)
	}
}

// TestSharedSubtreePointerEquality: two root edges whose alive sets coincide
// at the next level point at the same node.
func TestSharedSubtreePointerEquality(t *testing.T) {
	s := gridSchema(t, 2, 9)
	// One profile with don't-care on attribute 0: alive below every root
	// edge region, producing identical child states.
	profiles := eqProfiles(t, s, []int{-1, 4})
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	edges := root.Edges()
	if len(edges) != 1 || root.Kind(0) != EdgeStar {
		t.Fatalf("expected single star edge, got %d edges", len(edges))
	}
	if len(tr.Levels()[1]) != 1 {
		t.Errorf("level 1 has %d unique nodes, want 1", len(tr.Levels()[1]))
	}
}

// TestScanPositionsIncreasing: after any reordering, scanning follows
// strictly increasing defined-order positions (Example 5's invariant).
func TestScanPositionsIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := gridSchema(t, 2, 30)
	var values [][]int
	for i := 0; i < 40; i++ {
		values = append(values, []int{rng.Intn(31), rng.Intn(31)})
	}
	profiles := eqProfiles(t, s, values...)
	tr, err := Build(s, profiles, WithSearch(SearchLinear))
	if err != nil {
		t.Fatal(err)
	}
	orders := []ValueOrder{
		NaturalOrder(),
		{Name: "rand", Descending: true, Rank: func(_ int, r []Interval) float64 {
			return float64(int64(r[0].Lo*31) % 17)
		}},
	}
	for _, vo := range orders {
		tr.ApplyValueOrder(vo)
		for _, level := range tr.Levels() {
			for _, n := range level {
				if !n.scanPositionsIncreasing() {
					t.Fatalf("order %s: scan positions not increasing", vo.Name)
				}
				// Every edge appears exactly once in scan order.
				seen := make(map[int32]bool)
				for _, ei := range n.ScanOrder() {
					if seen[ei] {
						t.Fatal("edge repeated in scan order")
					}
					seen[ei] = true
				}
				if len(seen) != len(n.Edges()) {
					t.Fatalf("scan order covers %d of %d edges", len(seen), len(n.Edges()))
				}
			}
		}
	}
}

// TestCostOfConsistentWithMatch: for every bucket, CostOf equals the ops the
// real matcher spends on a value from that bucket — the bridge between the
// analytic model and the implementation.
func TestCostOfConsistentWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := gridSchema(t, 1, 50)
	var values [][]int
	for i := 0; i < 25; i++ {
		values = append(values, []int{rng.Intn(51)})
	}
	// A couple of don't-care riders force a complement edge.
	profiles := eqProfiles(t, s, values...)
	rangePr, _ := predicate.NewRange(0, 10, 20)
	rp, _ := predicate.New(s, "range", rangePr)
	profiles = append(profiles, rp)

	for _, strategy := range []Search{SearchLinear, SearchLinearNoStop, SearchBinary, SearchInterpolation, SearchHash, SearchWeighted} {
		tr, err := Build(s, profiles, WithSearch(strategy))
		if err != nil {
			t.Fatal(err)
		}
		tr.ApplyValueOrder(ValueOrder{
			Name:       "pseudo",
			Descending: true,
			Rank:       func(_ int, r []Interval) float64 { return float64(int64(r[0].Lo*13) % 7) },
		})
		root := tr.Root()
		pieces := 0
		for p := tr.Pieces(root); p.Next(); pieces++ {
			probe := p.Iv.Lo // integer-aligned closed pieces start on an atom
			edge, want := p.Cost()
			matched, got := tr.Match([]float64{probe})
			if got != want {
				t.Fatalf("%v piece %d (%s): Match ops %d != Cost %d",
					strategy, pieces, p.Iv, got, want)
			}
			if edge != p.Edge || (edge >= 0) != (matched != nil) {
				// edge >= 0 at the leaf level means a match set exists.
				t.Fatalf("%v piece %d of edge %d: edge=%d but matched=%v", strategy, pieces, p.Edge, edge, matched)
			}
		}
		if pieces < 25 {
			t.Fatalf("%v: the root has %d pieces", strategy, pieces)
		}
	}
}

// TestOutOfDomainEventsRejectFree: values outside the domain match nothing,
// and cost nothing where the bucket lookup is free — the weighted probe finds
// out by comparing, and counts that.
func TestOutOfDomainEventsRejectFree(t *testing.T) {
	s := gridSchema(t, 2, 9)
	profiles := eqProfiles(t, s, []int{5, -1}, []int{-1, 5})
	for strategy, wantOps := range map[Search]int{SearchLinear: 0, SearchWeighted: 2} {
		tr, err := Build(s, profiles, WithSearch(strategy))
		if err != nil {
			t.Fatal(err)
		}
		matched, ops := tr.Match([]float64{42, 5})
		if matched != nil || ops != wantOps {
			t.Errorf("%v out-of-domain: matched=%v ops=%d, want %d", strategy, matched, ops, wantOps)
		}
	}
}

// TestDumpContainsStructure: the Fig. 1 renderer mentions every profile.
func TestDumpContainsStructure(t *testing.T) {
	s := gridSchema(t, 2, 9)
	profiles := eqProfiles(t, s, []int{1, 2}, []int{3, -1})
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	dump := tr.Dump()
	for _, want := range []string{"a0", "a1", "p0", "p1"} {
		if !contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestMatchPathLevels: per-level ops sum to the total.
func TestMatchPathLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := gridSchema(t, 3, 20)
	var values [][]int
	for i := 0; i < 30; i++ {
		values = append(values, []int{rng.Intn(21), rng.Intn(21), rng.Intn(21)})
	}
	profiles := eqProfiles(t, s, values...)
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		vals := []float64{float64(rng.Intn(21)), float64(rng.Intn(21)), float64(rng.Intn(21))}
		_, total, perLevel := tr.MatchPath(vals)
		sum := 0
		for _, o := range perLevel {
			sum += o
		}
		if sum != total {
			t.Fatalf("per-level %v sums to %d, total %d", perLevel, sum, total)
		}
		if len(perLevel) > s.N() {
			t.Fatalf("more levels than attributes: %v", perLevel)
		}
	}
}

// scanPositionsIncreasing reports whether the defined-order positions are
// strictly increasing along the scan order.
func (n *Node) scanPositionsIncreasing() bool {
	return sort.SliceIsSorted(n.scan, func(i, j int) bool {
		return n.tab.orderPos[n.scan[i]] < n.tab.orderPos[n.scan[j]]
	})
}
