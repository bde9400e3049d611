package tree_test

import (
	"slices"
	"strings"
	"testing"

	"genas/internal/event"
	"genas/internal/experiments"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// paperSchema is the environmental monitoring system of Example 1:
// temperature in [−30,50] °C, humidity in [0,100] %, radiation in [1,100].
func paperSchema(t *testing.T) *schema.Schema {
	t.Helper()
	temp, err := schema.NewNumericDomain(-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	hum, err := schema.NewNumericDomain(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	rad, err := schema.NewNumericDomain(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "radiation", Domain: rad},
	)
}

// paperProfiles are P1–P5 of Example 1.
func paperProfiles(t *testing.T, s *schema.Schema) []*predicate.Profile {
	t.Helper()
	return []*predicate.Profile{
		predicate.MustParse(s, "P1", "profile(temperature >= 35; humidity >= 90)"),
		predicate.MustParse(s, "P2", "profile(temperature >= 30; humidity >= 90)"),
		predicate.MustParse(s, "P3", "profile(temperature >= 30; humidity >= 90; radiation in [35,50])"),
		predicate.MustParse(s, "P4", "profile(temperature in [-30,-20]; humidity <= 5; radiation in [40,100])"),
		predicate.MustParse(s, "P5", "profile(temperature >= 30; humidity >= 80)"),
	}
}

// TestPaperExample1 reproduces Fig. 1 under the paper's scan: the event
// (temperature=30, humidity=90, radiation=2) follows the path [30,35) →
// [90,100] → (*) and is matched by profiles P2 and P5.
func TestPaperExample1(t *testing.T) {
	s := paperSchema(t)
	profiles := paperProfiles(t, s)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	scan := experiments.NewScan(tr, experiments.SearchLinear, experiments.Natural())

	ev := event.MustNew(s, 30, 90, 2)
	matched, ops := scan.Match(ev.Vals)
	if ops <= 0 {
		t.Errorf("expected positive operation count, got %d", ops)
	}
	if got, want := idSet(profiles, matched), "P2,P5"; got != want {
		t.Fatalf("event (30,90,2): matched %v, want %v", got, want)
	}

	// The root must expose exactly the Fig. 1 subranges of temperature:
	// [−30,−20], [30,35), [35,50], with (−20,30) as the zero-subdomain.
	root := tr.Root()
	edges := root.Edges()
	if len(edges) != 3 {
		t.Fatalf("root has %d edges, want 3:\n%s", len(edges), tr.Dump())
	}
	wantIvs := []string{"[-30,-20]", "[30,35)", "[35,50]"}
	for i, e := range edges {
		if k := root.Kind(i); k != tree.EdgeSubrange {
			t.Errorf("root edge %d kind = %v, want subrange", i, k)
		}
		if e.Iv().String() != wantIvs[i] {
			t.Errorf("root edge %d = %s, want %s", i, e.Iv(), wantIvs[i])
		}
	}

	// Fig. 1's (*) edge under [30,35) → [90,100] is the set {P2, P5} parked
	// at the radiation node: they constrain no radiation.
	hum := tr.Node(1, edges[1].To)
	rad := tr.Node(2, hum.Edges()[len(hum.Edges())-1].To)
	if got := idSet(profiles, rad.Extra()); got != "P2,P5" {
		t.Errorf("radiation node under [30,35) → [90,100] parks %v, want P2,P5:\n%s", got, tr.Dump())
	}

	// Match sets along the Fig. 1 paths.
	checks := []struct {
		vals []float64
		want []string
	}{
		{[]float64{40, 95, 40}, []string{"P1", "P2", "P3", "P5"}},
		{[]float64{40, 95, 20}, []string{"P1", "P2", "P5"}},
		{[]float64{40, 85, 60}, []string{"P5"}},
		{[]float64{32, 95, 40}, []string{"P2", "P3", "P5"}},
		{[]float64{-25, 3, 60}, []string{"P4"}},
		{[]float64{-25, 3, 20}, nil},  // radiation outside [40,100]
		{[]float64{0, 50, 50}, nil},   // temperature in D₀
		{[]float64{40, 50, 50}, nil},  // humidity in D₀
		{[]float64{-25, 50, 50}, nil}, // humidity mismatch for P4
	}
	for _, c := range checks {
		matched, _ := scan.Match(c.vals)
		if got := idSet(profiles, matched); got != strings.Join(c.want, ",") {
			t.Errorf("event %v: matched %v, want %v", c.vals, got, c.want)
		}
	}
}

// idSet renders a match as its profiles' ids, sorted: a walk lists parked
// profiles first, so only the set is specified.
func idSet[I int | int32](profiles []*predicate.Profile, matched []I) string {
	ids := make([]string, len(matched))
	for i, pi := range matched {
		ids[i] = string(profiles[pi].ID)
	}
	slices.Sort(ids)
	return strings.Join(ids, ",")
}

// TestPaperExample1Naive cross-checks the tree against direct predicate
// evaluation on a value grid.
func TestPaperExample1Naive(t *testing.T) {
	s := paperSchema(t)
	profiles := paperProfiles(t, s)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for temp := -30.0; temp <= 50; temp += 5 {
		for hum := 0.0; hum <= 100; hum += 5 {
			for rad := 1.0; rad <= 100; rad += 11 {
				vals := []float64{temp, hum, rad}
				matched, _ := tr.Match(vals)
				inTree := make(map[string]bool, len(matched))
				for _, pi := range matched {
					inTree[string(profiles[pi].ID)] = true
				}
				for _, p := range profiles {
					if p.Matches(vals) != inTree[string(p.ID)] {
						t.Fatalf("event %v: profile %s tree=%v naive=%v",
							vals, p.ID, inTree[string(p.ID)], p.Matches(vals))
					}
				}
			}
		}
	}
}

// TestPaperExample5 reproduces the lookup-table early-termination walkthrough:
// domain {a,b,c,d,e,f}, defined order f,c,a,b,e,d, tree contains all values
// except 'a'; searching 'a' stops after examining f, c, b — three operations.
func TestPaperExample5(t *testing.T) {
	dom, err := schema.NewCategoricalDomain("a", "b", "c", "d", "e", "f")
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: dom})

	// One equality profile per stored value (all but 'a').
	var profiles []*predicate.Profile
	for _, lbl := range []string{"b", "c", "d", "e", "f"} {
		profiles = append(profiles, predicate.MustParse(s, predicate.ID("p"+lbl), "profile(x = "+lbl+")"))
	}
	tr, err := tree.Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}

	// Defined order f,c,a,b,e,d via explicit ranks (lower rank first).
	rank := map[float64]float64{5: 1, 2: 2, 0: 3, 1: 4, 4: 5, 3: 6} // codes a=0…f=5
	scan := experiments.NewScan(tr, experiments.SearchLinear, experiments.ScanOrder{
		Name: "example5",
		Rank: func(_ int, region []tree.Interval) float64 { return rank[region[0].Lo] },
	})

	codeA, _ := dom.Code("a")
	matched, ops := scan.Match([]float64{float64(codeA)})
	if matched != nil {
		t.Fatalf("value 'a' must not match, got %v", matched)
	}
	if ops != 3 {
		t.Errorf("searching 'a' took %d operations, want 3 (stop at 'b')", ops)
	}

	// Searching 'd' (last in defined order) examines all five stored values.
	codeD, _ := dom.Code("d")
	matched, ops = scan.Match([]float64{float64(codeD)})
	if len(matched) != 1 {
		t.Fatalf("value 'd' must match exactly its profile, got %v", matched)
	}
	if ops != 5 {
		t.Errorf("searching 'd' took %d operations, want 5", ops)
	}

	// Searching 'f' (first in defined order) costs a single operation.
	codeF, _ := dom.Code("f")
	_, ops = scan.Match([]float64{float64(codeF)})
	if ops != 1 {
		t.Errorf("searching 'f' took %d operations, want 1", ops)
	}
}
