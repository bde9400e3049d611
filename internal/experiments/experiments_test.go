package experiments

import (
	"math"
	"strings"
	"testing"
)

// The tests in this file assert the qualitative claims of §4.3 — the
// definition of a successful reproduction: who wins, where, and by roughly
// what factor. Absolute values depend on the synthetic distribution catalog
// and are pinned by cmd/reproduce's goldens (cmd/reproduce/testdata).

const seed = 1

func find(t *testing.T, tab Table, label string) []float64 {
	t.Helper()
	for _, s := range tab.Series {
		if strings.HasPrefix(s.Label, label) {
			return s.Values
		}
	}
	t.Fatalf("series %q not found in %q", label, tab.Title)
	return nil
}

func TestFig4aClaims(t *testing.T) {
	tab, err := Fig4a(seed)
	if err != nil {
		t.Fatal(err)
	}
	natural := find(t, tab, "natural")
	event := find(t, tab, "event")
	binary := find(t, tab, "binary")

	// Claim 1: natural order oscillates strongly across combinations.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range natural {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo < 2 {
		t.Errorf("natural order should oscillate: min %.2f max %.2f", lo, hi)
	}

	// Claim 2: binary search is balanced (small spread).
	blo, bhi := math.Inf(1), math.Inf(-1)
	for _, v := range binary {
		blo = math.Min(blo, v)
		bhi = math.Max(bhi, v)
	}
	if bhi/blo > 2.5 {
		t.Errorf("binary search should be balanced: min %.2f max %.2f", blo, bhi)
	}

	// Claim 3: event order never loses to natural order on average and wins
	// at least one cell outright against binary ("no perfect approach":
	// different strategies win different cells).
	eventWins := false
	for i := range event {
		if event[i] > natural[i]+1e-9 {
			t.Errorf("cell %s: event %.2f worse than natural %.2f", tab.Columns[i], event[i], natural[i])
		}
		if event[i] < binary[i] {
			eventWins = true
		}
	}
	if !eventWins {
		t.Error("event order should beat binary search on at least one peaked combination")
	}
	binaryWins := false
	for i := range event {
		if binary[i] < event[i] {
			binaryWins = true
		}
	}
	if !binaryWins {
		t.Error("binary search should win somewhere too (no perfect approach)")
	}
}

func TestFig4bClaims(t *testing.T) {
	tab, err := Fig4b(seed)
	if err != nil {
		t.Fatal(err)
	}
	profile := find(t, tab, "profile order")
	combined := find(t, tab, "event * profile")
	event := find(t, tab, "events order")

	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// "The profile-based reordering (V2) … leads to a decreasing average
	// performance with respect to the events"; "the reordering based on
	// Measure V3 follows a middle course".
	if !(avg(event) < avg(combined) && avg(combined) < avg(profile)) {
		t.Errorf("expected event < event*profile < profile on average, got %.2f / %.2f / %.2f",
			avg(event), avg(combined), avg(profile))
	}
}

func TestFig5Claims(t *testing.T) {
	perEvent, err := Fig5a(seed)
	if err != nil {
		t.Fatal(err)
	}
	perProfile, err := Fig5b(seed)
	if err != nil {
		t.Fatal(err)
	}
	perBoth, err := Fig5c(seed)
	if err != nil {
		t.Fatal(err)
	}

	evEvent := find(t, perEvent, "events order")
	evProfile := find(t, perEvent, "profile order")
	prEvent := find(t, perProfile, "events order")
	prProfile := find(t, perProfile, "profile order")

	// "Algorithms based on V2 and V3 lead to inferior average response time
	// according to the events, but to faster notifications for profiles
	// with high priority": per event, V1 ≤ V2 everywhere; per profile, V2
	// must win at least half the cells.
	for i := range evEvent {
		if evEvent[i] > evProfile[i]+1e-9 {
			t.Errorf("per event, V1 %.2f must not lose to V2 %.2f at %s",
				evEvent[i], evProfile[i], perEvent.Columns[i])
		}
	}
	wins := 0
	for i := range prProfile {
		if prProfile[i] < prEvent[i] {
			wins++
		}
	}
	if wins*2 < len(prProfile) {
		t.Errorf("per profile, V2 should win in at least half the cells; won %d/%d", wins, len(prProfile))
	}

	// The per-event-and-profile metric lands in the paper's sub-1 range.
	for _, s := range perBoth.Series {
		for i, v := range s.Values {
			if v <= 0 || v > 60 {
				t.Errorf("5(c) %s at %s = %.3f out of plausible range", s.Label, perBoth.Columns[i], v)
			}
		}
	}
}

func TestFig6Claims(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(int64) (Table, error)
	}{{"6a", Fig6a}, {"6b", Fig6b}} {
		tab, err := fig.run(seed)
		if err != nil {
			t.Fatal(err)
		}
		linear := find(t, tab, "event desc")
		binary := find(t, tab, "binary")
		col := func(name string) int {
			for i, c := range tab.Columns {
				if c == name {
					return i
				}
			}
			t.Fatalf("column %q missing", name)
			return -1
		}
		for _, ed := range []string{"equal", "gauss", "relgauss-low"} {
			nat := col(ed + " natur.")
			asc := col(ed + " asc.")
			desc := col(ed + " desc.")
			// Ascending order is the stated worst case; descending the best.
			if !(linear[desc] <= linear[nat]+1e-9 && linear[nat] <= linear[asc]+1e-9) {
				t.Errorf("%s/%s: want desc ≤ natur ≤ asc, got %.2f / %.2f / %.2f",
					fig.name, ed, linear[desc], linear[nat], linear[asc])
			}
			if binary[asc] < binary[desc] {
				t.Errorf("%s/%s: binary should also benefit from desc ordering", fig.name, ed)
			}
		}
		// The relocated Gauss concentrates on the zero-subdomains, so the
		// descending reordering beats binary search there ("the reordering
		// is faster than binary search since a significant part of the
		// events map onto the zero-subdomain").
		rg := col("relgauss-low desc.")
		if linear[rg] >= binary[rg] {
			t.Errorf("%s: relocated Gauss desc: linear %.2f must beat binary %.2f",
				fig.name, linear[rg], binary[rg])
		}
	}

	// TA1 (wide selectivity spread) must show a larger desc-vs-asc gap than
	// TA2 (small spread) for equal events.
	ta1, err := Fig6a(seed)
	if err != nil {
		t.Fatal(err)
	}
	ta2, err := Fig6b(seed)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(tab Table) float64 {
		linear := find(t, tab, "event desc")
		var asc, desc float64
		for i, c := range tab.Columns {
			switch c {
			case "equal asc.":
				asc = linear[i]
			case "equal desc.":
				desc = linear[i]
			}
		}
		return asc / desc
	}
	if gap(ta1) <= gap(ta2) {
		t.Errorf("TA1 spread %.2f should exceed TA2 spread %.2f", gap(ta1), gap(ta2))
	}
}

func TestFig3Catalog(t *testing.T) {
	tab, err := Fig3(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 10 {
		t.Fatalf("columns = %d", len(tab.Columns))
	}
	for _, s := range tab.Series {
		total := 0.0
		for _, v := range s.Values {
			if v < -1e-12 {
				t.Errorf("%s: negative decile mass %g", s.Label, v)
			}
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: decile masses sum to %g", s.Label, total)
		}
	}
	if _, err := Fig3([]string{"bogus"}); err == nil {
		t.Error("unknown catalog name must fail")
	}
}

func TestScenariosAgree(t *testing.T) {
	// TV3's empirical mean must sit near TV4's analytic value for the same
	// configuration.
	r3, err := TV3(500, "95% low", "equal", "event", seed)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := TV4(500, "95% low", "equal", "event", seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r3.MeanOps-r4.MeanOps) > 0.35*r4.MeanOps {
		t.Errorf("TV3 %.3f vs TV4 %.3f diverge", r3.MeanOps, r4.MeanOps)
	}
	if r3.Events != 4000 {
		t.Errorf("TV3 posted %d events, want 4000", r3.Events)
	}
}

func TestTV2Precision(t *testing.T) {
	r, err := TV2(2, 300, "gauss", "equal", "natural", seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events < minEventsForStop {
		t.Errorf("stopped after %d events, below the floor", r.Events)
	}
	if r.HalfWidth > 0.05*r.MeanOps+1e-9 {
		t.Errorf("precision rule violated: ±%.3f vs mean %.3f", r.HalfWidth, r.MeanOps)
	}
	if r.BuildTime != 0 {
		t.Error("TV2 must not report build time")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "T",
		Metric:  "ops",
		Columns: []string{"c1", "c2"},
		Series:  []Series{{Label: "s", Values: []float64{1, 2}}},
	}
	out := tab.Render()
	for _, want := range []string{"T", "ops", "c1", "c2", "1.000", "2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	best := Table{
		Columns: []string{"a", "b"},
		Series: []Series{
			{Label: "x", Values: []float64{1, 5}},
			{Label: "y", Values: []float64{2, 3}},
		},
	}.Best()
	if best[0] != 0 || best[1] != 1 {
		t.Errorf("Best = %v", best)
	}
}

func TestUnknownNames(t *testing.T) {
	if _, _, err := evalCell(combo{"bogus", "equal"}, "natural", 1); err == nil {
		t.Error("unknown event distribution must fail")
	}
	if _, _, err := evalCell(combo{"equal", "bogus"}, "natural", 1); err == nil {
		t.Error("unknown profile distribution must fail")
	}
	if _, _, err := evalCell(combo{"equal", "equal"}, "sideways", 1); err == nil {
		t.Error("unknown ordering must fail")
	}
	if _, err := TV4(10, "equal", "equal", "sideways", 1); err == nil {
		t.Error("unknown value order must fail")
	}
}
