package experiments

import (
	"math"
	"testing"
)

func TestDontCareSweep(t *testing.T) {
	tab, err := DontCareSweep(seed)
	if err != nil {
		t.Fatal(err)
	}
	linear := find(t, tab, "ops/event (V1 linear)")
	matchP := find(t, tab, "match probability")
	nodes := find(t, tab, "automaton nodes")

	// Don't-care predicates defeat early rejection: the all-constrained
	// corpus (dc=0%) must be the cheapest column, and match probability must
	// grow monotonically with the don't-care fraction.
	for i := 1; i < len(linear); i++ {
		if linear[0] > linear[i] {
			t.Errorf("dc=0%% (%.2f ops) should be cheapest, column %d has %.2f", linear[0], i, linear[i])
		}
		if matchP[i] < matchP[i-1]-1e-9 {
			t.Errorf("match probability must grow with don't-care fraction: %v", matchP)
		}
	}
	// Complement edges add automaton states over the fully-constrained case.
	if nodes[1] <= nodes[0] {
		t.Errorf("don't-care corpora should enlarge the automaton: %v", nodes)
	}
}

func TestOperatorSweep(t *testing.T) {
	tab, err := OperatorSweep(seed)
	if err != nil {
		t.Fatal(err)
	}
	expM := find(t, tab, "expected matches")
	cols := map[string]int{}
	for i, c := range tab.Columns {
		cols[c] = i
	}
	// Inequality profiles accept almost everything; equality profiles are
	// the most selective family.
	if expM[cols["inequality"]] < 50*expM[cols["equality"]] {
		t.Errorf("inequality should match vastly more than equality: %v", expM)
	}
	if expM[cols["wide-range"]] <= expM[cols["narrow-range"]] {
		t.Errorf("wide ranges should match more than narrow ones: %v", expM)
	}
	edges := find(t, tab, "root subrange edges")
	for i, e := range edges {
		if e <= 0 || e > 2*float64(ProfilesPerCell) {
			t.Errorf("column %d: implausible edge count %g", i, e)
		}
	}
}

func TestSearchSweep(t *testing.T) {
	tab, err := SearchSweep(seed)
	if err != nil {
		t.Fatal(err)
	}
	hash := find(t, tab, "hash")
	interp := find(t, tab, "interpolation")
	binary := find(t, tab, "binary")
	nostop := find(t, tab, "linear-nostop")
	linear := find(t, tab, "linear")
	production := find(t, tab, "production")

	for i := range hash {
		// Idealized hashing answers any discrete-domain lookup in one
		// operation (up to float rounding in the probability weights).
		if math.Abs(hash[i]-1) > 1e-9 {
			t.Errorf("hash ops at %s = %.3f, want 1", tab.Columns[i], hash[i])
		}
		// Early termination never hurts.
		if linear[i] > nostop[i]+1e-9 {
			t.Errorf("early stop made linear worse at %s: %.2f > %.2f",
				tab.Columns[i], linear[i], nostop[i])
		}
		// The production search — a bucket directory on a wide node, the
		// probe tree balanced by P_e on a narrow one — never loses to plain
		// binary search.
		if production[i] > binary[i]+1e-9 {
			t.Errorf("the production search costs %.3f at %s, binary search %.3f", production[i], tab.Columns[i], binary[i])
		}
	}
	// Interpolation beats binary when profile values are uniformly spread
	// (perfectly linear key layout).
	if interp[0] >= binary[0] {
		t.Errorf("interpolation %.2f should beat binary %.2f on uniform keys", interp[0], binary[0])
	}
	// …and degrades toward binary on skewed layouts while staying sane.
	last := len(interp) - 1
	if interp[last] > 4*binary[last] {
		t.Errorf("interpolation degraded implausibly: %.2f vs binary %.2f", interp[last], binary[last])
	}
}
