package tree

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestBuildOfNothing: a Build of no profiles is the automaton that matches
// nothing for free, the one WithoutProfile of a tree's last profile leaves,
// and an insert into it matches like a one-profile Build, in the same
// comparisons.
func TestBuildOfNothing(t *testing.T) {
	s := incrSchema(t)
	order := []int{2, 0, 1}
	empty, err := Build(s, nil, WithAttributeOrder(order))
	if err != nil {
		t.Fatal(err)
	}
	p := predicate.MustParse(s, "p", "profile(num in [2,4]; cat in {b, c})")
	one, err := Build(s, []*predicate.Profile{p}, WithAttributeOrder(order))
	if err != nil {
		t.Fatal(err)
	}
	grown, np := empty.WithProfile(p, NaturalOrder())
	if np != 0 {
		t.Fatalf("the insert into nothing has index %d", np)
	}
	if st := empty.Stats(); st.Nodes != 1 || st.Edges != 0 || st.Profiles != 0 {
		t.Fatalf("a Build of nothing has %+v", st)
	}
	if left := one.WithoutProfile(0); left.Dump() != empty.Dump() || left.Stats().Edges != 0 {
		t.Fatalf("removing the last profile leaves\n%s\na Build of nothing is\n%s", left.Dump(), empty.Dump())
	}
	for _, vals := range probeGrid(s) {
		if m, ops := empty.Match(vals); len(m) != 0 || ops != 0 || empty.MatchAny(vals) {
			t.Fatalf("event %v: a Build of nothing matches %v in %d comparisons", vals, m, ops)
		}
		got, gotOps := grown.Match(vals)
		want, wantOps := one.Match(vals)
		if !slices.Equal(got, want) || gotOps != wantOps {
			t.Fatalf("event %v: the insert into nothing matches %v in %d comparisons, a one-profile Build %v in %d", vals, got, gotOps, want, wantOps)
		}
	}
}

// TestStatsCountsLiveProfiles: Stats.Profiles counts the profiles a tree
// holds, not the dense indices it has handed out, and an index removed twice
// is gone once; a Copied keeps as many.
func TestStatsCountsLiveProfiles(t *testing.T) {
	s, corpus := allocCorpus(t)
	tr, err := Build(s, corpus[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range []int{2, 5, 8, 5} {
		tr = tr.WithoutProfile(pi)
	}
	if got := tr.Stats().Profiles; got != 7 {
		t.Errorf("10 profiles less 3 removed, one of them twice: Stats().Profiles = %d, want 7", got)
	}
	if c, old := tr.Copied(); len(old) != 7 || c.Stats().Profiles != 7 {
		t.Errorf("the copy keeps %d profiles, its Stats().Profiles = %d, want 7", len(old), c.Stats().Profiles)
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
	if st2.Height != 3 || st2.Profiles != 3 {
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

// TestScanPositionsIncreasing: under any weights, and after inserts that lay
// the nodes they split out count-balanced, every node's layout is a binary
// search tree over its subrange edges — its in-order walk visits every edge
// once, in increasing position — so the probe can reach each of them.
func TestScanPositionsIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := gridSchema(t, 2, 30)
	var values [][]int
	for i := 0; i < 40; i++ {
		values = append(values, []int{rng.Intn(31), rng.Intn(31)})
	}
	profiles := eqProfiles(t, s, values...)
	tr, err := Build(s, profiles[:20])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles[20:] {
		tr, _ = tr.WithProfile(p, NaturalOrder())
	}
	for _, vo := range []ValueOrder{NaturalOrder(), saltedMass(31)} {
		re, _, _ := tr.Reordered(vo)
		for _, got := range []*Tree{tr, re} {
			for _, level := range views(got) {
				for _, n := range level {
					if !n.layoutIsSearchTree() {
						t.Fatalf("weights %s: layout %v over %d subrange edges", vo.Name, n.layout, n.nSubrange)
					}
				}
			}
		}
	}
}

// TestCostOfConsistentWithMatch: for every piece, Cost equals the ops the
// real matcher spends on a value from that piece — the bridge between the
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

	tr, err := Build(s, profiles, WithValueOrder(saltedMass(7)))
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	pieces := 0
	for p := tr.Pieces(root); p.Next(); pieces++ {
		probe := p.Iv.Lo // integer-aligned closed pieces start on an atom
		edge, want := p.Cost()
		matched, got := tr.Match([]float64{probe})
		if got != want {
			t.Fatalf("piece %d (%s): Match ops %d != Cost %d", pieces, p.Iv, got, want)
		}
		if edge != p.Edge || (edge >= 0) != (matched != nil) {
			// edge >= 0 at the leaf level means a match set exists.
			t.Fatalf("piece %d of edge %d: edge=%d but matched=%v", pieces, p.Edge, edge, matched)
		}
	}
	if pieces < 25 {
		t.Fatalf("the root has %d pieces", pieces)
	}
}

// TestOutOfDomainEventsRejectFree: values outside the domain match nothing;
// the probe finds out by comparing — the paper's scans had a free bucket
// lookup for it — and counts that.
func TestOutOfDomainEventsRejectFree(t *testing.T) {
	s := gridSchema(t, 2, 9)
	profiles := eqProfiles(t, s, []int{5, -1}, []int{-1, 5})
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if matched, ops := tr.Match([]float64{42, 5}); matched != nil || ops != 2 {
		t.Errorf("out-of-domain: matched=%v ops=%d, want 2", matched, ops)
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

// layoutIsSearchTree reports whether the node's layout is the preorder of a
// binary search tree over exactly its subrange edges or, on a wide node
// (interpMin), which has no probe tree, a directory's run.
func (n *View) layoutIsSearchTree() bool {
	if n.nSubrange >= interpMin {
		return len(n.layout) == layoutLen(n.nSubrange)
	}
	var walk func(pos, lo, hi int) (next int, ok bool)
	walk = func(pos, lo, hi int) (int, bool) {
		if lo > hi {
			return pos, true
		}
		if pos >= len(n.layout) {
			return pos, false
		}
		r := int(n.layout[pos])
		if r < lo || r > hi {
			return pos, false
		}
		next, ok := walk(pos+1, lo, r-1)
		if !ok {
			return next, false
		}
		return walk(next, r+1, hi)
	}
	end, ok := walk(0, 0, int(n.nSubrange)-1)
	return ok && end == len(n.layout)
}

// views returns t's reachable nodes per level, in the order Levels lists them.
func views(t *Tree) [][]View {
	out := make([][]View, len(t.attrOrder))
	for l, ids := range t.Levels() {
		for _, id := range ids {
			out[l] = append(out[l], t.Node(l, id))
		}
	}
	return out
}

// child returns the node n's edge i leads to, and false at the leaf level.
func (t *Tree) child(n View, i int) (View, bool) {
	if int(n.Level)+1 == len(t.attrOrder) {
		return View{}, false
	}
	return t.Node(int(n.Level)+1, n.edges[i].To), true
}

// leafOf returns the match set of n's edge i, nil above the leaf level.
func (t *Tree) leafOf(n View, i int) []int32 {
	if int(n.Level)+1 < len(t.attrOrder) {
		return nil
	}
	return t.Leaf(n.edges[i].To)
}

// at names node n by level and id, a key for maps over nodes.
func (n View) at() nodeAt { return nodeAt{int(n.Level), n.ID} }

// rec returns node n's record: two trees share a node where they share its
// record.
func (t *Tree) rec(n View) *Node { return t.st.nodes.at(n.ID) }

// ints returns a set of dense indices as ints.
func ints(s []int32) []int {
	out := make([]int, len(s))
	for i, pi := range s {
		out[i] = int(pi)
	}
	return out
}
