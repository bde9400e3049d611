package agg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	a, err := schema.NewIntegerDomain(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schema.NewIntegerDomain(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	return schema.MustNew(
		schema.Attribute{Name: "x", Domain: a},
		schema.Attribute{Name: "y", Domain: b},
	)
}

func parse(t *testing.T, s *schema.Schema, id, expr string) *predicate.Profile {
	t.Helper()
	p, err := predicate.Parse(s, predicate.ID(id), expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return p
}

func mustAdd(t *testing.T, po *Poset, p *predicate.Profile) Delta {
	t.Helper()
	if po.Has(p.ID) {
		t.Fatalf("duplicate add %s", p.ID)
	}
	return po.Add(p)
}

// expandAll builds a canonical tree over the poset's roots and runs the
// full match+expand pipeline for one event — the same dance the engine
// performs — returning the sorted concrete ids.
func expandAll(t *testing.T, s *schema.Schema, po *Poset, vals []float64) []string {
	t.Helper()
	roots := po.RootList()
	if len(roots) == 0 {
		return nil
	}
	corpus := make([]*predicate.Profile, len(roots))
	t2n := make([]int32, len(roots))
	for i, r := range roots {
		corpus[i] = r.Rep
		t2n[i] = r.Idx
	}
	tr, err := tree.Build(s, corpus)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	matched, _ := tr.Match(vals)
	snap := po.Freeze()
	ids, _ := snap.Expand(vals, matched, t2n, tr, nil)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return out
}

// direct evaluates every registered member profile directly.
func direct(po *Poset, vals []float64) []string {
	var out []string
	for _, m := range po.Members() {
		if p := m.Profile(); p.Matches(vals) {
			out = append(out, string(p.ID))
		}
	}
	sort.Strings(out)
	return out
}

func TestInterningSharesOneNode(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	// Three spellings of the same constraint: x ∈ [0,50] over domain [0,99].
	mustAdd(t, po, parse(t, s, "a", "profile(x in [0,50])"))
	mustAdd(t, po, parse(t, s, "b", "profile(x <= 50)"))
	if got := po.Stats().Nodes; got != 1 {
		t.Fatalf("x<=50 should intern onto the x in [0,50] node, have %d nodes", got)
	}
	// y >= 0 constrains y nominally (whole domain), so c is a distinct,
	// covered structure — exactly the oracle's verdict.
	if d := mustAdd(t, po, parse(t, s, "c", "profile(x <= 50; y >= 0)")); len(d.Joined)+len(d.Left) != 0 {
		t.Fatalf("a covered structure must leave the root set alone, got %+v", d)
	}
	if got := po.Stats().Nodes; got != 2 {
		t.Fatalf("Stats().Nodes = %d, want 2", got)
	}
	if got := po.SubCount(); got != 3 {
		t.Fatalf("SubCount = %d, want 3", got)
	}
	if got := len(po.RootList()); got != 1 {
		t.Fatalf("roots = %d, want 1 (c hangs beneath a/b's node)", got)
	}
	if rel := po.RelationOf("a", "b"); rel != Equal {
		t.Fatalf("RelationOf(a,b) = %v, want equal", rel)
	}
	if rel := po.RelationOf("a", "c"); rel != Covers {
		t.Fatalf("RelationOf(a,c) = %v, want covers", rel)
	}
	if rel := po.RelationOf("c", "a"); rel != CoveredBy {
		t.Fatalf("RelationOf(c,a) = %v, want covered-by", rel)
	}
}

func TestDemotionOnWiderAdd(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	narrow := mustAdd(t, po, parse(t, s, "n", "profile(x in [10,20])"))
	if len(narrow.Joined) != 1 || len(narrow.Left) != 0 {
		t.Fatalf("first structure must enter as a root, got %+v", narrow)
	}
	wide := mustAdd(t, po, parse(t, s, "w", "profile(x in [0,50])"))
	if len(wide.Joined) != 1 {
		t.Fatalf("wider structure must enter as a root, got %+v", wide)
	}
	if len(wide.Left) != 1 || wide.Left[0] != narrow.Joined[0].Idx {
		t.Fatalf("Left = %v, want [%d]", wide.Left, narrow.Joined[0].Idx)
	}
	if got := len(po.RootList()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
	// Expansion through the single root still reaches both members.
	if got, want := expandAll(t, s, po, []float64{15, 0}), "n,w"; strings.Join(got, ",") != want {
		t.Fatalf("expand(15) = %v, want %s", got, want)
	}
	if got, want := expandAll(t, s, po, []float64{40, 0}), "w"; strings.Join(got, ",") != want {
		t.Fatalf("expand(40) = %v, want %s", got, want)
	}
}

func TestRemoveInternalCovererRelinksAndPromotes(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	// Chain: a ⊇ b ⊇ c, plus d incomparable under a.
	mustAdd(t, po, parse(t, s, "a", "profile(x in [0,80])"))
	mustAdd(t, po, parse(t, s, "b", "profile(x in [10,60])"))
	mustAdd(t, po, parse(t, s, "c", "profile(x in [20,40])"))
	mustAdd(t, po, parse(t, s, "d", "profile(x in [70,80])"))
	if got := len(po.RootList()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
	// Remove the internal coverer b: c must re-link beneath a, no promotion.
	res, ok := po.Remove("b")
	if !ok || po.Stats().Nodes != 3 || len(res.Left) != 0 || len(res.Joined) != 0 {
		t.Fatalf("Remove(b) = %+v ok=%v, want a detached non-root, no promotions", res, ok)
	}
	if rel := po.RelationOf("a", "c"); rel != Covers {
		t.Fatalf("after removing b, RelationOf(a,c) = %v, want covers", rel)
	}
	if got, want := expandAll(t, s, po, []float64{30, 0}), "a,c"; strings.Join(got, ",") != want {
		t.Fatalf("expand(30) = %v, want %s", got, want)
	}
	// Remove the root a: both c and d lose their last parent and re-arm.
	res, ok = po.Remove("a")
	if !ok || po.Stats().Nodes != 2 || len(res.Left) != 1 {
		t.Fatalf("Remove(a) = %+v ok=%v, want a detached root", res, ok)
	}
	if len(res.Joined) != 2 {
		t.Fatalf("Joined = %v, want both c and d", res.Joined)
	}
	if got := len(po.RootList()); got != 2 {
		t.Fatalf("roots = %d, want 2", got)
	}
	if got, want := expandAll(t, s, po, []float64{30, 0}), "c"; strings.Join(got, ",") != want {
		t.Fatalf("expand(30) = %v, want %s", got, want)
	}
	if got, want := expandAll(t, s, po, []float64{75, 0}), "d"; strings.Join(got, ",") != want {
		t.Fatalf("expand(75) = %v, want %s", got, want)
	}
}

func TestRemoveMemberKeepsNode(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	mustAdd(t, po, parse(t, s, "a", "profile(x = 5)"))
	mustAdd(t, po, parse(t, s, "b", "profile(x = 5)"))
	res, ok := po.Remove("a")
	if !ok || len(res.Left) != 0 {
		t.Fatalf("Remove(a) = %+v ok=%v, want member drop without detach", res, ok)
	}
	if got := po.Stats().Nodes; got != 1 {
		t.Fatalf("Stats().Nodes = %d, want 1", got)
	}
	if got, want := expandAll(t, s, po, []float64{5, 0}), "b"; strings.Join(got, ",") != want {
		t.Fatalf("expand(5) = %v, want %s", got, want)
	}
	if _, ok := po.Remove("a"); ok {
		t.Fatalf("second Remove(a) must report unknown")
	}
}

func TestSnapshotSurvivesLaterChurn(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	mustAdd(t, po, parse(t, s, "a", "profile(x in [0,50])"))
	mustAdd(t, po, parse(t, s, "b", "profile(x in [10,20])"))
	roots := po.RootList()
	corpus := []*predicate.Profile{roots[0].Rep}
	t2n := []int32{roots[0].Idx}
	tr, err := tree.Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	snap := po.Freeze()
	// Churn after the freeze: a third member on a's node, then b removed
	// entirely, then a bulk load that renumbers every node once linked.
	mustAdd(t, po, parse(t, s, "c", "profile(x <= 50)"))
	po.Remove("b")
	po.Intern(Bare(parse(t, s, "d", "profile(y = 1)")))
	po.RootList()
	// The frozen snapshot must still expand exactly its freeze-time state.
	matched, _ := tr.Match([]float64{15, 0})
	ids, _ := snap.Expand([]float64{15, 0}, matched, t2n, tr, nil)
	got := make([]string, len(ids))
	for i, id := range ids {
		got[i] = string(id)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "a,b" {
		t.Fatalf("frozen expand = %v, want a,b", got)
	}
}

func TestCompactPreservesSemantics(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	exprs := []string{
		"profile(x in [0,90])",
		"profile(x in [5,60]; y in [0,80])",
		"profile(x in [10,40]; y in [10,50])",
		"profile(x = 20; y = 20)",
		"profile(y in [0,99])",
		"profile(x in [50,90])",
	}
	for i, e := range exprs {
		mustAdd(t, po, parse(t, s, fmt.Sprintf("p%d", i), e))
	}
	// Punch holes: the removals keep the order exact. Then a bulk load
	// compacts the table on its first read.
	po.Remove("p1")
	po.Remove("p5")
	checkReduction(t, po)
	probes := [][]float64{{20, 20}, {0, 0}, {30, 30}, {55, 90}, {90, 99}}
	var before []string
	for _, pr := range probes {
		before = append(before, strings.Join(expandAll(t, s, po, pr), ","))
	}
	po.Intern(Bare(parse(t, s, "p1", exprs[1])))
	po.Remove("p1")
	po.RootList()
	if got := len(po.nodes); got != po.Stats().Nodes {
		t.Fatalf("Compact left holes: len(nodes)=%d live=%d", got, po.Stats().Nodes)
	}
	checkReduction(t, po)
	for i, pr := range probes {
		after := strings.Join(expandAll(t, s, po, pr), ",")
		if after != before[i] {
			t.Fatalf("probe %v: compacted expand %q != pre-compact %q", pr, after, before[i])
		}
		if want := strings.Join(direct(po, pr), ","); after != want {
			t.Fatalf("probe %v: expand %q != direct evaluation %q", pr, after, want)
		}
	}
}

// TestBulkInternKeepsNoDirtyList: while nodes wait to be linked the pending
// Compact re-records every node, so a bulk load must not queue one dirty entry
// per subscriber first; and a member change made while unlinked still shows in
// the image Freeze publishes.
func TestBulkInternKeepsNoDirtyList(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	for i := 0; i < 1000; i++ {
		po.Intern(Bare(parse(t, s, fmt.Sprintf("s%d", i), fmt.Sprintf("profile(x = %d)", i%10))))
	}
	po.Remove("s0")
	if len(po.dirty) > 1 || cap(po.dirty) > 10 {
		t.Fatalf("1000 interned subscribers queued %d dirty entries (cap %d)", len(po.dirty), cap(po.dirty))
	}
	if got, want := strings.Join(expandAll(t, s, po, []float64{0, 0}), ","), strings.Join(direct(po, []float64{0, 0}), ","); got != want {
		t.Fatalf("expand %q != direct evaluation %q", got, want)
	}
}

// TestFreedIndexIsReused: a removed structure frees its index, and the next
// new structure takes it over, so the node table never grows past the peak
// live node count. A reused index is not the newest, so placing its node
// scans the whole table: here it lands between two nodes placed after it
// (the direct edge between them goes), and the order stays the transitive
// reduction.
func TestFreedIndexIsReused(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	mustAdd(t, po, parse(t, s, "narrow", "profile(x in [0,10])"))
	mustAdd(t, po, parse(t, s, "wide", "profile(x in [0,90])"))
	mustAdd(t, po, parse(t, s, "inner", "profile(x in [20,30])"))
	freed := po.bySub["narrow"].idx
	if d, _ := po.Remove("narrow"); len(d.Left) != 0 || len(d.Joined) != 0 {
		t.Fatalf("removing a covered structure changed the roots: %+v", d)
	}
	d := mustAdd(t, po, parse(t, s, "mid", "profile(x in [15,40])"))
	if n := po.bySub["mid"]; n.idx != freed || len(po.nodes) != 3 || len(d.Left) != 0 || len(d.Joined) != 0 {
		t.Fatalf("the new structure took index %d of a %d-node table (freed %d), delta %+v", n.idx, len(po.nodes), freed, d)
	}
	checkReduction(t, po)
	if got := po.RelationOf("wide", "mid"); got != Covers {
		t.Fatalf("wide is %v mid", got)
	}
	if got := po.RelationOf("mid", "inner"); got != Covers {
		t.Fatalf("mid is %v inner", got)
	}
	for _, pr := range [][]float64{{25, 0}, {35, 0}, {5, 0}, {95, 0}} {
		if got, want := strings.Join(expandAll(t, s, po, pr), ","), strings.Join(direct(po, pr), ","); got != want {
			t.Fatalf("probe %v: expand %q != direct evaluation %q", pr, got, want)
		}
	}
	// Churn of distinct structures keeps the table at its peak.
	for i := range 100 {
		id := predicate.ID(fmt.Sprintf("c%d", i))
		mustAdd(t, po, parse(t, s, string(id), fmt.Sprintf("profile(y = %d)", i)))
		po.Remove(id)
	}
	if len(po.nodes) != 4 || len(po.keys) != 4 {
		t.Fatalf("100 pairs grew the table to %d nodes, %d keys; the peak live count is 4", len(po.nodes), len(po.keys))
	}
	checkReduction(t, po)
}

func TestStatsShape(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	mustAdd(t, po, parse(t, s, "a", "profile(x in [0,80])"))
	mustAdd(t, po, parse(t, s, "b", "profile(x in [10,60])"))
	mustAdd(t, po, parse(t, s, "c", "profile(x in [20,40])"))
	mustAdd(t, po, parse(t, s, "d", "profile(y in [0,50])"))
	st := po.Stats()
	if st.Subscriptions != 4 || st.Nodes != 4 {
		t.Fatalf("Stats = %+v, want 4 subs / 4 nodes", st)
	}
	if st.Roots != 2 {
		t.Fatalf("Roots = %d, want 2 (the chain head and the y-range)", st.Roots)
	}
	if st.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3 (a ⊐ b ⊐ c)", st.MaxDepth)
	}
}

// TestDiamondExpansionDedup pins the DAG case: one node reachable from two
// matched roots must be emitted once.
func TestDiamondExpansionDedup(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	mustAdd(t, po, parse(t, s, "left", "profile(x in [0,50])"))
	mustAdd(t, po, parse(t, s, "right", "profile(y in [0,50])"))
	mustAdd(t, po, parse(t, s, "both", "profile(x in [10,20]; y in [10,20])"))
	if got := len(po.RootList()); got != 2 {
		t.Fatalf("roots = %d, want 2", got)
	}
	if rel := po.RelationOf("left", "both"); rel != Covers {
		t.Fatalf("RelationOf(left,both) = %v, want covers", rel)
	}
	if rel := po.RelationOf("right", "both"); rel != Covers {
		t.Fatalf("RelationOf(right,both) = %v, want covers", rel)
	}
	got := expandAll(t, s, po, []float64{15, 15})
	if strings.Join(got, ",") != "both,left,right" {
		t.Fatalf("expand = %v, want both,left,right exactly once each", got)
	}
}

// TestHashCollisionsInternApart forces every form onto one hash bucket: equal
// forms must still share a node, distinct ones must not, and a node leaving
// the bucket — from its head, its middle or its tail — must take only itself.
func TestHashCollisionsInternApart(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	po.hash = func([]span) uint64 { return 7 }
	exprs := []string{"profile(x = 1)", "profile(x = 2)", "profile(x = 3)", "profile(x = 4)"}
	for i, e := range exprs {
		mustAdd(t, po, parse(t, s, fmt.Sprintf("p%d", i), e))
		po.Intern(Bare(parse(t, s, fmt.Sprintf("twin%d", i), e)))
	}
	if po.Stats().Nodes != len(exprs) || po.SubCount() != 2*len(exprs) || len(po.byForm) != 1 {
		t.Fatalf("%d nodes, %d subscriptions in %d buckets, want %d, %d in 1", po.Stats().Nodes, po.SubCount(), len(po.byForm), len(exprs), 2*len(exprs))
	}
	for i := range exprs {
		if rel := po.RelationOf(predicate.ID(fmt.Sprintf("p%d", i)), predicate.ID(fmt.Sprintf("twin%d", i))); rel != Equal {
			t.Fatalf("p%d and twin%d are %v, want equal", i, i, rel)
		}
	}
	// The chain reads newest first: p3, p2, p1, p0. Drop its middle, its tail,
	// its head, then the last node and with it the bucket.
	for step, i := range []int{2, 0, 3, 1} {
		for _, id := range []string{fmt.Sprintf("p%d", i), fmt.Sprintf("twin%d", i)} {
			if _, ok := po.Remove(predicate.ID(id)); !ok {
				t.Fatalf("remove %s: unknown", id)
			}
		}
		if want := len(exprs) - step - 1; po.Stats().Nodes != want {
			t.Fatalf("after removing structure %d: %d nodes, want %d", i, po.Stats().Nodes, want)
		}
		for j := range exprs {
			got := strings.Join(expandAll(t, s, po, []float64{float64(j + 1), 0}), ",")
			if want := strings.Join(direct(po, []float64{float64(j + 1), 0}), ","); got != want {
				t.Fatalf("after removing structure %d: x=%d expands to %q, direct evaluation %q", i, j+1, got, want)
			}
		}
	}
	if len(po.byForm) != 0 {
		t.Fatalf("empty poset keeps %d buckets", len(po.byForm))
	}
	// A structure that left can come back, onto a fresh node.
	if d := mustAdd(t, po, parse(t, s, "again", exprs[0])); len(d.Joined) != 1 {
		t.Fatalf("re-added structure joined %v", d.Joined)
	}
}

// checkReduction fails unless po's edges are exactly the transitive
// reduction of its covering order: parents and kids mirror each other, every
// edge is a strict covering, and no edge is implied by a path through another
// kid of the same parent.
func checkReduction(t *testing.T, po *Poset) {
	t.Helper()
	roots := 0
	for _, n := range po.nodes {
		if n == nil {
			continue
		}
		if len(n.parents) == 0 {
			roots++
		}
		for _, k := range n.kids {
			if !coversForm(n.form, k.form) || coversForm(k.form, n.form) {
				t.Fatalf("edge %d→%d is not a strict covering", n.idx, k.idx)
			}
			if !slices.Contains(k.parents, n) {
				t.Fatalf("edge %d→%d has no parent link back", n.idx, k.idx)
			}
			for _, c := range n.kids {
				if c != k && coversForm(c.form, k.form) {
					t.Fatalf("edge %d→%d is implied by the path through %d", n.idx, k.idx, c.idx)
				}
			}
		}
		for _, pa := range n.parents {
			if !slices.Contains(pa.kids, n) {
				t.Fatalf("parent link %d→%d has no edge", pa.idx, n.idx)
			}
		}
	}
	if roots != po.roots {
		t.Fatalf("%d parentless nodes, root count %d", roots, po.roots)
	}
	checkComplete(t, po)
}

// checkComplete fails unless a path of edges leads from every node to every
// node it covers.
func checkComplete(t *testing.T, po *Poset) {
	t.Helper()
	for _, n := range po.nodes {
		for _, o := range po.nodes {
			if n != nil && o != nil && o != n && coversForm(o.form, n.form) && !po.reachable(o, n) {
				t.Fatalf("%d covers %d but no path leads there", o.idx, n.idx)
			}
		}
	}
}

// TestLinkYieldsTransitiveReduction: one pass over interned nodes, in
// whichever order they arrived, and one-by-one Adds both leave exactly the
// transitive reduction — including when a later node lands between an earlier
// pair (the direct edge goes) or above earlier roots (they are demoted). After
// removals the order must still be exact.
func TestLinkYieldsTransitiveReduction(t *testing.T) {
	s := testSchema(t)
	exprs := []string{
		"profile(x in [20,30]; y = 5)",
		"profile(x in [0,90])",
		"profile(x in [10,40])", // lands between the two above
		"profile(x in [10,40]; y in [0,50])",
		"profile(y in [0,50])",
		"profile(x in [20,30])",
		"profile(x in [0,99])", // demotes the widest x range
		"profile(x in [50,60]; y in [60,70])",
		"profile(x > 99)", // accepts nothing, covered on x by every x range
	}
	for rot := range exprs {
		bulk, inc := NewPoset(s), NewPoset(s)
		for i := range exprs {
			e := exprs[(i+rot)%len(exprs)]
			bulk.Intern(Bare(parse(t, s, fmt.Sprintf("p%d", i), e)))
			mustAdd(t, inc, parse(t, s, fmt.Sprintf("p%d", i), e))
		}
		if bulk.Stats() != inc.Stats() || bulk.Stats().Roots != 2 || bulk.Stats().MaxDepth != 5 {
			t.Fatalf("rotation %d: bulk %+v, incremental %+v, want 2 roots and depth 5", rot, bulk.Stats(), inc.Stats())
		}
		checkReduction(t, bulk)
		checkReduction(t, inc)
		inc.Remove("p2")
		inc.Remove("p5")
		checkReduction(t, inc)
	}
}

// TestRemovalKeepsReduction: a seeded script of Joins and Takes over nested
// ranges leaves the order exactly the transitive reduction after every
// operation. It opens with the case a careless re-link gets wrong: a removed
// middle node whose kid keeps another parent below the removed node's parent,
// so hanging the kid beneath that parent would add an edge the other path
// implies.
func TestRemovalKeepsReduction(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	for _, p := range [][2]string{
		{"top", "profile(x in [0,90])"},
		{"mid", "profile(x in [10,40])"},
		{"other", "profile(x in [20,60])"},
		{"kid", "profile(x in [20,30])"},
	} {
		mustAdd(t, po, parse(t, s, p[0], p[1]))
	}
	po.Remove("mid")
	checkReduction(t, po)
	if top, kid := po.bySub["top"], po.bySub["kid"]; slices.Contains(top.kids, kid) {
		t.Fatal("removing mid hung kid beneath top, which reaches it through other")
	}

	rng := rand.New(rand.NewSource(11))
	var live []predicate.ID
	for op := range 600 {
		if len(live) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(live))
			po.Remove(live[k])
			live = slices.Delete(live, k, k+1)
		} else {
			var preds []string
			for _, a := range []string{"x", "y"} {
				if lo := 10 * rng.Intn(9); rng.Intn(3) > 0 || len(preds) == 0 {
					preds = append(preds, fmt.Sprintf("%s in [%d,%d]", a, lo, lo+10*(1+rng.Intn((99-lo)/10))))
				}
			}
			id := predicate.ID(fmt.Sprintf("s%d", op))
			mustAdd(t, po, parse(t, s, string(id), "profile("+strings.Join(preds, "; ")+")"))
			live = append(live, id)
		}
		checkReduction(t, po)
	}
}

// owned is a member that owns its profile, as a broker subscription does.
type owned struct{ p predicate.Profile }

func (o *owned) Profile() *predicate.Profile { return &o.p }

// TestJoinSharesOnlyOwnedColumns: a member that owns its profile and joins a
// node whose representative is spelled alike takes the representative's
// column; one spelled otherwise (a -0, a range for a comparison) keeps its
// own, and a bare profile is never written, whether it makes the node or
// joins it.
func TestJoinSharesOnlyOwnedColumns(t *testing.T) {
	s := testSchema(t)
	po := NewPoset(s)
	first := parse(t, s, "first", "profile(x >= 0; y <= 50)")
	firstCol := &first.Preds[0]
	po.Join(Bare(first))
	bare := parse(t, s, "bare", "profile(x >= 0; y <= 50)")
	bareCol := &bare.Preds[0]
	po.Join(Bare(bare))
	alike := &owned{p: *parse(t, s, "alike", "profile(x >= 0; y <= 50)")}
	po.Join(alike)
	negZero := &owned{p: *parse(t, s, "negzero", "profile(x >= -0; y <= 50)")}
	po.Join(negZero)
	ranged := &owned{p: *parse(t, s, "ranged", "profile(x in [0,99]; y <= 50)")}
	po.Join(ranged)
	if st := po.Stats(); st.Nodes != 1 || st.Subscriptions != 5 {
		t.Fatalf("%d subscriptions on %d nodes, want 5 on one", st.Subscriptions, st.Nodes)
	}
	if &first.Preds[0] != firstCol || &bare.Preds[0] != bareCol {
		t.Error("a bare profile was written")
	}
	if &alike.p.Preds[0] != firstCol {
		t.Error("an owned profile spelled like the representative keeps a column of its own")
	}
	for _, o := range []*owned{negZero, ranged} {
		if &o.p.Preds[0] == firstCol {
			t.Errorf("%s took the representative's column, spelled otherwise", o.p.ID)
		}
	}
}
