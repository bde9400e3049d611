package tree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// The builder as it stood before the arena and the rank sweep — a constraint
// slice per state, a string key per alive set, one allocation per object —
// kept as the oracle the builder is checked against, in the representation it
// had then: a kind and a profile set on every edge and the partition stored
// bucket by bucket at every node. It decomposes with subrange.Decompose, which
// has its own oracle in that package.

type refNode struct {
	level, attr int
	edges       []refEdge
	buckets     []bucket // iv and edge; the reference lays nothing out
}

type refEdge struct {
	kind     EdgeKind
	iv       schema.Interval
	profiles []int
	child    *refNode
}

// referenceBuild is the former Build, without its layout pass.
func referenceBuild(s *schema.Schema, profiles []*predicate.Profile, attrOrder []int) *reference {
	r := &reference{
		s:         s,
		attrOrder: attrOrder,
		cons:      make([][]subrange.Constraint, s.N()),
		memo:      make(map[string]*refNode),
	}
	for attr := 0; attr < s.N(); attr++ {
		dom := s.At(attr).Domain
		r.cons[attr] = make([]subrange.Constraint, len(profiles))
		for pi, p := range profiles {
			if !p.Constrains(attr) {
				r.cons[attr][pi] = subrange.Constraint{Profile: pi, DontCare: true}
				continue
			}
			r.cons[attr][pi] = subrange.Constraint{Profile: pi, Intervals: p.Pred(attr).Intervals(dom)}
		}
	}
	all := make([]int, len(profiles))
	for i := range profiles {
		all[i] = i
	}
	r.root = r.build(all, 0)
	return r
}

type reference struct {
	s                    *schema.Schema
	attrOrder            []int
	cons                 [][]subrange.Constraint
	memo                 map[string]*refNode
	root                 *refNode
	nodes, edges, shared int
}

func (r *reference) build(alive []int, level int) *refNode {
	key := fmt.Sprint(level, alive)
	if n, ok := r.memo[key]; ok {
		r.shared++
		return n
	}

	attr := r.attrOrder[level]
	dom := r.s.At(attr).Domain
	cons := make([]subrange.Constraint, len(alive))
	for i, pi := range alive {
		cons[i] = r.cons[attr][pi]
	}
	dec := subrange.Decompose(dom, cons)

	n := &refNode{level: level, attr: attr}
	last := level == r.s.N()-1
	descend := func(e *refEdge) {
		if !last {
			e.child = r.build(e.profiles, level+1)
		}
		n.edges = append(n.edges, *e)
	}

	// Subrange edges in natural order; don't-care profiles ride along.
	for _, sr := range dec.Subranges {
		descend(&refEdge{kind: EdgeSubrange, iv: sr.Iv, profiles: unionSorted(sr.Profiles, dec.Star)})
	}

	switch {
	case len(dec.Subranges) == 0 && len(dec.Star) > 0:
		// Pure don't-care node: single star edge over the whole domain.
		descend(&refEdge{kind: EdgeStar, iv: dom.Interval(), profiles: dec.Star})
		n.buckets = []bucket{{iv: dom.Interval(), edge: 0}}
	case len(dec.Star) > 0 && len(dec.Gaps) > 0:
		// Complement edge (*) for the riders across every gap piece.
		descend(&refEdge{kind: EdgeComplement, iv: dom.Interval(), profiles: dec.Star})
		n.buckets = mergeBuckets(dec, len(n.edges)-1)
	default:
		// Gaps (if any) are D₀: non-match regions.
		n.buckets = mergeBuckets(dec, -1)
	}

	r.nodes++
	r.edges += len(n.edges)
	r.memo[key] = n
	return n
}

// reaching filters a profile set carried into level to the profiles that are
// satisfiable on every attribute from there down: those some leaf below lists.
func (r *reference) reaching(set []int, level int) []int {
	var out []int
next:
	for _, pi := range set {
		for _, attr := range r.attrOrder[min(level, len(r.attrOrder)):] {
			c, sat := r.cons[attr][pi], false
			for _, iv := range c.Intervals {
				_, ok := subrange.Snap(iv.Intersect(r.s.At(attr).Domain.Interval()), r.s.At(attr).Domain.Kind() != schema.KindNumeric)
				sat = sat || ok
			}
			if !c.DontCare && !sat {
				continue next
			}
		}
		out = append(out, pi)
	}
	return out
}

// mergeBuckets builds the natural-order domain partition from the
// decomposition. complementEdge is the edge index for gap pieces (−1 = D₀).
func mergeBuckets(dec subrange.Decomposition, complementEdge int) []bucket {
	type piece struct {
		iv   schema.Interval
		edge int
	}
	pieces := make([]piece, 0, len(dec.Subranges)+len(dec.Gaps))
	for i, sr := range dec.Subranges {
		pieces = append(pieces, piece{iv: sr.Iv, edge: i})
	}
	for _, g := range dec.Gaps {
		pieces = append(pieces, piece{iv: g, edge: complementEdge})
	}
	sort.Slice(pieces, func(i, j int) bool {
		if pieces[i].iv.Lo != pieces[j].iv.Lo {
			return pieces[i].iv.Lo < pieces[j].iv.Lo
		}
		// A point interval sorts before the open interval starting there.
		return pieces[i].iv.Hi < pieces[j].iv.Hi
	})
	out := make([]bucket, len(pieces))
	for i, p := range pieces {
		out[i] = bucket{iv: p.iv, edge: p.edge}
	}
	return out
}

// unionSorted merges two sorted int slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// derivedBuckets collects a node's pieces as the walk derives them from its
// edges: what the reference stores.
func derivedBuckets(n *Node, dom schema.Domain) []bucket {
	var out []bucket
	for p := n.pieces(dom); p.Next(); {
		out = append(out, bucket{iv: p.Iv, edge: p.Edge})
	}
	return out
}

// layouts renders what applyOrder gave every node: the probe tree or the scan
// order, and under a scan the lookup table and the edges' positions.
func layouts(tr *Tree) string {
	out := ""
	for _, level := range tr.Levels() {
		for _, n := range level {
			out += fmt.Sprint(n.scan)
			if n.tab != nil {
				out += fmt.Sprintf(" %+v", *n.tab)
			}
			out += "\n"
		}
	}
	return out
}

// sameAutomaton walks a tree and the reference from their roots and fails where
// they are not one automaton: a node's level and attribute, its edges in order
// with kind and interval, the leaf sets, the profiles alive on every interior
// edge — the union of the leaf sets below it, which is all the tree still holds
// of them — the pieces derived from the edges against the reference's buckets,
// the scans' table against them too, and which paths share a node.
func sameAutomaton(t *testing.T, what string, got *Tree, want *reference) {
	t.Helper()
	toWant, toGot := map[*Node]*refNode{}, map[*refNode]*Node{}
	alive := map[*Node][]int{}
	var walk func(g *Node, w *refNode) []int
	walk = func(g *Node, w *refNode) []int {
		if toWant[g] != nil || toGot[w] != nil {
			if toWant[g] != w || toGot[w] != g {
				t.Fatalf("%s: level %d shares its states differently", what, w.level)
			}
			return alive[g]
		}
		toWant[g], toGot[w] = w, g
		dom := got.schema.At(w.attr).Domain
		if int(g.Level) != w.level || int(g.Attr) != w.attr || g.extra != nil || len(g.edges) != len(w.edges) ||
			!reflect.DeepEqual(derivedBuckets(g, dom), w.buckets) {
			t.Fatalf("%s: level %d node\n%+v\npieces %+v\nreference\n%+v", what, w.level, *g, derivedBuckets(g, dom), *w)
		}
		if g.tab != nil {
			for i, b := range g.tab.buckets {
				if b.iv != w.buckets[i].iv || b.edge != w.buckets[i].edge || len(g.tab.buckets) != len(w.buckets) {
					t.Fatalf("%s: level %d table %+v, reference %+v", what, w.level, g.tab.buckets, w.buckets)
				}
			}
		}
		var union []int
		for i := range w.edges {
			ge, we := &g.edges[i], &w.edges[i]
			below := ge.Leaf()
			if we.child != nil && ge.Child != nil {
				below = walk(ge.Child, we.child)
			}
			if g.Kind(i) != we.kind || ge.Iv != we.iv || !slices.Equal(below, want.reaching(we.profiles, w.level+1)) || (ge.Child == nil) != (we.child == nil) {
				t.Fatalf("%s: level %d edge %d is %v %+v over %v, reference %+v", what, w.level, i, g.Kind(i), *ge, below, *we)
			}
			union = unionSorted(union, below)
		}
		alive[g] = union
		return union
	}
	walk(got.root, want.root)
	st := got.Stats()
	if st.Nodes != want.nodes || st.Edges != want.edges || st.SharedHits != want.shared {
		t.Fatalf("%s: stats %+v, reference %d nodes, %d edges, %d shared", what, st, want.nodes, want.edges, want.shared)
	}
}

// TestQuickBuildIsTheSameAutomaton: over random corpora — don't-cares, a
// numeric, an integer and a categorical domain, ranges, comparisons, points,
// point sets, two-interval != predicates, unsatisfiable profiles — under every
// attribute order, a scan and the weighted search, the natural order and a
// salted one, the builder and the reference builder agree node for node, and
// the layout the builder gave each node is the one a second pass gives it.
func TestQuickBuildIsTheSameAutomaton(t *testing.T) {
	s := incrSchema(t)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		profiles := quickCorpus(t, s, rng)
		vo := NaturalOrder()
		if rng.Intn(2) == 0 {
			vo = saltedMass(rng.Float64() * 100)
			vo.Rank, vo.Descending = vo.Mass, rng.Intn(2) == 0
		}
		for _, order := range orders {
			got, err := Build(s, profiles, WithAttributeOrder(order), WithValueOrder(vo),
				WithSearch([]Search{SearchLinear, SearchBinary, SearchWeighted}[rng.Intn(3)]))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d order %v", seed, order)
			sameAutomaton(t, what, got, referenceBuild(s, profiles, order))
			built := layouts(got)
			got.ApplyValueOrder(vo)
			if again := layouts(got); again != built {
				t.Fatalf("%s: built with the layout\n%s\na second pass lays out\n%s", what, built, again)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// quickCorpus draws up to 40 random profiles, one in four with a two-interval
// != predicate on some attribute.
func quickCorpus(t *testing.T, s *schema.Schema, rng *rand.Rand) []*predicate.Profile {
	var profiles []*predicate.Profile
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		p := randomProfile(t, s, rng, i)
		if attr := rng.Intn(4 * s.N()); attr < s.N() {
			ne, err := predicate.NewComparison(attr, predicate.OpNe, float64(rng.Intn(11)))
			if err != nil {
				t.Fatal(err)
			}
			p.Preds[attr] = ne
		}
		profiles = append(profiles, p)
	}
	return profiles
}

// partitions fails where a node's derived pieces are not the partition of its
// attribute's domain that its edges induce: canonical intervals from bound to
// bound without a hole or an overlap, every subrange edge once and in order,
// one gap at most between two edges, and for a value of every piece (every
// atom, on a discrete domain) the owner a search through the edges finds —
// which the node's own search must find too. A scan's lookup table holds
// exactly those pieces.
func partitions(t *testing.T, what string, tr *Tree) {
	t.Helper()
	for level, nodes := range tr.Levels() {
		for _, n := range nodes {
			dom := tr.schema.At(int(n.Attr)).Domain
			discrete := dom.Kind() != schema.KindNumeric
			pieces := derivedBuckets(n, dom)
			fail := func(why string) {
				t.Helper()
				t.Fatalf("%s: level %d %s\nedges %+v\npieces %+v", what, level, why, n.edges, pieces)
			}
			trailing := -1
			if int(n.nSubrange) < len(n.edges) {
				trailing = int(n.nSubrange)
			}
			edge := 0
			for i, b := range pieces {
				if snapped, ok := subrange.Snap(b.iv, discrete); !ok || snapped != b.iv {
					fail(fmt.Sprintf("piece %d is not canonical", i))
				}
				switch {
				case i == 0 && (b.iv.Lo != dom.Lo() || b.iv.LoOpen):
					fail("the first piece does not begin the domain")
				case i > 0 && !(piecesTouch(pieces[i-1].iv, b.iv, discrete) && ivBefore(pieces[i-1].iv, b.iv)):
					fail(fmt.Sprintf("piece %d does not continue piece %d", i, i-1))
				case i > 0 && b.edge == pieces[i-1].edge:
					fail(fmt.Sprintf("pieces %d and %d are one", i-1, i))
				}
				if b.edge >= 0 && b.edge < int(n.nSubrange) {
					if b.edge != edge || b.iv != n.edges[edge].Iv {
						fail(fmt.Sprintf("piece %d is not subrange edge %d", i, edge))
					}
					edge++
				} else if b.edge != trailing {
					fail(fmt.Sprintf("gap %d belongs to edge %d, the trailing edge is %d", i, b.edge, trailing))
				}
				vals := []float64{inside(b.iv)}
				for v := b.iv.Lo; discrete && v <= b.iv.Hi; v++ {
					vals = append(vals, v)
				}
				for _, v := range vals {
					owner := trailing
					for ei := range n.edges[:n.nSubrange] {
						if n.edges[ei].Iv.Contains(v) {
							owner = ei
						}
					}
					if got, _ := n.step(v, tr.strategy); owner != b.edge || got != owner {
						fail(fmt.Sprintf("value %v of piece %d is edge %d's, the search finds %d", v, i, owner, got))
					}
				}
			}
			if last := pieces[len(pieces)-1].iv; edge != int(n.nSubrange) || last.Hi != dom.Hi() || last.HiOpen {
				fail("the pieces end before the edges or the domain do")
			}
			if n.tab == nil {
				continue
			}
			if len(n.tab.buckets) != len(pieces) {
				fail(fmt.Sprintf("the lookup table has %d buckets", len(n.tab.buckets)))
			}
			for i, b := range n.tab.buckets {
				if b.iv != pieces[i].iv || b.edge != pieces[i].edge {
					fail(fmt.Sprintf("the lookup table's bucket %d is %+v", i, b))
				}
			}
		}
	}
}

// TestQuickPiecesAreThePartition: the pieces derived from a node's edges are
// the buckets the reference builder stores — after Build and after Reordered,
// which keeps the automaton — and the partition its edges induce on every node
// of a chain of WithProfile successors (don't-cares, the integer and the
// categorical domain, points, point sets and two-interval predicates) and of
// their Reordered successor, under two scans, which keep the table beside the
// edges, and under the weighted search, which has the edges alone.
func TestQuickPiecesAreThePartition(t *testing.T) {
	s := incrSchema(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		profiles := quickCorpus(t, s, rng)
		order := rng.Perm(s.N())
		vo, drift := saltedMass(rng.Float64()*100), saltedMass(rng.Float64()*100)
		vo.Rank, drift.Rank, drift.Descending = vo.Mass, drift.Mass, true
		for _, strategy := range []Search{SearchLinear, SearchHash, SearchWeighted} {
			what := fmt.Sprintf("seed %d order %v %v", seed, order, strategy)
			k := 1 + rng.Intn(len(profiles))
			tr, err := Build(s, profiles[:k], WithAttributeOrder(order), WithSearch(strategy), WithValueOrder(vo))
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceBuild(s, profiles[:k], order)
			sameAutomaton(t, what+" Build", tr, ref)
			partitions(t, what+" Build", tr)
			re, _, _ := tr.Reordered(drift, rng.Intn(s.N()))
			sameAutomaton(t, what+" Reordered", re, ref)
			partitions(t, what+" Reordered", re)
			for i, p := range profiles[k:] {
				tr, _ = tr.WithProfile(p, vo)
				partitions(t, fmt.Sprintf("%s WithProfile %d", what, i), tr)
			}
			re, _, _ = tr.Reordered(drift)
			partitions(t, what+" WithProfile Reordered", re)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
