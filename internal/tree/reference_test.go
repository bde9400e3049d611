package tree

import (
	"fmt"
	"math"
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
// has its own oracle in that package. It parks riders as Build does, or, with
// parking off, carries them along every edge below as the paper's tree does.

type refNode struct {
	level, attr int
	extra       []int // the parked riders
	edges       []refEdge
	buckets     []bucket
}

// bucket is one piece of a node's partition and the edge it belongs to, −1 for
// a D₀ gap.
type bucket struct {
	iv   schema.Interval
	edge int
}

type refEdge struct {
	kind     EdgeKind
	iv       schema.Interval
	profiles []int
	child    *refNode
}

// referenceBuild is the former Build, without its layout pass.
func referenceBuild(s *schema.Schema, profiles []*predicate.Profile, attrOrder []int) *reference {
	return newReference(s, profiles, attrOrder, true)
}

// newReference builds the reference automaton, parking riders or not.
func newReference(s *schema.Schema, profiles []*predicate.Profile, attrOrder []int, park bool) *reference {
	r := &reference{
		s:         s,
		attrOrder: attrOrder,
		park:      park,
		cons:      make([][]subrange.Constraint, s.N()),
		memo:      make(map[string]*refNode),
		laid:      make(map[*refNode]*View),
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
	park                 bool
	cons                 [][]subrange.Constraint
	memo                 map[string]*refNode
	root                 *refNode
	laid                 map[*refNode]*View // the states as match lays them out
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
	n := &refNode{level: level, attr: attr}
	var cons []subrange.Constraint
	for _, pi := range alive {
		if r.park && r.rides(pi, level) {
			n.extra = append(n.extra, pi)
			continue
		}
		cons = append(cons, r.cons[attr][pi])
	}
	dec := subrange.Decompose(dom, cons)

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
		// Complement edge (*) for the don't-care profiles across every gap piece.
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

// rides reports whether profile pi constrains no attribute from level down.
func (r *reference) rides(pi, level int) bool {
	for _, attr := range r.attrOrder[level:] {
		if !r.cons[attr][pi].DontCare {
			return false
		}
	}
	return true
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
func derivedBuckets(n View, dom schema.Domain) []bucket {
	var out []bucket
	for p := n.pieces(dom); p.Next(); {
		out = append(out, bucket{iv: p.Iv, edge: p.Edge})
	}
	return out
}

// layouts renders the probe tree applyOrder gave every node, in the order a
// walk from the root first reaches them.
func layouts(tr *Tree) string {
	out, seen := "", map[nodeAt]bool{}
	var walk func(n View)
	walk = func(n View) {
		if seen[n.at()] {
			return
		}
		seen[n.at()] = true
		out += fmt.Sprintln(n.layout)
		for i := range n.edges {
			if c, ok := tr.child(n, i); ok {
				walk(c)
			}
		}
	}
	walk(tr.Root())
	return out
}

// sameAutomaton walks a tree and the reference from their roots and fails where
// they are not one automaton: a node's level and attribute, its parked set, its
// edges in order with kind and interval, the leaf sets, the profiles alive on
// every interior edge — the union of the parked and leaf sets below it, which
// is all the tree still holds of them — the pieces derived from the edges
// against the reference's buckets, and which paths share a node.
func sameAutomaton(t *testing.T, what string, got *Tree, want *reference) {
	t.Helper()
	toWant, toGot := map[nodeAt]*refNode{}, map[*refNode]nodeAt{}
	alive := map[nodeAt][]int{}
	var walk func(g View, w *refNode) []int
	walk = func(g View, w *refNode) []int {
		at := g.at()
		if _, ok := toGot[w]; ok || toWant[at] != nil {
			if toWant[at] != w || toGot[w] != at {
				t.Fatalf("%s: level %d shares its states differently", what, w.level)
			}
			return alive[at]
		}
		toWant[at], toGot[w] = w, at
		dom := got.schema.At(w.attr).Domain
		extra := ints(g.extra)
		if int(g.Level) != w.level || int(g.Attr) != w.attr || !slices.Equal(extra, w.extra) || len(g.edges) != len(w.edges) ||
			!reflect.DeepEqual(derivedBuckets(g, dom), w.buckets) {
			t.Fatalf("%s: level %d node\n%+v\npieces %+v\nreference\n%+v", what, w.level, g, derivedBuckets(g, dom), *w)
		}
		union := extra
		for i := range w.edges {
			ge, we := &g.edges[i], &w.edges[i]
			below := ints(got.leafOf(g, i))
			c, interior := got.child(g, i)
			if we.child != nil && interior {
				below = walk(c, we.child)
			}
			if g.Kind(i) != we.kind || ge.Iv() != we.iv || !slices.Equal(below, want.reaching(we.profiles, w.level+1)) || !interior != (we.child == nil) {
				t.Fatalf("%s: level %d edge %d is %v %+v over %v, reference %+v", what, w.level, i, g.Kind(i), *ge, below, *we)
			}
			union = unionSorted(union, below)
		}
		alive[at] = union
		return union
	}
	walk(got.Root(), want.root)
	st := got.Stats()
	if st.Nodes != want.nodes || st.Edges != want.edges || st.SharedHits != want.shared {
		t.Fatalf("%s: stats %+v, reference %d nodes, %d edges, %d shared", what, st, want.nodes, want.edges, want.shared)
	}
}

// TestQuickBuildIsTheSameAutomaton: over random corpora — don't-cares, a
// numeric, an integer and a categorical domain, ranges, comparisons, points,
// point sets, two-interval != predicates, unsatisfiable profiles — under every
// attribute order, uniform and salted weights, the builder and the reference
// builder agree node for node, and the layout the builder gave each node is
// the one a second pass gives it.
func TestQuickBuildIsTheSameAutomaton(t *testing.T) {
	s := incrSchema(t)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		profiles := quickCorpus(t, s, rng)
		vo := NaturalOrder()
		if rng.Intn(2) == 0 {
			vo = saltedMass(rng.Float64() * 100)
		}
		for _, order := range orders {
			got, err := Build(s, profiles, WithAttributeOrder(order), WithValueOrder(vo))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d order %v", seed, order)
			sameAutomaton(t, what, got, referenceBuild(s, profiles, order))
			built := layouts(got)
			second, _, _ := got.Reordered(vo)
			if again := layouts(second); again != built {
				t.Fatalf("%s: built with the layout\n%s\na second pass lays out\n%s", what, built, again)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickParkingNeverCostsAComparison: over quickCorpus-style corpora whose
// profiles leave each attribute unconstrained at rates from 0.2 to 0.8, under
// every attribute order, uniform and salted weights:
//   - Match lists the brute-force match set, no index twice;
//   - a profile parked at a node constrains nothing from that level down, and
//     no leaf set or parked set below the node lists it again;
//   - no event spends more comparisons than on the reference automaton with
//     parking off, which carries every rider along every edge below it.
//
// The events reach every piece of every state of that automaton. Where it has
// a leaf-level complement or star edge, some event spends strictly fewer:
// every profile a leaf-level state leaves unconstrained is a rider, so that
// edge is one parking removes.
func TestQuickParkingNeverCostsAComparison(t *testing.T) {
	s := incrSchema(t)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	parked, fewer := 0, 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dc := 0.2 + 0.2*float64(rng.Intn(4))
		profiles := riderCorpus(t, s, rng, dc)
		vo := NaturalOrder()
		if rng.Intn(2) == 0 {
			vo = saltedMass(rng.Float64() * 100)
		}
		for _, order := range orders {
			what := fmt.Sprintf("seed %d dc %.1f order %v", seed, dc, order)
			tr, err := Build(s, profiles, WithAttributeOrder(order), WithValueOrder(vo))
			if err != nil {
				t.Fatal(err)
			}
			parked += parksOnce(t, what, tr)
			off := newReference(s, profiles, order, false)
			strict := false
			for _, vals := range off.events() {
				var want []int
				for pi, p := range profiles {
					if p.Matches(vals) {
						want = append(want, pi)
					}
				}
				got, ops := tr.Match(vals)
				offGot, offOps := off.match(vals, vo)
				if !slices.Equal(slices.Sorted(slices.Values(ints(got))), want) || !slices.Equal(slices.Sorted(slices.Values(offGot)), want) {
					t.Fatalf("%s: event %v matched %v, parking off %v, brute force %v", what, vals, got, offGot, want)
				}
				if ops > offOps {
					t.Fatalf("%s: event %v spends %d comparisons, %d with parking off", what, vals, ops, offOps)
				}
				strict = strict || ops < offOps
			}
			if off.leafTrailing() && !strict {
				t.Fatalf("%s: parking removes a leaf-level trailing edge, yet no event spends fewer comparisons", what)
			}
			if strict {
				fewer++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if parked == 0 || fewer == 0 {
		t.Errorf("%d profiles parked, %d builds saved a comparison: the corpora exercise nothing", parked, fewer)
	}
}

// parksOnce fails where a profile parked at a node of tr constrains a level
// from the node's down, or is listed again by a leaf set or a parked set below
// the node. It returns the number of parked entries.
func parksOnce(t *testing.T, what string, tr *Tree) int {
	t.Helper()
	below := map[nodeAt][]int{} // the parked and leaf sets below a node, its own parked set excluded
	var under func(n View) []int
	under = func(n View) []int {
		if set, ok := below[n.at()]; ok {
			return set
		}
		var set []int
		for i := range n.edges {
			if c, ok := tr.child(n, i); ok {
				set = unionSorted(set, unionSorted(ints(c.extra), under(c)))
			} else {
				set = unionSorted(set, ints(tr.leafOf(n, i)))
			}
		}
		below[n.at()] = set
		return set
	}
	parked := 0
	for _, nodes := range views(tr) {
		for _, n := range nodes {
			for _, pi := range ints(n.extra) {
				for _, attr := range tr.attrOrder[n.Level:] {
					if tr.profiles[pi].Constrains(attr) {
						t.Fatalf("%s: level %d parks %d, which constrains attribute %d", what, n.Level, pi, attr)
					}
				}
				if _, found := slices.BinarySearch(under(n), pi); found {
					t.Fatalf("%s: level %d parks %d, which a set below lists again", what, n.Level, pi)
				}
			}
			parked += len(n.extra)
		}
	}
	return parked
}

// riderCorpus is quickCorpus with each attribute left unconstrained at rate
// dc and constrained by a range otherwise: the higher dc, the more profiles
// ride below their last constrained level.
func riderCorpus(t *testing.T, s *schema.Schema, rng *rand.Rand, dc float64) []*predicate.Profile {
	profiles := quickCorpus(t, s, rng)
	for _, p := range profiles {
		for attr := range p.Preds {
			switch {
			case rng.Float64() < dc:
				p.Preds[attr] = predicate.Predicate{}
			case !p.Constrains(attr):
				lo, hi := s.At(attr).Domain.Lo(), s.At(attr).Domain.Hi()
				a := math.Floor(lo + rng.Float64()*(hi-lo))
				pr, err := predicate.NewRange(attr, a, math.Floor(a+rng.Float64()*(hi-a)))
				if err != nil {
					t.Fatal(err)
				}
				p.Preds[attr] = pr
			}
		}
	}
	return profiles
}

// events returns, for every piece of every state, an event that reaches the
// state and falls into the piece.
func (r *reference) events() [][]float64 {
	var out [][]float64
	seen := map[*refNode]bool{}
	var visit func(n *refNode, prefix []float64)
	visit = func(n *refNode, prefix []float64) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, b := range n.buckets {
			vals := slices.Clone(prefix)
			vals[n.attr] = inside(b.iv)
			out = append(out, vals)
			if b.edge >= 0 && n.edges[b.edge].child != nil {
				visit(n.edges[b.edge].child, vals)
			}
		}
	}
	prefix := make([]float64, r.s.N())
	for attr := range prefix {
		prefix[attr] = r.s.At(attr).Domain.Lo()
	}
	visit(r.root, prefix)
	return out
}

// match walks the reference as Match walks a tree, every state laid out under
// vo as Build lays its nodes out, and returns the matched profiles and the
// comparisons spent.
func (r *reference) match(vals []float64, vo ValueOrder) (matched []int, ops int) {
	for w := r.root; w != nil; {
		matched = append(matched, w.extra...)
		n, ok := r.laid[w]
		if !ok {
			n = &View{Level: int16(w.level), Attr: int16(w.attr)}
			for _, e := range w.edges {
				if e.kind == EdgeSubrange {
					n.nSubrange++
				}
				n.edges = append(n.edges, edgeOver(e.iv, 0))
			}
			n.layout = make([]int32, n.nSubrange)
			n.applyOrder(r.s.At(w.attr).Domain, vo, new(orderScratch))
			r.laid[w] = n
		}
		ei, k := n.probe(vals[w.attr])
		ops += k
		if ei < 0 {
			break
		}
		e := &w.edges[ei]
		if e.child == nil {
			matched = append(matched, e.profiles...)
		}
		w = e.child
	}
	return matched, ops
}

// leafTrailing reports whether a leaf-level state has a complement or star
// edge.
func (r *reference) leafTrailing() bool {
	for _, n := range r.memo {
		if n.level == r.s.N()-1 && len(n.edges) > 0 && n.edges[len(n.edges)-1].kind != EdgeSubrange {
			return true
		}
	}
	return false
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
// which the node's probe must find too, down a probe tree that is a search
// tree over exactly the subrange edges or, on a wide node, through a
// directory that agrees with the scan at every bucket bound.
func partitions(t *testing.T, what string, tr *Tree) {
	t.Helper()
	for level, nodes := range views(tr) {
		for _, n := range nodes {
			dom := tr.schema.At(int(n.Attr)).Domain
			discrete := dom.Kind() != schema.KindNumeric
			pieces := derivedBuckets(n, dom)
			fail := func(why string) {
				t.Helper()
				t.Fatalf("%s: level %d %s\nedges %+v\npieces %+v\nlayout %v", what, level, why, n.edges, pieces, n.layout)
			}
			if !n.layoutIsSearchTree() {
				fail("the probe tree is not a search tree over the subrange edges")
			}
			if n.nSubrange >= interpMin {
				directoryAgrees(t, what, n, dom)
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
					if b.edge != edge || b.iv != n.edges[edge].Iv() {
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
						if n.edges[ei].Iv().Contains(v) {
							owner = ei
						}
					}
					if got, _ := n.probe(v); owner != b.edge || got != owner {
						fail(fmt.Sprintf("value %v of piece %d is edge %d's, the search finds %d", v, i, owner, got))
					}
				}
			}
			if last := pieces[len(pieces)-1].iv; edge != int(n.nSubrange) || last.Hi != dom.Hi() || last.HiOpen {
				fail("the pieces end before the edges or the domain do")
			}
		}
	}
}

// TestQuickPiecesAreThePartition: the pieces derived from a node's edges are
// the buckets the reference builder stores — after Build and after Reordered,
// which keeps the automaton — and the partition its edges induce on every node
// of a chain of WithProfile successors (don't-cares, the integer and the
// categorical domain, points, point sets and two-interval predicates) and of
// their Reordered successor.
func TestQuickPiecesAreThePartition(t *testing.T) {
	s := incrSchema(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		profiles := quickCorpus(t, s, rng)
		order := rng.Perm(s.N())
		vo, drift := saltedMass(rng.Float64()*100), saltedMass(rng.Float64()*100)
		for pass := range 3 {
			what := fmt.Sprintf("seed %d order %v pass %d", seed, order, pass)
			k := 1 + rng.Intn(len(profiles))
			tr, err := Build(s, profiles[:k], WithAttributeOrder(order), WithValueOrder(vo))
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
