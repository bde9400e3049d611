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
// slice per state, a string key per alive set, one allocation per object and
// the natural order applied in a second pass — kept as the oracle the builder
// is checked against. It decomposes with subrange.Decompose, which has its own
// oracle in that package.

// referenceBuild is the former Build.
func referenceBuild(s *schema.Schema, profiles []*predicate.Profile, opts ...Option) (*Tree, error) {
	if len(profiles) == 0 {
		return nil, ErrNoProfiles
	}
	cfg := config{strategy: DefaultSearch, vo: NaturalOrder()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.attrOrder == nil {
		cfg.attrOrder = make([]int, s.N())
		for i := range cfg.attrOrder {
			cfg.attrOrder[i] = i
		}
	}
	if !isPermutation(cfg.attrOrder, s.N()) {
		return nil, fmt.Errorf("%w: %v", ErrBadOrder, cfg.attrOrder)
	}
	r := &reference{
		t: &Tree{
			schema:    s,
			profiles:  profiles,
			attrOrder: cfg.attrOrder,
			strategy:  cfg.strategy,
			meta:      &graphMeta{levels: make([][]*Node, s.N())},
		},
		cons: make([][]subrange.Constraint, s.N()),
		memo: make(map[string]*Node),
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
	r.t.root = r.build(all, 0)
	r.t.meta.once.Do(func() {})
	r.t.ApplyValueOrder(cfg.vo)
	return r.t, nil
}

type reference struct {
	t    *Tree
	cons [][]subrange.Constraint
	memo map[string]*Node
}

//genas:builder
func (r *reference) build(alive []int, level int) *Node {
	t := r.t
	key := fmt.Sprint(level, alive)
	if n, ok := r.memo[key]; ok {
		t.meta.shared++
		return n
	}

	attr := t.attrOrder[level]
	dom := t.schema.At(attr).Domain
	cons := make([]subrange.Constraint, len(alive))
	for i, pi := range alive {
		cons[i] = r.cons[attr][pi]
	}
	dec := subrange.Decompose(dom, cons)

	n := &Node{
		Level:    level,
		Attr:     attr,
		discrete: dom.Kind() != schema.KindNumeric,
	}
	last := level == t.schema.N()-1
	descend := func(e *Edge, alive []int) {
		if !last {
			e.Child = r.build(alive, level+1)
		}
	}

	// Subrange edges in natural order; don't-care profiles ride along.
	for _, sr := range dec.Subranges {
		profs := unionSorted(sr.Profiles, dec.Star)
		e := Edge{Kind: EdgeSubrange, Iv: sr.Iv, Profiles: profs}
		descend(&e, profs)
		n.edges = append(n.edges, e)
	}
	n.nSubrange = len(n.edges)

	switch {
	case len(dec.Subranges) == 0 && len(dec.Star) > 0:
		// Pure don't-care node: single star edge over the whole domain.
		e := Edge{Kind: EdgeStar, Iv: dom.Interval(), Profiles: dec.Star}
		descend(&e, dec.Star)
		n.edges = append(n.edges, e)
		n.buckets = []bucket{{iv: dom.Interval(), edge: len(n.edges) - 1}}
	case len(dec.Star) > 0 && len(dec.Gaps) > 0:
		// Complement edge (*) for the riders across every gap piece.
		e := Edge{Kind: EdgeComplement, Profiles: dec.Star}
		descend(&e, dec.Star)
		n.edges = append(n.edges, e)
		n.buckets = mergeBuckets(dec, len(n.edges)-1)
	default:
		// Gaps (if any) are D₀: non-match regions.
		n.buckets = mergeBuckets(dec, -1)
	}

	t.meta.nodes++
	t.meta.edges += len(n.edges)
	t.meta.levels[level] = append(t.meta.levels[level], n)
	r.memo[key] = n
	return n
}

// mergeBuckets builds the natural-order domain partition from the
// decomposition. complementEdge is the edge index for gap pieces (−1 = D₀).
//
//genas:builder
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

// sameAutomaton walks two trees from their roots and fails where they are not
// one automaton: a node's level, attribute and layout, its edges in order with
// kind, interval and profile set, its buckets, and which paths share a node.
func sameAutomaton(t *testing.T, what string, got, want *Tree) {
	t.Helper()
	toWant, toGot := map[*Node]*Node{}, map[*Node]*Node{}
	var walk func(g, w *Node)
	walk = func(g, w *Node) {
		if toWant[g] != nil || toGot[w] != nil {
			if toWant[g] != w || toGot[w] != g {
				t.Fatalf("%s: level %d shares its states differently", what, w.Level)
			}
			return
		}
		toWant[g], toGot[w] = w, g
		if g.Level != w.Level || g.Attr != w.Attr || g.discrete != w.discrete || g.nSubrange != w.nSubrange ||
			g.extra != nil || len(g.edges) != len(w.edges) || !reflect.DeepEqual(g.buckets, w.buckets) ||
			!slices.Equal(g.scan, w.scan) || !slices.Equal(g.orderPos, w.orderPos) {
			t.Fatalf("%s: level %d node\n%+v\nreference\n%+v", what, w.Level, *g, *w)
		}
		for i := range w.edges {
			ge, we := &g.edges[i], &w.edges[i]
			if ge.Kind != we.Kind || ge.Iv != we.Iv || !slices.Equal(ge.Profiles, we.Profiles) || (ge.Child == nil) != (we.Child == nil) {
				t.Fatalf("%s: level %d edge %d is %+v, reference %+v", what, w.Level, i, *ge, *we)
			}
			if we.Child != nil {
				walk(ge.Child, we.Child)
			}
		}
	}
	walk(got.root, want.root)
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, reference %+v", what, got.Stats(), want.Stats())
	}
	if got.Dump() != want.Dump() {
		t.Fatalf("%s: dump\n%s\nreference\n%s", what, got.Dump(), want.Dump())
	}
}

// TestQuickBuildIsTheSameAutomaton: over random corpora — don't-cares, a
// numeric, an integer and a categorical domain, ranges, comparisons, points,
// point sets, two-interval != predicates, unsatisfiable profiles — under every
// attribute order, a scan and the weighted search, the natural order and a
// salted one, the builder and the reference builder agree node for node.
func TestQuickBuildIsTheSameAutomaton(t *testing.T) {
	s := incrSchema(t)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
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
		vo := NaturalOrder()
		if rng.Intn(2) == 0 {
			vo = saltedMass(rng.Float64() * 100)
			vo.Rank, vo.Descending = vo.Mass, rng.Intn(2) == 0
		}
		for _, order := range orders {
			opts := []Option{WithAttributeOrder(order), WithValueOrder(vo),
				WithSearch([]Search{SearchLinear, SearchBinary, SearchWeighted}[rng.Intn(3)])}
			got, err := Build(s, profiles, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceBuild(s, profiles, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameAutomaton(t, fmt.Sprintf("seed %d order %v", seed, order), got, want)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
