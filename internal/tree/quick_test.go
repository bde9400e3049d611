package tree

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// corpus is a quick.Generator producing random profile corpora over a fixed
// two-attribute integer schema together with probe values. Using a custom
// generator keeps the search space inside the domain where matching is
// meaningful.
type corpus struct {
	ranges [][4]int // attr0 lo/hi, attr1 lo/hi per profile (−1 lo = don't care)
	probes [][2]int
}

const quickDomainHi = 30

// Generate implements quick.Generator.
func (corpus) Generate(r *rand.Rand, size int) reflect.Value {
	if size < 1 {
		size = 1
	}
	c := corpus{}
	n := 1 + r.Intn(size%20+5)
	for i := 0; i < n; i++ {
		var e [4]int
		for a := 0; a < 2; a++ {
			if r.Intn(4) == 0 {
				e[2*a] = -1 // don't care
				continue
			}
			lo := r.Intn(quickDomainHi)
			e[2*a] = lo
			e[2*a+1] = lo + r.Intn(quickDomainHi-lo+1)
		}
		if e[0] == -1 && e[2] == -1 {
			e[0], e[1] = 3, 7 // keep the profile satisfiable and non-empty
		}
		c.ranges = append(c.ranges, e)
	}
	for i := 0; i < 40; i++ {
		c.probes = append(c.probes, [2]int{r.Intn(quickDomainHi + 1), r.Intn(quickDomainHi + 1)})
	}
	return reflect.ValueOf(c)
}

var _ quick.Generator = corpus{}

// TestQuickTreeEquivalence: for arbitrary generated corpora, the automaton
// agrees with direct predicate evaluation.
func TestQuickTreeEquivalence(t *testing.T) {
	d, err := schema.NewIntegerDomain(0, quickDomainHi)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(
		schema.Attribute{Name: "x", Domain: d},
		schema.Attribute{Name: "y", Domain: d},
	)
	check := func(c corpus) bool {
		profiles := make([]*predicate.Profile, 0, len(c.ranges))
		for i, e := range c.ranges {
			var preds []predicate.Predicate
			if e[0] >= 0 {
				pr, err := predicate.NewRange(0, float64(e[0]), float64(e[1]))
				if err != nil {
					return false
				}
				preds = append(preds, pr)
			}
			if e[2] >= 0 {
				pr, err := predicate.NewRange(1, float64(e[2]), float64(e[3]))
				if err != nil {
					return false
				}
				preds = append(preds, pr)
			}
			p, err := predicate.New(s, predicate.ID(fmt.Sprintf("q%d", i)), preds...)
			if err != nil {
				return false
			}
			profiles = append(profiles, p)
		}
		tr, err := Build(s, profiles)
		if err != nil {
			return false
		}
		for _, probe := range c.probes {
			vals := []float64{float64(probe[0]), float64(probe[1])}
			matched, ops := tr.Match(vals)
			if ops < 0 {
				return false
			}
			got := make(map[int]bool, len(matched))
			for _, pi := range matched {
				got[int(pi)] = true
			}
			for pi, p := range profiles {
				if p.Matches(vals) != got[pi] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderPositionsArePermutation: for arbitrary weights the root's
// probe tree holds every subrange edge exactly once, as a binary search tree.
func TestQuickOrderPositionsArePermutation(t *testing.T) {
	d, err := schema.NewIntegerDomain(0, quickDomainHi)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d})
	rng := rand.New(rand.NewSource(5))
	profiles := make([]*predicate.Profile, 20)
	for i := range profiles {
		pr, err := predicate.NewComparison(0, predicate.OpEq, float64(rng.Intn(quickDomainHi+1)))
		if err != nil {
			t.Fatal(err)
		}
		profiles[i], err = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}

	check := func(seed int64) bool {
		re, _, _ := tr.Reordered(saltedMass(rand.New(rand.NewSource(seed)).Float64() * 100))
		root := re.Root()
		seen := map[int32]bool{}
		for _, ei := range root.layout {
			seen[ei] = true
		}
		return root.layoutIsSearchTree() && len(seen) == len(root.Edges())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fingerprint renders every unique node of the tree: identity, children, leaf
// sets and probe tree.
func fingerprint(tr *Tree) string {
	out := ""
	for _, level := range views(tr) {
		for _, n := range level {
			out += fmt.Sprintf("%p %v %v %v", tr.rec(n), n.layout, n.extra, n.nSubrange)
			for i, e := range n.edges {
				out += fmt.Sprintf("\n  %v %v %d", e.Iv(), tr.leafOf(n, i), e.To)
			}
			out += "\n"
		}
	}
	return out
}

// TestQuickPartialReorder: for random trees — fresh from Build or grown by
// inserts — random attribute orders and random sets of drifted attributes,
// re-laying only the narrow nodes that test a drifted attribute gives the
// same matches at the same per-event cost as re-laying every narrow node
// under weights that changed on those attributes alone. It shares every node
// below the deepest level holding such a narrow node with the predecessor,
// copies every node at or above it, and counts both, as reorderCounts says; a
// reorder that finds no such node is the predecessor itself. Either leaves
// the predecessor bit for bit as it was.
func TestQuickPartialReorder(t *testing.T) {
	s := incrSchema(t)
	salted := func(salts []float64) ValueOrder {
		return ValueOrder{Name: "quick", Mass: func(attr int, region []Interval) float64 {
			return math.Mod((region[0].Lo+1)*salts[attr], 13)
		}}
	}
	check := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 4+rng.Intn(12); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		oldSalts := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		old, err := Build(s, profiles, WithAttributeOrder(rng.Perm(s.N())), WithValueOrder(salted(oldSalts)))
		if err != nil {
			t.Error(err)
			return false
		}
		if grow := rng.Intn(4); grow > 0 {
			for i := 0; i < grow; i++ {
				old, _ = old.WithProfile(randomProfile(t, s, rng, 100+i), salted(oldSalts))
			}
			// The nodes an insert splits are laid out count-balanced; a whole
			// reorder weighs them again.
			old, _, _ = old.Reordered(salted(oldSalts))
		}

		var drifted []int
		newSalts := append([]float64(nil), oldSalts...)
		sel, every := make([]bool, s.N()), make([]bool, s.N())
		for attr := range sel {
			every[attr] = true
			if pick>>attr&1 == 1 {
				drifted = append(drifted, attr)
				newSalts[attr] = rng.Float64() * 100
				sel[attr] = true
			}
		}
		if drifted == nil {
			return true // no attributes given means all of them: the other test case
		}
		before := fingerprint(old)
		wantResorted, wantCopied, deepest := reorderCounts(old, sel)
		part, resorted, copied := old.Reordered(salted(newSalts), drifted...)
		wantAll, wantRest, _ := reorderCounts(old, every)
		full, all, rest := old.Reordered(salted(newSalts))
		if fingerprint(old) != before {
			t.Errorf("seed %d: Reordered mutated its receiver", seed)
			return false
		}
		if all != wantAll || rest != wantRest {
			t.Errorf("seed %d: whole reorder re-sorted %d and copied %d; want %d, %d", seed, all, rest, wantAll, wantRest)
			return false
		}
		if (part == old) != (deepest < 0) {
			t.Errorf("seed %d drifted %v: the reorder is its receiver: %v; deepest re-laid level %d", seed, drifted, part == old, deepest)
			return false
		}
		for i := 0; i < 60; i++ {
			vals := randomProbe(s, rng)
			pm, pops := part.Match(vals)
			fm, fops := full.Match(vals)
			if !reflect.DeepEqual(pm, fm) || pops != fops {
				t.Errorf("seed %d drifted %v: probe %v matched %v in %d ops, whole reorder %v in %d", seed, drifted, vals, pm, pops, fm, fops)
				return false
			}
		}
		for level, nodes := range views(old) {
			successors := views(part)[level]
			if len(successors) != len(nodes) {
				t.Errorf("seed %d: level %d has %d nodes, had %d", seed, level, len(successors), len(nodes))
				return false
			}
			was := make(map[*Node]bool, len(nodes))
			for _, n := range nodes {
				was[old.rec(n)] = true
			}
			for _, n := range successors {
				if shared := was[part.rec(n)]; shared != (level > deepest) {
					t.Errorf("seed %d drifted %v: level %d node shared = %v, deepest copied level %d", seed, drifted, level, shared, deepest)
					return false
				}
			}
		}
		if resorted != wantResorted || copied != wantCopied {
			t.Errorf("seed %d drifted %v: reported %d re-sorted, %d copied; want %d, %d", seed, drifted, resorted, copied, wantResorted, wantCopied)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// reorderCounts is what a reorder of tr re-laying the attributes sel must
// report: the nodes it re-lays, the narrow ones testing a selected
// attribute, and the nodes it copies only to re-point their children, on the
// levels down to the deepest holding one it re-lays — on every level where
// that one is the last or tr heads no line, since such a reorder copies the
// whole tree — and the deepest level copied. That is −1 where the reorder
// re-lays nothing, and returns tr itself.
func reorderCounts(tr *Tree, sel []bool) (resorted, copied, deepest int) {
	levels := views(tr)
	deepest = -1
	for l, nodes := range levels {
		for _, n := range nodes {
			if sel[n.Attr] && n.nSubrange < interpMin {
				deepest = l
			}
		}
	}
	if deepest >= 0 && (deepest == len(levels)-1 || tr.line.head.Load() != tr) {
		deepest = len(levels) - 1
	}
	for _, nodes := range levels[:deepest+1] {
		for _, n := range nodes {
			if sel[n.Attr] && n.nSubrange < interpMin {
				resorted++
			} else {
				copied++
			}
		}
	}
	return resorted, copied, deepest
}

// saltedMass is a positive pseudo-random event mass over regions.
func saltedMass(salt float64) ValueOrder {
	vo := NaturalOrder()
	vo.Mass = func(attr int, region []Interval) float64 {
		return (region[0].Hi - region[0].Lo + 0.01) * (1 + math.Mod((region[0].Lo+float64(attr)+1)*salt, 7))
	}
	return vo
}

// scanEdge is the oracle the probe is held to: the paper's scan over a node's
// edges in natural order — the subrange edge holding v, else the trailing
// complement or star edge while v lies in the domain, else none.
func scanEdge(n View, dom schema.Domain, v float64) int {
	for i := range n.edges[:n.nSubrange] {
		if n.edges[i].Iv().Contains(v) {
			return i
		}
	}
	if int(n.nSubrange) < len(n.edges) && dom.Interval().Contains(v) {
		return int(n.nSubrange)
	}
	return -1
}

// sameEdges walks a tree node by node and fails where the probe and the
// paper's scan disagree on the edge for a value of any piece, or for a value
// beyond either end of the domain, or where the probe compares more edges
// than the node has.
func sameEdges(t *testing.T, what string, tr *Tree) {
	t.Helper()
	for level, nodes := range views(tr) {
		for i, n := range nodes {
			dom := tr.schema.At(int(n.Attr)).Domain
			vals := []float64{dom.Lo() - 1, dom.Hi() + 1}
			for p := n.pieces(dom); p.Next(); {
				vals = append(vals, inside(p.Iv))
			}
			for _, v := range vals {
				want := scanEdge(n, dom, v)
				if got, ops := n.probe(v); got != want || ops > len(n.edges) {
					t.Fatalf("%s: level %d node %d value %v: probe found edge %d in %d ops, scan %d\n%+v\n%v",
						what, level, i, v, got, ops, want, n.edges, n.layout)
				}
			}
		}
	}
}

// TestQuickWeightedFindsTheScansEdge: for random corpora the probe returns
// the edge the paper's scan returns, in every piece of every node and outside
// the domain, after Build, WithProfile, WithoutProfile and Reordered, and
// the removals leave the live profiles' match sets.
func TestQuickWeightedFindsTheScansEdge(t *testing.T) {
	s := incrSchema(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 1+rng.Intn(14); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		tr, err := Build(s, profiles, WithAttributeOrder(rng.Perm(s.N())))
		if err != nil {
			t.Error(err)
			return false
		}
		sameEdges(t, "Build", tr)
		vo := saltedMass(rng.Float64() * 100)
		for step := 0; step < 6; step++ {
			tr, _ = tr.WithProfile(randomProfile(t, s, rng, 100+step), vo)
			sameEdges(t, "WithProfile", tr)
		}
		removed := make(map[int]bool)
		for range 2 { // possibly one index twice
			pi := rng.Intn(len(profiles))
			tr, removed[pi] = tr.WithoutProfile(pi), true
			sameEdges(t, "WithoutProfile", tr)
			for range 50 {
				vals := randomProbe(s, rng)
				got := liveMatchSet(tr, vals)
				for pi, p := range tr.Profiles() {
					if got[p.ID] != (!removed[pi] && p.Matches(vals)) {
						t.Errorf("seed %d: after removing %v, %s matches %v at %v", seed, removed, p.ID, got[p.ID], vals)
						return false
					}
				}
			}
		}
		tr, _, _ = tr.Reordered(saltedMass(rng.Float64()*100), rng.Intn(s.N()))
		sameEdges(t, "Reordered", tr)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// layoutCost is the expected probes, times the weight, of the preorder probe
// tree layout[pos:] over edges lo..hi under weigh's prefix sums.
func layoutCost(layout []int32, cum []float64, pos, lo, hi int) float64 {
	if lo > hi {
		return 0
	}
	r := int(layout[pos])
	return cum[2*hi+3] - cum[2*lo] + layoutCost(layout, cum, pos+1, lo, r-1) + layoutCost(layout, cum, pos+1+r-lo, r+1, hi)
}

// bruteCost is the least layoutCost over every search tree on edges lo..hi.
func bruteCost(cum []float64, lo, hi int) float64 {
	if lo > hi {
		return 0
	}
	best := math.Inf(1)
	for r := lo; r <= hi; r++ {
		best = math.Min(best, bruteCost(cum, lo, r-1)+bruteCost(cum, r+1, hi))
	}
	return cum[2*hi+3] - cum[2*lo] + best
}

// balanced appends the count-balanced probe tree over edges lo..hi: the
// midpoints of plain binary search, which a weighted layout never costs more
// than.
func balanced(out []int32, lo, hi int) []int32 {
	if lo > hi {
		return out
	}
	mid := (lo + hi) / 2
	return balanced(balanced(append(out, int32(mid)), lo, mid-1), mid+1, hi)
}

// TestQuickWeightedLayoutIsOptimal: under the weights it was laid out for, a
// narrow node's probe tree never costs more than plain binary search's, and
// on nodes of at most 8 subrange edges it costs the minimum over all search
// trees. A wide node has a directory instead, and its search takes at most
// its read, bits.Len(n) probes and the trailing test on any value.
func TestQuickWeightedLayoutIsOptimal(t *testing.T) {
	s := incrSchema(t)
	small := 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 1+rng.Intn(10); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		vo := NaturalOrder() // uniform weights
		if seed%3 != 0 {
			vo = saltedMass(rng.Float64() * 100)
		}
		tr, err := Build(s, profiles, WithValueOrder(vo))
		if err != nil {
			t.Error(err)
			return false
		}
		var sc orderScratch
		for _, nodes := range views(tr) {
			for _, n := range nodes {
				if n.nSubrange >= interpMin {
					if len(n.layout) != layoutLen(n.nSubrange) {
						t.Errorf("seed %d: a node of %d subrange edges holds a layout of %d", seed, n.nSubrange, len(n.layout))
					}
					for p := tr.Pieces(n); p.Next(); {
						if _, ops := p.Cost(); ops > bits.Len(uint(n.nSubrange))+2 {
							t.Errorf("seed %d: piece %v of a node of %d subrange edges takes %d probes", seed, p.Iv, n.nSubrange, ops)
						}
					}
					continue
				}
				sc.weigh(&n, s.At(int(n.Attr)).Domain, vo)
				ns := int(n.nSubrange)
				got := layoutCost(n.layout, sc.cum, 0, 0, ns-1)
				if bin := layoutCost(balanced(nil, 0, ns-1), sc.cum, 0, 0, ns-1); got > bin+1e-12 {
					t.Errorf("seed %d: layout %v costs %g, binary search %g", seed, n.layout, got, bin)
				}
				if n.nSubrange <= 8 {
					small++
					if want := bruteCost(sc.cum, 0, ns-1); math.Abs(got-want) > 1e-12 {
						t.Errorf("seed %d: layout %v costs %g, the best tree %g", seed, n.layout, got, want)
					}
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if small == 0 {
		t.Error("no node small enough for the brute-force check")
	}
}

// TestWeightedLayoutOfAWideNode: a node of more than 512 subrange edges,
// whose directory reads no weights, is searched alike under uniform and
// under skewed weights: the probe finds every edge, and takes at most the
// directory's read and bits.Len(n) probes on any piece.
func TestWeightedLayoutOfAWideNode(t *testing.T) {
	const wide = 512
	d, err := schema.NewIntegerDomain(0, 4*wide)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d})
	var profiles []*predicate.Profile
	for v := 0; v < 4*wide; v += 3 {
		pr, err := predicate.NewComparison(0, predicate.OpEq, float64(v))
		if err != nil {
			t.Fatal(err)
		}
		p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", v)), pr)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	n := int(tr.Root().nSubrange)
	if n <= wide {
		t.Fatalf("root has %d subrange edges, want more than %d", n, wide)
	}
	sameEdges(t, "uniform", tr)
	// 90 % of the mass on the lowest hundredth of the domain.
	hot := NaturalOrder()
	hot.Mass = func(_ int, region []Interval) float64 {
		if region[0].Hi < 0.04*wide {
			return 90 * (region[0].Hi - region[0].Lo + 1)
		}
		return (region[0].Hi - region[0].Lo + 1) / 10
	}
	re, _, _ := tr.Reordered(hot)
	sameEdges(t, "skewed", re)
	budget := 1 + bits.Len(uint(n))
	for _, tr := range []*Tree{tr, re} {
		root := tr.Root()
		if len(root.layout) != layoutLen(int32(n)) {
			t.Fatalf("a node of %d subrange edges holds a layout of %d", n, len(root.layout))
		}
		for p := tr.Pieces(root); p.Next(); {
			if _, ops := p.Cost(); ops > budget {
				t.Fatalf("piece %v takes %d probes, want at most %d", p.Iv, ops, budget)
			}
		}
	}
}

// geometricRoot builds a tree over x and y whose root holds 300 subrange
// edges on x, their bounds growing geometrically, so that one of the
// directory's buckets holds most of them, and a complement edge, from a
// profile on y alone: ranges on a numeric domain, or on a discrete one
// single atoms spaced alike. It returns the tree and x's domain.
func geometricRoot(t *testing.T, discrete bool) (*Tree, schema.Domain) {
	t.Helper()
	const edges, ratio = 300, 1.1
	top := math.Pow(ratio, edges+1)
	d, err := schema.NewNumericDomain(0, top)
	if discrete {
		d, err = schema.NewIntegerDomain(0, int(top)+edges)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d}, schema.Attribute{Name: "y", Domain: d})
	var profiles []*predicate.Profile
	for i := range edges {
		lo := math.Pow(ratio, float64(i+1))
		pr, err := predicate.NewRange(0, lo, lo*1.01)
		if discrete {
			pr, err = predicate.NewComparison(0, predicate.OpEq, float64(i)+math.Floor(lo))
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	// A profile on y alone gives the root a complement edge to test last.
	pr, err := predicate.NewRange(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predicate.New(s, "y", pr)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(s, append(profiles, p))
	if err != nil {
		t.Fatal(err)
	}
	if root := tr.Root(); root.nSubrange != edges || int(root.nSubrange) == len(root.edges) {
		t.Fatalf("root has %d subrange edges of %d, want %d and a trailing edge", root.nSubrange, len(root.edges), edges)
	}
	return tr, d
}

// TestWideNodeWorstCase: on a node of 300 subrange edges whose bounds grow
// geometrically, so that one of the directory's buckets holds most of them,
// the probe still finds every edge, and no value takes more than the
// directory's read, bits.Len(n) probes and the trailing test. A node past
// the directory's 14-bit edge index is one bucket over all its edges,
// searched by the same bisection, and takes at most its read and
// bits.Len(n) probes.
func TestWideNodeWorstCase(t *testing.T) {
	tr, d := geometricRoot(t, false)
	root := tr.Root()
	n := int(root.nSubrange)
	budget, most := 1+bits.Len(uint(n))+1, 0
	for p := tr.Pieces(root); p.Next(); {
		edge, ops := p.Cost()
		if edge != scanEdge(root, d, inside(p.Iv)) {
			t.Fatalf("piece %v: the probe finds edge %d, the scan %d", p.Iv, edge, scanEdge(root, d, inside(p.Iv)))
		}
		if ops > budget {
			t.Fatalf("piece %v takes %d probes, want at most %d", p.Iv, ops, budget)
		}
		most = max(most, ops)
	}
	for i := range n {
		if edge, _ := root.probe(inside(root.edges[i].Iv())); edge != i {
			t.Fatalf("edge %d: the probe finds edge %d", i, edge)
		}
	}
	t.Logf("%d subrange edges: at most %d probes, budget %d", n, most, budget)

	const huge = entryMask + 2
	hd, err := schema.NewIntegerDomain(0, 2*huge)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: hd})
	profiles := make([]*predicate.Profile, huge)
	for i := range profiles {
		pr, err := predicate.NewComparison(0, predicate.OpEq, float64(2*i))
		if err != nil {
			t.Fatal(err)
		}
		if profiles[i], err = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr); err != nil {
			t.Fatal(err)
		}
	}
	big, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	root, most = big.Root(), 0
	if n = int(root.nSubrange); n != huge || buckets(n) != 1 || len(root.layout) != 1 {
		t.Fatalf("root has %d subrange edges in %d buckets of %d words, want %d in one", n, buckets(n), len(root.layout), huge)
	}
	budget = 1 + bits.Len(uint(n))
	for p := big.Pieces(root); p.Next(); {
		edge, ops := p.Cost()
		if want := scanEdge(root, hd, inside(p.Iv)); edge != want || ops > budget {
			t.Fatalf("piece %v: the probe finds edge %d in %d probes, the scan %d, budget %d", p.Iv, edge, ops, want, budget)
		}
		most = max(most, ops)
	}
	t.Logf("%d subrange edges in one bucket: at most %d probes, budget %d", n, most, budget)
}

// directoryAgrees fails where the probe of wide node n on its attribute's
// domain dom finds another edge than the scan: at each end of every piece,
// and at each bucket bound — the least value the lookup's slot puts into a
// bucket — and the value next to it on either side, the next float or, on a
// discrete domain, the next atom.
func directoryAgrees(t *testing.T, what string, n View, dom schema.Domain) {
	t.Helper()
	unit, g := unitOf(dom), gridOf(n.edges[:n.nSubrange])
	var vals []float64
	for p := n.pieces(dom); p.Next(); {
		vals = append(vals, p.Iv.Lo, p.Iv.Hi)
	}
	for i := 0; i <= g.k; i++ {
		u := g.a + float64(i)*(g.b-g.a)/float64(g.k)
		if unit > 0 {
			u = math.Ceil(u)
		}
		for g.slot(u) < i {
			u = step(u, unit, 1)
		}
		for g.slot(step(u, unit, -1)) >= i {
			u = step(u, unit, -1)
		}
		vals = append(vals, step(u, unit, -1), u, step(u, unit, 1))
	}
	for _, v := range vals {
		if got, ops := n.probe(v); got != scanEdge(n, dom, v) {
			t.Fatalf("%s: a node of %d subrange edges over [%v,%v]: value %v: the probe finds edge %d in %d ops, the scan %d",
				what, n.nSubrange, g.a, g.b, v, got, ops, scanEdge(n, dom, v))
		}
	}
}

// partsHaveOneCost fails where a part that Tree.Pieces yields of wide node n
// leads the probe to another edge, or costs it other operations, at either
// end or in the middle than Pieces.Cost says: Analyze charges each part one
// cost.
func partsHaveOneCost(t *testing.T, what string, tr *Tree, n View, dom schema.Domain) {
	t.Helper()
	unit := unitOf(dom)
	for p := tr.Pieces(n); p.Next(); {
		lo, hi := p.Iv.Lo, p.Iv.Hi
		if p.Iv.LoOpen {
			lo = step(lo, unit, 1)
		}
		if p.Iv.HiOpen {
			hi = step(hi, unit, -1)
		}
		mid := lo + (hi-lo)/2
		if unit > 0 {
			mid = math.Floor(mid)
		}
		edge, ops := p.Cost()
		for _, v := range []float64{lo, mid, hi} {
			if e, o := n.probe(v); e != edge || o != ops {
				t.Fatalf("%s: part %v of a node of %d subrange edges: value %v takes edge %d in %d ops, the part edge %d in %d",
					what, p.Iv, n.nSubrange, v, e, o, edge, ops)
			}
		}
	}
}

// TestDirectoryAgreesWithScan: on the wide nodes of churnCorpus Builds —
// with the numeric temperature at the root, and with the integer floor
// there — and on TestWideNodeWorstCase's geometric root over a numeric and
// over an integer domain, the probe finds the scan's edge at the ends of
// every piece, at every bucket bound and next to it on either side, and
// each part Tree.Pieces yields has one cost.
func TestDirectoryAgreesWithScan(t *testing.T) {
	s, profile := churnCorpus(t)
	corpus := make([]*predicate.Profile, 1000)
	for i := range corpus {
		corpus[i] = profile(i)
	}
	wide := map[bool]int{}
	for _, order := range [][]int{{0, 1, 2, 3}, {2, 0, 1, 3}} {
		tr, err := Build(s, corpus, WithAttributeOrder(order))
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range views(tr) {
			for _, n := range nodes {
				if dom := s.At(int(n.Attr)).Domain; n.nSubrange >= interpMin {
					what := fmt.Sprintf("churnCorpus in order %v", order)
					directoryAgrees(t, what, n, dom)
					partsHaveOneCost(t, what, tr, n, dom)
					wide[dom.Kind() != schema.KindNumeric]++
				}
			}
		}
	}
	if wide[false] == 0 || wide[true] == 0 {
		t.Fatalf("%d wide nodes on numeric domains, %d on discrete ones: want both", wide[false], wide[true])
	}
	for _, discrete := range []bool{false, true} {
		tr, d := geometricRoot(t, discrete)
		what := fmt.Sprintf("geometric root, discrete %v", discrete)
		directoryAgrees(t, what, tr.Root(), d)
		partsHaveOneCost(t, what, tr, tr.Root(), d)
	}
}

// TestProbeOpsAreComparisons: the operations the probe reports are the
// interval comparisons it executes, plus one for a wide node's directory
// read, on narrow and on wide nodes. An edge that does not hold v was
// compared with it exactly when widening its interval to take in v makes the
// probe stop there: the widening moves only a bound that lies beyond v, so
// the probes up to that edge stay as they were. On a wide node a widening
// that would move the directory's span — edge 0's low bound down to v, the
// last edge's high bound up to it — is not made: a value outside the span is
// answered by the read. The edge that holds v was compared exactly when
// cutting v out of its interval, a cut that leaves the span as it is, makes
// the probe move on: a bucket that lies wholly inside that edge is answered
// by the read too. The trailing edge was tested exactly when moving the
// domain's bounds off v turns its match into a miss.
func TestProbeOpsAreComparisons(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(9))
	var profiles []*predicate.Profile
	for i := 0; i < 40; i++ {
		profiles = append(profiles, randomProfile(t, s, rng, i))
	}
	tr, err := Build(s, profiles, WithValueOrder(saltedMass(17)))
	if err != nil {
		t.Fatal(err)
	}
	checked, wide, read := 0, 0, 0
	for _, nodes := range views(tr) {
		for _, n := range nodes {
			ns := int(n.nSubrange)
			for p := tr.Pieces(n); p.Next(); {
				v := inside(p.Iv)
				edge, ops := n.probe(v)
				compared := 0
				for k := 0; k < ns; k++ {
					c := n
					c.edges = append([]Edge(nil), n.edges...)
					iv := c.edges[k].Iv()
					switch {
					case k == edge && v == iv.Lo:
						iv.LoOpen = true
					case k == edge && v == iv.Hi:
						iv.HiOpen = true
					case k == edge && k == ns-1:
						iv.Lo, iv.LoOpen = v, true
					case k == edge:
						iv.Hi, iv.HiOpen = v, true
					case ns >= interpMin && (k == 0 && v < iv.Lo || k == ns-1 && v > iv.Hi):
						continue
					case iv.After(v):
						iv.Lo, iv.LoOpen = v, false
					case iv.Before(v):
						iv.Hi, iv.HiOpen = v, false
					}
					c.edges[k] = edgeOver(iv, c.edges[k].To)
					if got, _ := c.probe(v); (got == k) != (k == edge) {
						compared++
					}
				}
				if edge >= ns {
					c := n
					c.edges = append([]Edge(nil), n.edges...)
					c.edges[edge] = edgeOver(schema.Closed(v+1, v+2), c.edges[edge].To)
					if got, _ := c.probe(v); got != -1 {
						t.Fatalf("value %v: the trailing edge matched without a test of the domain", v)
					}
					compared++
				}
				if ns >= interpMin {
					compared++ // the directory's read
					wide++
					if ops == 1 {
						read++
					}
				}
				if ops != compared {
					t.Fatalf("node %+v layout %v value %v: %d ops reported, %d charged", n.edges, n.layout, v, ops, compared)
				}
				checked++
			}
		}
	}
	if checked < 100 || wide == 0 || wide == checked || read == 0 {
		t.Errorf("%d buckets checked, %d of them on wide nodes, %d answered by the read alone: want at least 100, on narrow and on wide nodes, some by the read", checked, wide, read)
	}
}
