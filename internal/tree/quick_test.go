package tree

import (
	"fmt"
	"math"
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
// agrees with direct predicate evaluation under every search strategy.
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
		for _, strategy := range []Search{SearchLinear, SearchBinary, SearchInterpolation, SearchHash, SearchWeighted} {
			tr, err := Build(s, profiles, WithSearch(strategy))
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
					got[pi] = true
				}
				for pi, p := range profiles {
					if p.Matches(vals) != got[pi] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderPositionsArePermutation: for arbitrary rank functions the
// defined-order positions over a node's buckets form the range 1..k.
func TestQuickOrderPositionsArePermutation(t *testing.T) {
	d, err := schema.NewIntegerDomain(0, quickDomainHi)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d})
	rng := rand.New(rand.NewSource(5))
	var values [][]int
	for i := 0; i < 20; i++ {
		values = append(values, []int{rng.Intn(quickDomainHi + 1)})
	}
	profiles := make([]*predicate.Profile, len(values))
	for i, v := range values {
		pr, err := predicate.NewComparison(0, predicate.OpEq, float64(v[0]))
		if err != nil {
			t.Fatal(err)
		}
		profiles[i], err = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), pr)
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Build(s, profiles, WithSearch(SearchLinear))
	if err != nil {
		t.Fatal(err)
	}

	check := func(seed int64, desc bool) bool {
		h := rand.New(rand.NewSource(seed))
		salt := h.Float64() * 100
		tr.ApplyValueOrder(ValueOrder{
			Name:       "quick",
			Descending: desc,
			Rank: func(_ int, region []Interval) float64 {
				return math.Mod(region[0].Lo*salt, 13)
			},
		})
		root := tr.Root()
		// Edge positions must be distinct and within 1..#buckets-ish; the
		// scan must visit every edge exactly once in increasing position.
		if !root.scanPositionsIncreasing() {
			return false
		}
		seen := map[int32]bool{}
		for _, pos := range root.tab.orderPos {
			if pos < 1 || seen[pos] {
				return false
			}
			seen[pos] = true
		}
		return len(seen) == len(root.Edges())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fingerprint renders every unique node of the tree: identity, children, leaf
// sets, scan order or probe tree and the scans' lookup table.
func fingerprint(tr *Tree) string {
	out := ""
	for _, level := range tr.Levels() {
		for _, n := range level {
			out += fmt.Sprintf("%p %v %v %v", n, n.scan, n.extra, n.nSubrange)
			if n.tab != nil {
				out += fmt.Sprintf(" %+v", *n.tab)
			}
			for _, e := range n.edges {
				out += fmt.Sprintf("\n  %v %v %p", e.Iv, e.Leaf(), e.Child)
			}
			out += "\n"
		}
	}
	return out
}

// TestQuickPartialReorder: for random trees — fresh from Build or grown by
// inserts — the scan or the weighted search, random attribute orders and
// random sets of drifted attributes,
// re-sorting only the nodes that test a drifted attribute gives the same
// matches at the same per-event cost as re-sorting every node under an order
// that changed on those attributes alone; it shares every node below the
// deepest drifted level with the predecessor, copies every node at or above
// it, counts both, and leaves the predecessor bit for bit as it was.
func TestQuickPartialReorder(t *testing.T) {
	s := incrSchema(t)
	salted := func(salts []float64, desc bool) ValueOrder {
		rank := func(attr int, region []Interval) float64 {
			return math.Mod((region[0].Lo+1)*salts[attr], 13)
		}
		return ValueOrder{Name: "quick", Descending: desc, Rank: rank, Mass: rank}
	}
	check := func(seed int64, pick uint8, desc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 4+rng.Intn(12); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		oldSalts := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		old, err := Build(s, profiles, WithAttributeOrder(rng.Perm(s.N())),
			WithSearch([]Search{SearchLinear, SearchWeighted}[rng.Intn(2)]))
		if err != nil {
			t.Error(err)
			return false
		}
		old.ApplyValueOrder(salted(oldSalts, desc))
		if grow := rng.Intn(4); grow > 0 {
			for i := 0; i < grow; i++ {
				old, _ = old.WithProfile(randomProfile(t, s, rng, 100+i), salted(oldSalts, desc))
			}
			// Inserted nodes inherit their neighbours' positions; a whole
			// reorder makes the order the measure's again.
			old, _, _ = old.Reordered(salted(oldSalts, desc))
		}

		var drifted []int
		newSalts := append([]float64(nil), oldSalts...)
		deepest := -1
		for level, attr := range old.AttrOrder() {
			if pick>>attr&1 == 1 {
				drifted = append(drifted, attr)
				newSalts[attr] = rng.Float64() * 100
				deepest = level
			}
		}
		if drifted == nil {
			return true // no attributes given means all of them: the other test case
		}
		before := fingerprint(old)
		part, resorted, copied := old.Reordered(salted(newSalts, desc), drifted...)
		full, all, none := old.Reordered(salted(newSalts, desc))
		if fingerprint(old) != before {
			t.Errorf("seed %d: Reordered mutated its receiver", seed)
			return false
		}
		if all != old.Stats().Nodes || none != 0 {
			t.Errorf("seed %d: whole reorder re-sorted %d and copied %d of %d nodes", seed, all, none, old.Stats().Nodes)
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
		wantResorted, wantCopied := 0, 0
		for level, nodes := range old.Levels() {
			successors := part.Levels()[level]
			if len(successors) != len(nodes) {
				t.Errorf("seed %d: level %d has %d nodes, had %d", seed, level, len(successors), len(nodes))
				return false
			}
			was := make(map[*Node]bool, len(nodes))
			for _, n := range nodes {
				was[n] = true
			}
			for _, n := range successors {
				if was[n] != (level > deepest) {
					t.Errorf("seed %d drifted %v: level %d node shared = %v, deepest drifted level %d", seed, drifted, level, was[n], deepest)
					return false
				}
			}
			switch {
			case pick>>old.AttrOrder()[level]&1 == 1:
				wantResorted += len(nodes)
			case level < deepest:
				wantCopied += len(nodes)
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

// saltedMass is a positive pseudo-random event mass over regions.
func saltedMass(salt float64) ValueOrder {
	vo := NaturalOrder()
	vo.Mass = func(attr int, region []Interval) float64 {
		return (region[0].Hi - region[0].Lo + 0.01) * (1 + math.Mod((region[0].Lo+float64(attr)+1)*salt, 7))
	}
	return vo
}

// sameEdges walks two trees of one structure node by node and fails where the
// weighted probe and the paper's scan disagree on the edge for a value of any
// bucket, or for a value beyond either end of the domain.
func sameEdges(t *testing.T, what string, weighted, linear *Tree) {
	t.Helper()
	for level, nodes := range linear.Levels() {
		for i, ln := range nodes {
			wn := weighted.Levels()[level][i]
			dom := linear.schema.At(int(ln.Attr)).Domain
			vals := []float64{dom.Lo() - 1, dom.Hi() + 1}
			for p := wn.pieces(dom); p.Next(); {
				vals = append(vals, inside(p.Iv))
			}
			if len(vals) != 2+len(ln.tab.buckets) {
				t.Fatalf("%s: level %d node %d has %d pieces, its scan twin %d buckets", what, level, i, len(vals)-2, len(ln.tab.buckets))
			}
			for _, v := range vals {
				want, _ := ln.step(v, SearchLinear)
				if got, ops := wn.step(v, SearchWeighted); got != want || ops > len(wn.edges) {
					t.Fatalf("%s: level %d node %d value %v: probe found edge %d in %d ops, scan %d\n%+v\n%v",
						what, level, i, v, got, ops, want, ln.tab.buckets, wn.scan)
				}
			}
		}
	}
}

// TestQuickWeightedFindsTheScansEdge: for random corpora the weighted probe
// returns the edge the paper's scan returns, in every bucket of every node and
// outside the domain, after Build, WithProfile, WithoutProfile and Reordered.
func TestQuickWeightedFindsTheScansEdge(t *testing.T) {
	s := incrSchema(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 1+rng.Intn(14); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		order := rng.Perm(s.N())
		var trees [2]*Tree
		for i, strategy := range []Search{SearchWeighted, SearchLinear} {
			tr, err := Build(s, profiles, WithAttributeOrder(order), WithSearch(strategy))
			if err != nil {
				t.Error(err)
				return false
			}
			trees[i] = tr
		}
		sameEdges(t, "Build", trees[0], trees[1])
		vo := saltedMass(rng.Float64() * 100)
		for step := 0; step < 6; step++ {
			p := randomProfile(t, s, rng, 100+step)
			for i := range trees {
				trees[i], _ = trees[i].WithProfile(p, vo)
			}
			sameEdges(t, "WithProfile", trees[0], trees[1])
		}
		for i := range trees {
			trees[i] = trees[i].WithoutProfile(rng.Intn(len(profiles)))
		}
		sameEdges(t, "WithoutProfile", trees[0], trees[1])
		for i := range trees {
			trees[i], _, _ = trees[i].Reordered(saltedMass(rng.Float64()*100), rng.Intn(s.N()))
		}
		sameEdges(t, "Reordered", trees[0], trees[1])
		sameEdges(t, "WithStrategy", trees[1].WithStrategy(SearchWeighted, vo), trees[1])
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// layoutCost is the expected probes, times the weight, of the preorder probe
// tree scan[pos:] over edges lo..hi under weigh's prefix sums.
func layoutCost(scan []int32, cum []float64, pos, lo, hi int) float64 {
	if lo > hi {
		return 0
	}
	r := int(scan[pos])
	return cum[2*hi+3] - cum[2*lo] + layoutCost(scan, cum, pos+1, lo, r-1) + layoutCost(scan, cum, pos+1+r-lo, r+1, hi)
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

// TestQuickWeightedLayoutIsOptimal: under the weights it was laid out for, a
// node's probe tree never costs more than plain binary search's, and on nodes
// of at most 8 subrange edges it costs the minimum over all search trees.
func TestQuickWeightedLayoutIsOptimal(t *testing.T) {
	s := incrSchema(t)
	small := 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 1+rng.Intn(10); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		tr, err := Build(s, profiles)
		if err != nil {
			t.Error(err)
			return false
		}
		vo := NaturalOrder() // uniform weights
		if seed%3 != 0 {
			vo = saltedMass(rng.Float64() * 100)
		}
		tr.ApplyValueOrder(vo)
		var sc orderScratch
		for _, nodes := range tr.Levels() {
			for _, n := range nodes {
				sc.weigh(n, s.At(int(n.Attr)).Domain, vo)
				ns := int(n.nSubrange)
				got := layoutCost(n.scan, sc.cum, 0, 0, ns-1)
				if bin := layoutCost(balanced(nil, 0, ns-1), sc.cum, 0, 0, ns-1); got > bin+1e-12 {
					t.Errorf("seed %d: layout %v costs %g, binary search %g", seed, n.scan, got, bin)
				}
				if n.nSubrange <= 8 {
					small++
					if want := bruteCost(sc.cum, 0, ns-1); math.Abs(got-want) > 1e-12 {
						t.Errorf("seed %d: layout %v costs %g, the best tree %g", seed, n.scan, got, want)
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

// TestWeightedLayoutOfAWideNode: a node with more subrange edges than one
// optimal table holds is split by weight first; the probe still finds every
// edge, in no more probes than the skew of the weights explains.
func TestWeightedLayoutOfAWideNode(t *testing.T) {
	d, err := schema.NewIntegerDomain(0, 4*maxOptimal)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: d})
	var profiles []*predicate.Profile
	for v := 0; v < 4*maxOptimal; v += 3 {
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
	var trees [2]*Tree
	for i, strategy := range []Search{SearchWeighted, SearchLinear} {
		if trees[i], err = Build(s, profiles, WithSearch(strategy)); err != nil {
			t.Fatal(err)
		}
	}
	if n := int(trees[0].Root().nSubrange); n <= maxOptimal {
		t.Fatalf("root has %d subrange edges, want more than %d", n, maxOptimal)
	}
	sameEdges(t, "uniform", trees[0], trees[1])
	// 90 % of the mass on the lowest hundredth of the domain.
	hot := NaturalOrder()
	hot.Mass = func(_ int, region []Interval) float64 {
		if region[0].Hi < 0.04*maxOptimal {
			return 90 * (region[0].Hi - region[0].Lo + 1)
		}
		return (region[0].Hi - region[0].Lo + 1) / 10
	}
	re, _, _ := trees[0].Reordered(hot)
	sameEdges(t, "skewed", re, trees[1])
	_, cold := trees[0].Match([]float64{3})
	_, warm := re.Match([]float64{3})
	if warm >= cold {
		t.Errorf("a value in the hot hundredth takes %d probes, %d under uniform weights", warm, cold)
	}
}

// TestProbeOpsAreComparisons: the operations the default search reports are
// the interval comparisons it executes. An edge was compared with the value
// exactly when replacing its interval by the point {v} makes the probe stop
// there, and the trailing edge was tested exactly when moving the domain's
// bounds off v turns its match into a miss.
func TestProbeOpsAreComparisons(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(9))
	var profiles []*predicate.Profile
	for i := 0; i < 40; i++ {
		profiles = append(profiles, randomProfile(t, s, rng, i))
	}
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy() != DefaultSearch {
		t.Fatalf("Build defaults to %v", tr.Strategy())
	}
	tr.ApplyValueOrder(saltedMass(17))
	checked := 0
	for _, nodes := range tr.Levels() {
		for _, n := range nodes {
			for p := tr.Pieces(n); p.Next(); {
				v := inside(p.Iv)
				edge, ops := n.step(v, DefaultSearch)
				compared := 0
				for k := 0; k < int(n.nSubrange); k++ {
					c := *n
					c.edges = append([]Edge(nil), n.edges...)
					c.edges[k].Iv = schema.Closed(v, v)
					if got, _ := c.probe(v); got == k {
						compared++
					}
				}
				if edge >= int(n.nSubrange) {
					c := *n
					c.edges = append([]Edge(nil), n.edges...)
					c.edges[edge].Iv = schema.Closed(v+1, v+2)
					if got, _ := c.probe(v); got != -1 {
						t.Fatalf("value %v: the trailing edge matched without a test of the domain", v)
					}
					compared++
				}
				if ops != compared {
					t.Fatalf("node %+v layout %v value %v: %d ops reported, %d intervals compared", n.edges, n.scan, v, ops, compared)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d buckets checked", checked)
	}
}
