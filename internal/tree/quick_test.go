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
		for _, strategy := range []Search{SearchLinear, SearchBinary, SearchInterpolation, SearchHash} {
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
	tr, err := Build(s, profiles)
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
		seen := map[int]bool{}
		for _, pos := range root.OrderPositions() {
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

// fingerprint renders every unique node of the tree: identity, children,
// buckets with their lookup-table positions, scan order and position table.
func fingerprint(tr *Tree) string {
	out := ""
	for _, level := range tr.Levels() {
		for _, n := range level {
			out += fmt.Sprintf("%p %+v %v %v %v %v\n", n, n.buckets, n.scan, n.orderPos, n.extra, n.nSubrange)
			for _, e := range n.edges {
				out += fmt.Sprintf("  %v %v %v %p\n", e.Kind, e.Iv, e.Profiles, e.Child)
			}
		}
	}
	return out
}

// TestQuickPartialReorder: for random trees — fresh from Build or grown by
// inserts — random attribute orders and random sets of drifted attributes,
// re-sorting only the nodes that test a drifted attribute gives the same
// matches at the same per-event cost as re-sorting every node under an order
// that changed on those attributes alone; it shares every node below the
// deepest drifted level with the predecessor, copies every node at or above
// it, counts both, and leaves the predecessor bit for bit as it was.
func TestQuickPartialReorder(t *testing.T) {
	s := incrSchema(t)
	salted := func(salts []float64, desc bool) ValueOrder {
		return ValueOrder{Name: "quick", Descending: desc, Rank: func(attr int, region []Interval) float64 {
			return math.Mod((region[0].Lo+1)*salts[attr], 13)
		}}
	}
	check := func(seed int64, pick uint8, desc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var profiles []*predicate.Profile
		for i := 0; i < 4+rng.Intn(12); i++ {
			profiles = append(profiles, randomProfile(t, s, rng, i))
		}
		oldSalts := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		old, err := Build(s, profiles, WithAttributeOrder(rng.Perm(s.N())))
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
