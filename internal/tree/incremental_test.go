package tree

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// incrSchema mixes a continuous, an integer and a categorical attribute so
// the incremental transform exercises both the continuous split path and the
// discrete atom-snapping path.
func incrSchema(t *testing.T) *schema.Schema {
	t.Helper()
	num, err := schema.NewNumericDomain(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := schema.NewIntegerDomain(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := schema.NewCategoricalDomain("a", "b", "c", "d", "e")
	if err != nil {
		t.Fatal(err)
	}
	return schema.MustNew(
		schema.Attribute{Name: "num", Domain: num},
		schema.Attribute{Name: "int", Domain: in},
		schema.Attribute{Name: "cat", Domain: cat},
	)
}

// randomProfile draws a profile with random per-attribute constraints:
// don't-care, range, comparison or point-set, occasionally out-of-domain or
// atom-free so the unsatisfiable fast path is covered too.
func randomProfile(t *testing.T, s *schema.Schema, rng *rand.Rand, id int) *predicate.Profile {
	t.Helper()
	var preds []predicate.Predicate
	for attr := 0; attr < s.N(); attr++ {
		dom := s.At(attr).Domain
		lo, hi := dom.Lo(), dom.Hi()
		switch rng.Intn(5) {
		case 0: // don't-care
		case 1:
			a := lo + rng.Float64()*(hi-lo)
			b := a + rng.Float64()*(hi-a)
			if dom.Kind() != schema.KindNumeric && rng.Intn(2) == 0 {
				a, b = float64(int(a)), float64(int(b))
			}
			pr, err := predicate.NewRange(attr, a, b)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		case 2:
			op := []predicate.Op{predicate.OpEq, predicate.OpLt, predicate.OpLe, predicate.OpGt, predicate.OpGe}[rng.Intn(5)]
			v := lo + rng.Float64()*(hi-lo)
			if dom.Kind() != schema.KindNumeric {
				v = float64(int(v))
			}
			pr, err := predicate.NewComparison(attr, op, v)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		case 3:
			k := 1 + rng.Intn(3)
			vs := make([]float64, k)
			for i := range vs {
				vs[i] = float64(int(lo) + rng.Intn(int(hi-lo)+1))
			}
			pr, err := predicate.NewIn(attr, vs...)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		case 4:
			// Occasionally atom-free on discrete domains (unsatisfiable).
			a := lo + rng.Float64()*(hi-lo-1)
			pr, err := predicate.NewRange(attr, a+0.1, a+0.2)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		}
	}
	if len(preds) == 0 {
		pr, err := predicate.NewRange(0, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, pr)
	}
	p, err := predicate.New(s, predicate.ID(fmt.Sprintf("p%d", id)), preds...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomProbe(s *schema.Schema, rng *rand.Rand) []float64 {
	vals := make([]float64, s.N())
	for attr := 0; attr < s.N(); attr++ {
		dom := s.At(attr).Domain
		v := dom.Lo() + rng.Float64()*(dom.Hi()-dom.Lo())
		if dom.Kind() != schema.KindNumeric || rng.Intn(2) == 0 {
			v = float64(int(v))
		}
		vals[attr] = v
	}
	return vals
}

// liveMatchSet collects the matched profile IDs of a tree for a probe.
func liveMatchSet(tr *Tree, vals []float64) map[predicate.ID]bool {
	matched, _ := tr.Match(vals)
	out := make(map[predicate.ID]bool, len(matched))
	profs := tr.Profiles()
	for _, pi := range matched {
		out[profs[pi].ID] = true
	}
	return out
}

// TestWithProfileOracle grows a tree one profile at a time via WithProfile
// and checks, after every insertion, that the incremental tree produces
// exactly the match sets of (a) a tree freshly built from the same corpus
// and (b) direct predicate evaluation — across random probes and under both
// uniform and non-uniform weights.
func TestWithProfileOracle(t *testing.T) {
	s := incrSchema(t)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vo := NaturalOrder()
		if seed%2 == 1 {
			vo = ValueOrder{
				Name: "widest-first",
				Mass: func(_ int, region []Interval) float64 {
					var w float64
					for _, iv := range region {
						w += (iv.Hi - iv.Lo) * (iv.Hi - iv.Lo)
					}
					return w
				},
			}
		}

		var corpus []*predicate.Profile
		var inc *Tree
		for step := 0; step < 18; step++ {
			p := randomProfile(t, s, rng, int(seed)*100+step)
			corpus = append(corpus, p)
			if inc == nil {
				var err error
				inc, err = Build(s, corpus, WithValueOrder(vo))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				var pi int
				inc, pi = inc.WithProfile(p, vo)
				if pi != len(corpus)-1 {
					t.Fatalf("seed %d step %d: WithProfile index = %d, want %d", seed, step, pi, len(corpus)-1)
				}
			}

			oracle, err := Build(s, corpus, WithValueOrder(vo))
			if err != nil {
				t.Fatalf("seed %d step %d: oracle build: %v", seed, step, err)
			}

			for probe := 0; probe < 30; probe++ {
				vals := randomProbe(s, rng)
				got := liveMatchSet(inc, vals)
				want := liveMatchSet(oracle, vals)
				for _, p := range corpus {
					direct := p.Matches(vals)
					if want[p.ID] != direct {
						t.Fatalf("seed %d step %d: oracle disagrees with direct eval for %s at %v", seed, step, p.ID, vals)
					}
					if got[p.ID] != direct {
						t.Fatalf("seed %d step %d: incremental tree: profile %s match=%v direct=%v at %v",
							seed, step, p.ID, got[p.ID], direct, vals)
					}
				}
			}
		}
	}
}

// TestWithoutProfileOracle interleaves insertions and removals and checks the
// match sets against direct evaluation of the live corpus, and that no set of
// the tree lists a removed index.
func TestWithoutProfileOracle(t *testing.T) {
	s := incrSchema(t)
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vo := NaturalOrder()

		live := make(map[predicate.ID]*predicate.Profile)
		denseOf := make(map[predicate.ID]int)
		removed := make(map[int]bool)
		var inc *Tree
		next := 0
		for step := 0; step < 40; step++ {
			if inc != nil && len(live) > 0 && rng.Intn(3) == 0 {
				// Remove a random live profile.
				var victim predicate.ID
				k := rng.Intn(len(live))
				for id := range live {
					if k == 0 {
						victim = id
						break
					}
					k--
				}
				inc = inc.WithoutProfile(denseOf[victim])
				removed[denseOf[victim]] = true
				delete(live, victim)
				delete(denseOf, victim)
			} else {
				p := randomProfile(t, s, rng, int(seed)*1000+next)
				next++
				if inc == nil {
					var err error
					inc, err = Build(s, []*predicate.Profile{p})
					if err != nil {
						t.Fatal(err)
					}
					denseOf[p.ID] = 0
				} else {
					var pi int
					inc, pi = inc.WithProfile(p, vo)
					denseOf[p.ID] = pi
				}
				live[p.ID] = p
			}
			noneRemoved(t, fmt.Sprintf("seed %d step %d", seed, step), inc, removed)
			for probe := 0; probe < 20; probe++ {
				vals := randomProbe(s, rng)
				got := liveMatchSet(inc, vals)
				n := 0
				for id, p := range live {
					direct := p.Matches(vals)
					if got[id] != direct {
						t.Fatalf("seed %d step %d: profile %s match=%v direct=%v at %v",
							seed, step, id, got[id], direct, vals)
					}
					if direct {
						n++
					}
				}
				if len(got) != n {
					t.Fatalf("seed %d step %d: matched %d live profiles, want %d (ghost match?)", seed, step, len(got), n)
				}
			}
		}
	}
}

// TestWithoutProfileIsIdempotent: removing an index no set holds — one
// removed already, or an unsatisfiable profile's — leaves every match set as
// it was, on random trees over random attribute orders.
func TestWithoutProfileIsIdempotent(t *testing.T) {
	s := incrSchema(t)
	grid := probeGrid(s)
	unsat := predicate.MustParse(s, "unsat", "profile(int in [2.1,2.4])")
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := make([]*predicate.Profile, 2+rng.Intn(12))
		for i := range corpus {
			corpus[i] = randomProfile(t, s, rng, i)
		}
		tr, err := Build(s, corpus, WithAttributeOrder(rng.Perm(s.N())))
		if err != nil {
			t.Fatal(err)
		}
		for i := range 4 {
			tr, _ = tr.WithProfile(randomProfile(t, s, rng, len(corpus)+i), NaturalOrder())
		}
		pi := rng.Intn(len(tr.Profiles()))
		once := tr.WithoutProfile(pi)
		withUnsat, ui := once.WithProfile(unsat, NaturalOrder())
		sameMatches(t, fmt.Sprintf("seed %d: a second removal of %d", seed, pi), grid, once, once.WithoutProfile(pi))
		sameMatches(t, fmt.Sprintf("seed %d: an unsatisfiable profile's removal", seed), grid, once, withUnsat.WithoutProfile(ui))
	}
}

// TestReorderedDoesNotMutateOriginal pins the RCU contract: applying new
// weights via Reordered leaves the original tree's probe trees intact.
func TestReorderedDoesNotMutateOriginal(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(7))
	var corpus []*predicate.Profile
	for i := 0; i < 12; i++ {
		corpus = append(corpus, randomProfile(t, s, rng, i))
	}
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(tr.Root().layout)

	re, _, _ := tr.Reordered(saltedMass(5))
	if after := tr.Root().layout; !slices.Equal(before, after) {
		t.Fatalf("original probe tree mutated: %v -> %v", before, after)
	}
	if slices.Equal(before, re.Root().layout) {
		t.Logf("the new weights happen to keep the root's probe tree %v", before)
	}
	// The reordered tree still produces identical match sets.
	for probe := 0; probe < 50; probe++ {
		vals := randomProbe(s, rng)
		got := liveMatchSet(re, vals)
		for _, p := range corpus {
			if got[p.ID] != p.Matches(vals) {
				t.Fatalf("reordered tree: profile %s mismatch at %v", p.ID, vals)
			}
		}
	}
	if rs, ts := re.Stats(), tr.Stats(); rs.Nodes != ts.Nodes {
		t.Fatalf("Reordered changed node count: %d != %d", rs.Nodes, ts.Nodes)
	}
}

// TestWithProfileStatsTracked checks sweep keeps Stats and Levels coherent
// on successor trees.
func TestWithProfileStatsTracked(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(11))
	tr, err := Build(s, []*predicate.Profile{randomProfile(t, s, rng, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		tr, _ = tr.WithProfile(randomProfile(t, s, rng, i), NaturalOrder())
	}
	st := tr.Stats()
	if st.Profiles != 10 {
		t.Fatalf("Profiles=%d want 10", st.Profiles)
	}
	n := 0
	for _, level := range tr.Levels() {
		n += len(level)
	}
	if n != st.Nodes {
		t.Fatalf("levels hold %d nodes, Stats says %d", n, st.Nodes)
	}
	if st.Height != s.N() {
		t.Fatalf("Height=%d want %d", st.Height, s.N())
	}
}

// TestReorderedReleasesWhatItReplaces: Build carves a tree from chunks, and a
// chunk lives as long as anything in it. A whole reorder copies every node
// and leaf set into a fresh line, so once the predecessor is dropped the heap
// must be back near one tree: a reorder that carved into the predecessor's
// line, or shared its leaf sets, would keep its chunks alive.
func TestReorderedReleasesWhatItReplaces(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(11))
	profiles := make([]*predicate.Profile, 1500)
	for i := range profiles {
		x, y := rng.Float64()*9.5, float64(rng.Intn(18))
		px, err := predicate.NewRange(0, x, x+0.1+rng.Float64()*0.4)
		if err != nil {
			t.Fatal(err)
		}
		py, err := predicate.NewRange(1, y, y+float64(rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		if profiles[i], err = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), px, py); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	tr, err := Build(s, profiles)
	if err != nil {
		t.Fatal(err)
	}
	built := heap() - base
	tr, resorted, _ := tr.Reordered(saltedMass(3))
	after := heap() - base
	t.Logf("%d nodes: %d KB built, %d KB after a whole reorder", resorted, built>>10, after>>10)
	if after > built*5/4 {
		t.Errorf("a whole reorder of a %d KB tree leaves %d KB live: the predecessor is still held", built>>10, after>>10)
	}
	runtime.KeepAlive(tr)
}

// TestReorderedLines: a reorder above the last level carves its copies into
// its predecessor's line, as an edit does: the line holds more bytes after
// it, the levels it copies are fresh nodes, and the levels below are the
// predecessor's, shared by id. A reorder that reaches the last level starts a
// line of its own, whose slabs share no chunk with the predecessor's. Both
// match as the predecessor does.
func TestReorderedLines(t *testing.T) {
	s, profile := churnCorpus(t)
	corpus := make([]*predicate.Profile, 300)
	for i := range corpus {
		corpus[i] = profile(i)
	}
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		tr, _ = tr.WithProfile(profile(len(corpus)+i), NaturalOrder())
	}
	held := tr.line.held
	part, resorted, _ := tr.Reordered(saltedMass(3), tr.attrOrder[1])
	if part.line != tr.line || part.line.held <= held {
		t.Errorf("a reorder of level 1 did not carve into its predecessor's line (same line %v, %d bytes held, %d before)",
			part.line == tr.line, part.line.held, held)
	}
	was := tr.Levels()
	for l, ids := range part.Levels() {
		for _, id := range ids {
			switch shared := slices.Contains(was[l], id); {
			case l <= 1 && shared:
				t.Fatalf("level %d: the reorder kept node %d, which it copies", l, id)
			case l > 1 && (!shared || part.st.nodes.at(id) != tr.st.nodes.at(id)):
				t.Fatalf("level %d: node %d is not the predecessor's", l, id)
			}
		}
		if l > 1 && len(ids) != len(was[l]) {
			t.Fatalf("level %d: %d nodes, the predecessor's %d", l, len(ids), len(was[l]))
		}
	}
	if sharedPages(&part.st, &tr.st) == 0 {
		t.Error("a partial reorder shares no page with its predecessor")
	}
	whole, _, _ := tr.Reordered(saltedMass(5))
	if whole.line == tr.line {
		t.Error("a whole reorder carved into its predecessor's line")
	}
	if shared := sharedPages(&whole.st, &tr.st); shared > 0 {
		t.Errorf("a whole reorder shares %d pages with its predecessor", shared)
	}
	rng := rand.New(rand.NewSource(8))
	for range 500 {
		vals := randomEvent(s, rng)
		want, _ := tr.Match(vals)
		for name, r := range map[string]*Tree{"partial": part, "whole": whole} {
			if got, _ := r.Match(vals); !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
				t.Fatalf("%s reorder: %v matches %v, the predecessor %v", name, vals, got, want)
			}
		}
	}
	t.Logf("the partial reorder re-laid %d nodes and carved %d KB into the line", resorted, (part.line.held-held)>>10)
}

// sharedPages counts the pages of a's slabs whose memory overlaps a page of
// b's.
func sharedPages(a, b *store) int {
	var spans [2][][2]uintptr
	for i, st := range []*store{a, b} {
		spans[i] = pageSpans(spans[i], &st.nodes)
		spans[i] = pageSpans(spans[i], &st.edges)
		spans[i] = pageSpans(spans[i], &st.ints)
		spans[i] = pageSpans(spans[i], &st.sets)
	}
	n := 0
	for _, x := range spans[0] {
		for _, y := range spans[1] {
			if x[0] < y[1] && y[0] < x[1] {
				n++
				break
			}
		}
	}
	return n
}

// pageSpans appends the memory of each page of s as a [start, end) span.
func pageSpans[T any](out [][2]uintptr, s *slab[T]) [][2]uintptr {
	for _, p := range s.pages {
		if len(p) > 0 {
			lo := uintptr(unsafe.Pointer(&p[0]))
			out = append(out, [2]uintptr{lo, lo + uintptr(len(p))*unsafe.Sizeof(p[0])})
		}
	}
	return out
}

// TestMatchAppendLeavesLeafSetsAlone: on a tree whose incremental inserts
// parked profiles in extra sets, many matches through one recycled
// accumulator return what Match returns and leave every leaf set as it was.
// MatchAppend must never append into, or hand out as the accumulator, a leaf
// set the tree owns.
func TestMatchAppendLeavesLeafSetsAlone(t *testing.T) {
	s := incrSchema(t)
	rng := rand.New(rand.NewSource(29))
	base := make([]*predicate.Profile, 20)
	for i := range base {
		base[i] = randomProfile(t, s, rng, i)
	}
	tr, err := Build(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(base); i < 80; i++ {
		tr, _ = tr.WithProfile(randomProfile(t, s, rng, i), NaturalOrder())
	}

	leafSets := func() map[int32][]int32 {
		out := make(map[int32][]int32)
		for _, level := range views(tr) {
			for _, n := range level {
				for i := range n.edges {
					if leaf := tr.leafOf(n, i); leaf != nil {
						out[n.edges[i].To] = slices.Clone(leaf)
					}
				}
			}
		}
		return out
	}
	parked := 0
	for _, level := range views(tr) {
		for _, n := range level {
			parked += len(n.Extra())
		}
	}
	if parked == 0 {
		t.Fatal("no insert parked a profile in an extra set; the test would prove nothing")
	}
	before := leafSets()

	var acc []int32
	collected := 0
	for range 5000 {
		probe := randomProbe(s, rng)
		want, wantOps := tr.Match(probe)
		var got []int32
		var ops int
		got, acc, ops = tr.MatchAppend(probe, acc[:0])
		if !slices.Equal(want, got) || ops != wantOps {
			t.Fatalf("MatchAppend(%v) = %v, %d ops; Match = %v, %d ops", probe, got, ops, want, wantOps)
		}
		if len(acc) > 0 {
			collected++
		}
	}
	if collected == 0 {
		t.Fatal("no probe reached a parked profile; the accumulator was never used")
	}
	after := leafSets()
	if len(after) != len(before) {
		t.Fatalf("leaf sets: %d before the matches, %d after", len(before), len(after))
	}
	for leaf, was := range before {
		if !slices.Equal(after[leaf], was) {
			t.Fatalf("a leaf set changed under MatchAppend: %v, was %v", after[leaf], was)
		}
	}
}
