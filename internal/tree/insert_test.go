package tree

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// withProfileAllocs and withoutProfileAllocs are what an insert into
// TestWithProfileAllocations' tree, and a removal from
// TestWithoutProfileAllocations', malloc on a 2-core x86-64 machine: the
// successor Tree, one allocation, and a fraction of one of its line's arena
// chunks; the pins allow 5 % over them.
const (
	withProfileAllocs    = 1.0
	withoutProfileAllocs = 1.0
)

// allocCorpus is the allocation pins' corpus: 1 000 profiles, each with a
// range on two numeric attributes and half with a range on an integer one.
func allocCorpus(t *testing.T) (*schema.Schema, []*predicate.Profile) {
	x, err := schema.NewNumericDomain(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	z, err := schema.NewIntegerDomain(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(
		schema.Attribute{Name: "x", Domain: x},
		schema.Attribute{Name: "y", Domain: x},
		schema.Attribute{Name: "z", Domain: z},
	)
	rng := rand.New(rand.NewSource(1))
	corpus := make([]*predicate.Profile, 1000)
	for i := range corpus {
		var preds []predicate.Predicate
		for attr := range 3 {
			if attr == 2 && i%2 == 1 {
				break
			}
			lo := rng.Float64() * 90
			hi := lo + 1 + rng.Float64()*9
			if attr == 2 {
				lo, hi = float64(rng.Intn(45)), float64(rng.Intn(6))
				hi += lo
			}
			pr, err := predicate.NewRange(attr, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
		}
		if corpus[i], err = predicate.New(s, predicate.ID(fmt.Sprintf("p%d", i)), preds...); err != nil {
			t.Fatal(err)
		}
	}
	return s, corpus
}

// pinEditAllocs measures edit's mallocs after 99 warm-up calls, over 300
// more (and one more warm-up), and holds them to pin.
func pinEditAllocs(t *testing.T, what string, pin float64, edit func(), tr func() *Tree) {
	t.Helper()
	for range 99 {
		edit()
	}
	allocs := testing.AllocsPerRun(300, edit)
	limit := pin * 1.05
	if raceEnabled {
		// The race detector drops a share of the mergers put back in the
		// pool, whose memo and scratch are then made afresh (13 mallocs
		// per insert on the corpus): a loose bound still catches an edit
		// that allocates per node, of which it copies dozens.
		limit *= 16
	}
	t.Logf("%.1f mallocs per %s (limit %.1f); the successor has %d nodes", allocs, what, limit, tr().Stats().Nodes)
	if allocs > limit {
		t.Errorf("an %s mallocs %.1f times, want at most %.1f", what, allocs, limit)
	}
}

// TestWithProfileAllocations pins the mallocs of one insert: a tree of 600
// profiles of allocCorpus takes 100 inserts to warm the merger's pool, then
// 300 measured ones. An insert carves what the successor keeps from its
// line's arena, whose chunks grow with the line, and reuses the pooled memo
// and scratch, so it mallocs the successor itself and a chunk once in several
// inserts.
func TestWithProfileAllocations(t *testing.T) {
	s, corpus := allocCorpus(t)
	tr, err := Build(s, corpus[:600])
	if err != nil {
		t.Fatal(err)
	}
	next := 600
	pinEditAllocs(t, "insert", withProfileAllocs, func() {
		tr, _ = tr.WithProfile(corpus[next], NaturalOrder())
		next++
	}, func() *Tree { return tr })
}

// TestWithoutProfileAllocations pins the mallocs of one removal: a tree of
// all of allocCorpus loses 100 profiles to warm the merger's pool, then 300
// measured ones. A removal copies its corridor into the line's arena, as an
// insert does, so it mallocs the successor itself and a chunk once in
// several removals.
func TestWithoutProfileAllocations(t *testing.T) {
	s, corpus := allocCorpus(t)
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	pinEditAllocs(t, "removal", withoutProfileAllocs, func() {
		tr = tr.WithoutProfile(next)
		next++
	}, func() *Tree { return tr })
}

// TestWithProfileSiblings derives two successors from one tree, by insert
// and by removal, and extends each line further: a tree that is not its
// line's head starts a line of its own, so no successor writes into storage
// its sibling reads. Every tree is held to brute force and to a Build of its
// live profiles on the probe grid, and its nodes to their partitions.
func TestWithProfileSiblings(t *testing.T) {
	s := incrSchema(t)
	grid := probeGrid(s)
	rng := rand.New(rand.NewSource(5))
	id := 0
	profile := func() *predicate.Profile {
		id++
		return randomProfile(t, s, rng, id)
	}
	corpus := make([]*predicate.Profile, 6)
	for i := range corpus {
		corpus[i] = profile()
	}
	base, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		base, _ = base.WithProfile(profile(), NaturalOrder())
	}
	np := len(base.Profiles())
	pa, pb, pc := profile(), profile(), profile()
	a, _ := base.WithProfile(pa, NaturalOrder())
	b, _ := base.WithProfile(pb, NaturalOrder()) // base heads no line now
	dead := base.WithoutProfile(2)               // nor does it here
	c, _ := dead.WithProfile(pc, NaturalOrder())
	trees := map[string]*Tree{"base": base, "a": a, "b": b, "dead": dead, "c": c}
	removed := map[string]map[int]bool{"base": {}, "a": {}, "b": {}, "dead": {2: true}, "c": {2: true}}
	for _, name := range []string{"a", "b", "c"} {
		for range 4 {
			trees[name], _ = trees[name].WithProfile(profile(), NaturalOrder())
		}
		trees[name] = trees[name].WithoutProfile(np - 1)
		removed[name][np-1] = true
		trees[name+"'"], _ = trees[name].WithProfile(profile(), NaturalOrder())
		removed[name+"'"] = removed[name]
	}
	for name, want := range map[string]*predicate.Profile{"a": pa, "b": pb, "c": pc} {
		if got := trees[name].Profiles()[np]; got != want {
			t.Fatalf("successor %s holds %s at its insert's index, want %s", name, got.ID, want.ID)
		}
	}
	if a.line != base.line || b.line == a.line || c.line == a.line || c.line == b.line {
		t.Fatal("the first successor does not take its tree's line over, or a sibling shares it")
	}
	for name, tr := range trees {
		live, profiles := liveIndices(tr, removed[name])
		oracle, err := Build(s, profiles)
		if err != nil {
			t.Fatal(err)
		}
		partitions(t, name, tr)
		noneRemoved(t, name, tr, removed[name])
		matchesOnGrid(t, name, grid, tr, live, oracle)
	}
}

// liveIndices returns tr's indices but those removed, in order, and their
// profiles.
func liveIndices(tr *Tree, removed map[int]bool) (live []int, profiles []*predicate.Profile) {
	for pi, p := range tr.Profiles() {
		if !removed[pi] {
			live, profiles = append(live, pi), append(profiles, p)
		}
	}
	return live, profiles
}

// noneRemoved fails where a parked or leaf set of tr lists a removed index.
func noneRemoved(t *testing.T, what string, tr *Tree, removed map[int]bool) {
	t.Helper()
	for level, nodes := range views(tr) {
		for _, n := range nodes {
			sets := [][]int32{n.Extra()}
			for i := range n.Edges() {
				sets = append(sets, tr.leafOf(n, i))
			}
			for _, set := range sets {
				for _, pi := range set {
					if removed[int(pi)] {
						t.Fatalf("%s: a set at level %d lists removed index %d: %v", what, level, pi, set)
					}
				}
			}
		}
	}
}

// withProfileCopies bounds what TestWithProfileCopies' inserts copy and
// weigh on average: nodes, edges, the root's fan-out, which every insert
// copies, and the pieces weighed to lay out the chain and the re-laid
// subtrees — keys and the gaps around them. A 2-core x86-64 machine measured
// 51.0 nodes, 1 623 edges, a root fan-out of 303 and 329 pieces, re-laying
// the smallest changed probe subtree; the bounds allow a quarter over them.
// Since a wide node has no probe tree and a narrow one is re-laid whole, an
// insert weighs 110 pieces.
const (
	copiedNodes   = 51.0 * 1.25
	copiedEdges   = 1623 * 1.25
	copiedFanOut  = 303 * 1.25
	weighedPieces = 329 * 1.25
)

// churnCorpus returns the schema of a corpus shaped like the churn-mixed
// benchmark workload's, and its profile i: a temperature and a humidity range
// in every profile, a floor range in half of them and a severity subset in
// 0.4, drawn from one seeded source in the order asked.
func churnCorpus(t testing.TB) (*schema.Schema, func(i int) *predicate.Profile) {
	temp, err := schema.NewNumericDomain(-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	hum, err := schema.NewNumericDomain(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := schema.NewIntegerDomain(0, 39)
	if err != nil {
		t.Fatal(err)
	}
	sev, err := schema.NewCategoricalDomain("low", "medium", "high", "critical")
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "floor", Domain: floor},
		schema.Attribute{Name: "severity", Domain: sev},
	)
	rng := rand.New(rand.NewSource(1))
	return s, func(i int) *predicate.Profile {
		p := &predicate.Profile{ID: predicate.ID(fmt.Sprintf("p%d", i)), Preds: make([]predicate.Predicate, s.N())}
		tLo, hLo := -30+0.5*float64(rng.Intn(150)), float64(rng.Intn(94))
		p.Preds[0], err = predicate.NewRange(0, tLo, tLo+2+0.5*float64(rng.Intn(7)))
		if err == nil {
			p.Preds[1], err = predicate.NewRange(1, hLo, hLo+2+float64(rng.Intn(5)))
		}
		if err == nil && rng.Float64() < 0.5 {
			n := 8 + rng.Intn(13)
			lo := rng.Intn(40 - n + 1)
			p.Preds[2], err = predicate.NewRange(2, float64(lo), float64(lo+n-1))
		}
		if err == nil && rng.Float64() < 0.4 {
			var set []float64
			for mask := 1 + rng.Intn(14); mask > 0; mask &= mask - 1 {
				set = append(set, float64(bits.TrailingZeros(uint(mask))))
			}
			p.Preds[3], err = predicate.NewIn(3, set...)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestWithProfileCopies counts what an insert copies and weighs on
// churnCorpus: a tree of 1 000 profiles takes 200 inserts; each copies the
// nodes its profile's corridor reaches, every edge of each, and the chain's
// nodes, and weighs only the pieces of the probe subtrees it re-lays. The
// weights count their calls: one per node laid out, and one per piece.
func TestWithProfileCopies(t *testing.T) {
	s, profile := churnCorpus(t)
	var weighed atomic.Int64 // Build weighs on several workers
	vo := ValueOrder{Name: "counted", Mass: func(_ int, region []Interval) float64 {
		weighed.Add(1)
		return region[0].Hi - region[0].Lo + 1
	}}
	corpus := make([]*predicate.Profile, 1000)
	for i := range corpus {
		corpus[i] = profile(i)
	}
	tr, err := Build(s, corpus, WithValueOrder(vo))
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 200
	var nodes, edges, fanOut, pieces int
	for i := range inserts {
		was := make(map[nodeAt]bool, tr.Stats().Nodes)
		for _, level := range views(tr) {
			for _, n := range level {
				was[n.at()] = true
			}
		}
		weighed.Store(0)
		tr, _ = tr.WithProfile(profile(len(corpus)+i), vo)
		pieces += int(weighed.Load())
		for _, level := range views(tr) {
			for _, n := range level {
				if !was[n.at()] {
					nodes++
					edges += len(n.Edges())
				}
			}
		}
		fanOut += len(tr.Root().Edges())
	}
	perNode, perEdge, perFan, perPiece := float64(nodes)/inserts, float64(edges)/inserts, float64(fanOut)/inserts, float64(pieces)/inserts
	t.Logf("an insert copies %.1f nodes and %.0f edges, a root fan-out of %.0f, into a tree of %d nodes, and weighs %.0f pieces",
		perNode, perEdge, perFan, tr.Stats().Nodes, perPiece)
	if perNode > copiedNodes || perEdge > copiedEdges || perFan > copiedFanOut {
		t.Errorf("an insert copies %.1f nodes, %.0f edges, a fan-out of %.0f; want at most %.1f, %.0f, %.0f",
			perNode, perEdge, perFan, copiedNodes, copiedEdges, copiedFanOut)
	}
	if perPiece > weighedPieces {
		t.Errorf("an insert weighs %.0f pieces, want at most %.0f: it re-lays more than the probe subtrees it changed", perPiece, weighedPieces)
	}
}

// TestEditedTreeProbesLikeAFreshOne: a tree of 1 000 churnCorpus profiles
// that takes 8 000 inserts, each followed by the removal of a random live
// profile, and is swapped for its copy whenever its line is worn, as the
// engine does, probes a fixed sample of events in as many comparisons, within
// 1 %, as a Build of the live profiles under the same weights — the uniform
// ones and saltedMass — and keeps at most 2.5 times the Build's bytes. An
// edit lays out only what it re-cuts, under the weights the tree was laid out
// for, and a copy keeps every layout; nothing rebuilds the tree, so this is
// what keeps a never-rebuilt automaton from growing without bound.
func TestEditedTreeProbesLikeAFreshOne(t *testing.T) {
	pairs := 8000
	if raceEnabled { // an edit runs about ten times slower
		pairs = 500
	}
	salted := saltedMass(3)
	salted.Name = "salted"
	for _, vo := range []ValueOrder{NaturalOrder(), salted} {
		s, profile := churnCorpus(t)
		live := make([]*predicate.Profile, 1000)
		dense := make([]int, len(live))
		for i := range live {
			live[i], dense[i] = profile(i), i
		}
		tr, err := Build(s, live, WithValueOrder(vo))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		copies := 0
		for i := range pairs {
			p := profile(len(live) + i)
			var pi int
			tr, pi = tr.WithProfile(p, vo)
			k := rng.Intn(len(live))
			tr = tr.WithoutProfile(dense[k])
			live[k], dense[k] = p, pi
			if tr.Worn() {
				c, old := tr.Copied()
				for k, pi := range dense {
					dense[k], _ = slices.BinarySearch(old, pi)
				}
				tr = c
				copies++
			}
		}
		fresh, err := Build(s, live, WithValueOrder(vo))
		if err != nil {
			t.Fatal(err)
		}
		var edited, built int
		for range 20000 {
			vals := randomEvent(s, rng)
			_, ops := tr.Match(vals)
			edited += ops
			_, ops = fresh.Match(vals)
			built += ops
		}
		ratio := float64(edited) / float64(built)
		es, fs := tr.Stats(), fresh.Stats()
		t.Logf("%s: %d edits and %d line copies probe in %.3f comparisons per event, a fresh Build in %.3f (%+.2f %%); %d nodes in %d KB against %d in %d KB",
			vo.Name, 2*pairs, copies, float64(edited)/20000, float64(built)/20000, 100*(ratio-1), es.Nodes, es.Bytes>>10, fs.Nodes, fs.Bytes>>10)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("%s: the edited tree probes in %+.2f %% of a fresh Build's comparisons, want within 1 %%", vo.Name, 100*(ratio-1))
		}
		if es.Bytes > fs.Bytes*5/2 {
			t.Errorf("%s: the edited tree keeps %d KB, a fresh Build %d KB: more than 2.5 times", vo.Name, es.Bytes>>10, fs.Bytes>>10)
		}
		if copies == 0 && !raceEnabled {
			t.Errorf("%s: %d edits crossed no line copy", vo.Name, 2*pairs)
		}
	}
}

// randomEvent draws an event uniformly over s's domains.
func randomEvent(s *schema.Schema, rng *rand.Rand) []float64 {
	vals := make([]float64, s.N())
	for attr := range vals {
		dom := s.At(attr).Domain
		vals[attr] = dom.Lo() + rng.Float64()*(dom.Hi()-dom.Lo())
		if dom.Kind() != schema.KindNumeric {
			vals[attr] = float64(rng.Intn(int(dom.Hi()-dom.Lo()) + 1))
		}
	}
	return vals
}

// TestLineStaysWithinItsBound: a tree of 1 000 churnCorpus profiles takes
// 3 000 insert/removal pairs, swapped for its copy whenever it is worn. The
// line a copy starts from holds exactly the copy's Stats().Bytes: one walk
// sizes both. After every edit the line's arena holds at most lineFactor
// times those bytes plus that edit's and one largest chunk of each kind,
// its profile array at most twice the live profiles, and each slab spans its
// line's tail end rounded up to a page: a page table grows in capacity, not
// in length. Each copy
// probes a sample of events in the comparisons of the tree it copies,
// matching the same profiles.
func TestLineStaysWithinItsBound(t *testing.T) {
	pairs := 3000
	if raceEnabled {
		pairs = 300
	}
	s, profile := churnCorpus(t)
	live := make([]*predicate.Profile, 1000)
	dense := make([]int, len(live))
	for i := range live {
		live[i], dense[i] = profile(i), i
	}
	tr, err := Build(s, live)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	grid := make([][]float64, 2000)
	for i := range grid {
		grid[i] = randomEvent(s, rng)
	}
	// One largest chunk of each kind: nodes, edges, ints and leaf-set
	// entries.
	const chunk = 4 * maxChunk
	copies, peak := 0, 0.0
	check := func() {
		t.Helper()
		if tr.Worn() {
			c, old := tr.Copied()
			copies++
			for _, vals := range grid {
				wm, wops := tr.Match(vals)
				cm, cops := c.Match(vals)
				wm = slices.Clone(wm) // a match may hand out a leaf set of the tree
				for i := range wm {
					k, _ := slices.BinarySearch(old, int(wm[i]))
					wm[i] = int32(k)
				}
				if !slices.Equal(wm, cm) || wops != cops {
					t.Fatalf("copy %d: probe %v matches %v in %d comparisons, the tree it copies %v in %d", copies, vals, cm, cops, wm, wops)
				}
			}
			for k, pi := range dense {
				dense[k], _ = slices.BinarySearch(old, pi)
			}
			tr = c
			if st := tr.Stats().Bytes; tr.line.base != st {
				t.Fatalf("copy %d: the line starts from %d bytes, the copy keeps %d", copies, tr.line.base, st)
			}
		}
		l := tr.line
		held := l.held
		peak = max(peak, float64(held)/float64(l.base))
		if held > lineFactor*l.base+chunk {
			t.Fatalf("after %d copies the line holds %d KB, started from %d KB", copies, held>>10, l.base>>10)
		}
		if len(tr.profiles) > 2*len(dense) {
			t.Fatalf("the profile array lists %d indices for %d live profiles", len(tr.profiles), len(dense))
		}
		lt := &l.tails
		for _, sl := range [][2]int{{tr.st.nodes.slots(), int(lt.nodes.end)}, {tr.st.edges.slots(), int(lt.edges.end)},
			{tr.st.ints.slots(), int(lt.ints.end)}, {tr.st.sets.slots(), int(lt.sets.end)}} {
			if sl[0] != (sl[1]+pageSize-1)&^(pageSize-1) {
				t.Fatalf("after %d copies a slab spans %d slots, its line's tail ends at %d", copies, sl[0], sl[1])
			}
		}
	}
	for i := range pairs {
		p := profile(len(live) + i)
		var pi int
		tr, pi = tr.WithProfile(p, NaturalOrder())
		dense = append(dense, pi) // a copy renumbers it
		check()
		k, last := rng.Intn(len(live)), len(live)
		tr = tr.WithoutProfile(dense[k])
		live[k], dense[k], dense = p, dense[last], dense[:last]
		check()
	}
	t.Logf("%d edits crossed %d line copies; a line held at most %.1f times the bytes it started from (bound %d plus a chunk); %d node slots for %d nodes",
		2*pairs, copies, peak, lineFactor, tr.Slots(), tr.Stats().Nodes)
	if copies == 0 && !raceEnabled {
		t.Errorf("%d edits crossed no line copy", 2*pairs)
	}
	removed := make(map[int]bool)
	for pi := range tr.Profiles() {
		removed[pi] = !slices.Contains(dense, pi)
	}
	liveIdx, liveProfiles := liveIndices(tr, removed)
	oracle, err := Build(s, liveProfiles)
	if err != nil {
		t.Fatal(err)
	}
	matchesOnGrid(t, "the edited tree", grid, tr, liveIdx, oracle)
}

// TestWithProfileShapes pins what an insert makes and what it shares, on
// trees over incrSchema: the chain's edges where the new profile lands alone,
// the trailing edges of the merged nodes, the parked profile, and the graph a
// profile leaves whole. Every case also holds the successor's match sets to
// brute force on the probe grid.
func TestWithProfileShapes(t *testing.T) {
	s := incrSchema(t)
	natural, catFirst := []int{0, 1, 2}, []int{2, 0, 1}
	for _, tc := range []struct {
		name  string
		order []int
		base  []string
		add   string // empty: a profile that constrains nothing
		check func(t *testing.T, was, tr *Tree)
	}{{
		name: "a profile that constrains nothing parks at the root",
		base: []string{"num in [2,4]; int <= 7", "cat in {b, c}"},
		check: func(t *testing.T, was, tr *Tree) {
			if r := tr.Root(); !slices.Equal(r.Extra(), []int32{2}) || &r.Edges()[0] != &was.Root().Edges()[0] {
				t.Fatalf("the root parks %v, its edges shared: %v", r.Extra(), &r.Edges()[0] == &was.Root().Edges()[0])
			}
			if got, want := tr.Stats().Nodes, was.Stats().Nodes; got != want {
				t.Fatalf("%d nodes after the insert, %d before", got, want)
			}
		},
	}, {
		name: "an unsatisfiable profile shares the whole graph",
		base: []string{"num in [2,4]; int <= 7", "cat in {b, c}"},
		add:  "num >= 3; int in [2.1,2.4]",
		check: func(t *testing.T, was, tr *Tree) {
			if tr.root != was.root {
				t.Fatal("the successor has a graph of its own")
			}
		},
	}, {
		name:  "a point set joins its touching atoms into one chain edge",
		order: catFirst,
		base:  []string{"cat in {d, e}; num <= 5"},
		add:   "cat in {a, b}; int >= 10",
		check: func(t *testing.T, was, tr *Tree) {
			r := tr.Root()
			if len(r.Edges()) != 2 || r.Edges()[0].Iv() != schema.Closed(0, 1) || r.Edges()[1] != was.Root().Edges()[0] {
				t.Fatalf("root edges %+v, want the chain's [0,1] beside the old [3,4]", r.Edges())
			}
		},
	}, {
		name: "a numeric != gives two edges around the excluded value",
		base: []string{"num in [0,1]; int <= 3"},
		add:  "num != 5; cat = c",
		check: func(t *testing.T, was, tr *Tree) {
			r := tr.Root()
			want := []schema.Interval{schema.Closed(0, 1), {Lo: 1, LoOpen: true, Hi: 5, HiOpen: true}, {Lo: 5, LoOpen: true, Hi: 10}}
			if len(r.Edges()) != len(want) || r.Kind(len(want)-1) != EdgeSubrange {
				t.Fatalf("root edges %+v, want the subranges %v", r.Edges(), want)
			}
			for i, iv := range want {
				if r.Edges()[i].Iv() != iv {
					t.Fatalf("root edge %d is %v, want %v", i, r.Edges()[i].Iv(), iv)
				}
			}
			if r.Edges()[1].To != r.Edges()[2].To || r.Edges()[0].To == r.Edges()[1].To {
				t.Fatal("the two chain edges do not share the chain's next node")
			}
		},
	}, {
		name: "a level-0 profile splits a star root and keeps a complement edge",
		base: []string{"int in [2,4]", "cat = e"},
		add:  "num in [3,6]; cat = a",
		check: func(t *testing.T, was, tr *Tree) {
			r, star := tr.Root(), was.Root().Edges()[0]
			if was.Root().Kind(0) != EdgeStar {
				t.Fatalf("the base root is not a star node: %+v", was.Root().Edges())
			}
			if len(r.Edges()) != 2 || r.Kind(0) != EdgeSubrange || r.Kind(1) != EdgeComplement ||
				r.Edges()[0].Iv() != schema.Closed(3, 6) || r.Edges()[1] != star {
				t.Fatalf("root edges %+v, want [3,6] and the old star edge as the complement", r.Edges())
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var corpus []*predicate.Profile
			for i, text := range tc.base {
				corpus = append(corpus, predicate.MustParse(s, predicate.ID(fmt.Sprintf("b%d", i)), "profile("+text+")"))
			}
			order := tc.order
			if order == nil {
				order = natural
			}
			was, err := Build(s, corpus, WithAttributeOrder(order))
			if err != nil {
				t.Fatal(err)
			}
			p := &predicate.Profile{ID: "new", Preds: make([]predicate.Predicate, s.N())}
			if tc.add != "" {
				p = predicate.MustParse(s, "new", "profile("+tc.add+")")
			}
			tr, np := was.WithProfile(p, NaturalOrder())
			if np != len(corpus) {
				t.Fatalf("the new profile has index %d, want %d", np, len(corpus))
			}
			tc.check(t, was, tr)
			partitions(t, tc.name, tr)
			live, _ := liveIndices(tr, nil)
			matchesOnGrid(t, tc.name, probeGrid(s), tr, live, nil)
		})
	}
}

// probeGrid returns every event of s's grid: a numeric attribute at every
// multiple of 1/8 — the fuzz scripts' endpoints, the points they place between
// them and the midpoints of both — and every atom of a discrete one.
func probeGrid(s *schema.Schema) [][]float64 {
	events := [][]float64{make([]float64, s.N())}
	for attr := range s.N() {
		dom := s.At(attr).Domain
		step := 1.0
		if dom.Kind() == schema.KindNumeric {
			step = 0.125
		}
		var next [][]float64
		for v := dom.Lo(); v <= dom.Hi(); v += step {
			for _, e := range events {
				e = slices.Clone(e)
				e[attr] = v
				next = append(next, e)
			}
		}
		events = next
	}
	return events
}

// matchesOnGrid fails where tr's match set of an event of grid is not the
// brute-force one over its live indices, lists a profile twice or, given
// oracle (a tree built from the live profiles alone, in index order), is not
// the oracle's.
func matchesOnGrid(t *testing.T, what string, grid [][]float64, tr *Tree, live []int, oracle *Tree) {
	t.Helper()
	var got, want, built []int
	for _, vals := range grid {
		got, want, built = got[:0], want[:0], built[:0]
		matched, _ := tr.Match(vals)
		got = append(got, ints(matched)...)
		slices.Sort(got)
		for _, pi := range live {
			if tr.Profiles()[pi].Matches(vals) {
				want = append(want, pi)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: event %v matches %v, brute force %v", what, vals, got, want)
		}
		if oracle == nil {
			continue
		}
		matched, _ = oracle.Match(vals)
		for _, i := range matched {
			built = append(built, live[i])
		}
		slices.Sort(built)
		if !slices.Equal(built, want) {
			t.Fatalf("%s: event %v matches %v on a Build of the live profiles, brute force %v", what, vals, built, want)
		}
	}
}

// FuzzWithProfile runs a byte script of inserts and removals over
// incrSchema and holds the tree to brute force and to a Build of its live
// profiles on the probe grid after every step, its nodes to the partition
// their edges induce and its sets to the live indices. The script's first
// bytes pick the attribute order, the weights and how many profiles the first
// Build takes; then each step either removes a live profile or inserts one
// drawn over the numeric, integer and categorical domains: don't-care, range,
// comparison, point set, != and atom-free constraints, with endpoints on
// half-steps of the domain, so that inserts snap, split open numeric ends and
// join touching atoms. A removal of the profile the step before inserted must
// give back the match sets of the tree before that insert.
func FuzzWithProfile(f *testing.F) {
	for seed := range int64(4) {
		f.Add(quickScript(rand.New(rand.NewSource(seed)), false))
		f.Add(quickScript(rand.New(rand.NewSource(seed)), true))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := incrSchema(t)
		grid := probeGrid(s)
		r := byteScript(script)
		orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		order := orders[int(r.next())%len(orders)]
		vo := NaturalOrder()
		if salt := r.next(); salt%2 == 1 {
			vo = saltedMass(float64(salt))
		}
		var corpus []*predicate.Profile
		for n := 1 + int(r.next())%4; len(corpus) < n; {
			corpus = append(corpus, r.profile(s, len(corpus)))
		}
		tr, err := Build(s, corpus, WithAttributeOrder(order), WithValueOrder(vo))
		if err != nil {
			t.Fatal(err)
		}
		removed := make(map[int]bool)
		var before *Tree // the tree before the last step, when it inserted
		for step := 0; step < 50 && len(r) > 0; step++ {
			what := fmt.Sprintf("order %v step %d", order, step)
			live, _ := liveIndices(tr, removed)
			if op := r.next(); op%4 == 0 && len(live) > 0 {
				pi := live[int(r.next())%len(live)]
				tr, removed[pi] = tr.WithoutProfile(pi), true
				noneRemoved(t, what, tr, removed)
				if before != nil && pi == len(before.Profiles()) {
					sameMatches(t, what+": an insert and its removal", grid, before, tr)
				}
				before = nil
			} else {
				var np int
				p := r.profile(s, len(tr.Profiles()))
				before = tr
				if tr, np = tr.WithProfile(p, vo); np != len(tr.Profiles())-1 || tr.Profiles()[np] != p {
					t.Fatalf("%s: the insert has index %d of %d", what, np, len(tr.Profiles()))
				}
			}
			live, profiles := liveIndices(tr, removed)
			oracle, err := Build(s, profiles, WithAttributeOrder(order))
			if err != nil {
				t.Fatal(err)
			}
			partitions(t, what, tr)
			matchesOnGrid(t, what, grid, tr, live, oracle)
		}
	})
}

// sameMatches fails where tr does not match what was matches on the grid.
func sameMatches(t *testing.T, what string, grid [][]float64, was, tr *Tree) {
	t.Helper()
	var got, want []int
	for _, vals := range grid {
		m, _ := tr.Match(vals)
		got = append(got[:0], ints(m)...)
		m, _ = was.Match(vals)
		want = append(want[:0], ints(m)...)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %v matches %v, the tree before %v", what, vals, got, want)
		}
	}
}

// quickScript writes a FuzzWithProfile script shaped like quickCorpus: up to
// 40 random profiles, one in four with a != on some attribute, here with a
// removal before one insert in four. With roundTrips, every other insert is
// followed by the removal of the profile it inserted, and the random removals
// leave a profile live.
func quickScript(rng *rand.Rand, roundTrips bool) []byte {
	script := []byte{byte(rng.Intn(6)), byte(rng.Intn(256)), 0}
	live := 1
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		if i > 0 && rng.Intn(4) == 0 && (!roundTrips || live > 1) {
			script = append(script, 0, byte(rng.Intn(256)))
			live--
		}
		if i > 0 {
			script = append(script, 1)
			live++
		}
		ne := rng.Intn(12)
		for attr := range 3 {
			kind := []byte{0, 2, 3, 4, 6}[rng.Intn(5)]
			if attr == ne {
				kind = 5
			}
			script = append(script, kind)
			switch kind {
			case 2, 3:
				script = append(script, byte(rng.Intn(256)), byte(rng.Intn(256)))
			case 4:
				k := byte(rng.Intn(3))
				script = append(script, k)
				for range 1 + k {
					script = append(script, byte(rng.Intn(256)))
				}
			case 5, 6:
				script = append(script, byte(rng.Intn(256)))
			}
		}
		if roundTrips && i > 0 && rng.Intn(2) == 0 {
			script = append(script, 0, byte(live-1)) // the live list's last: this insert
			live--
		}
	}
	return script
}

// byteScript is FuzzWithProfile's script, read a byte at a time; past its
// end it reads zeros.
type byteScript []byte

func (r *byteScript) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// value reads a value of dom on a half-step: lo, lo+½, …, hi.
func (r *byteScript) value(dom schema.Domain) float64 {
	return dom.Lo() + 0.5*float64(int(r.next())%int(2*(dom.Hi()-dom.Lo())+1))
}

// profile reads profile i: a constraint, or none, on every attribute.
func (r *byteScript) profile(s *schema.Schema, i int) *predicate.Profile {
	p := &predicate.Profile{ID: predicate.ID(fmt.Sprintf("p%d", i)), Preds: make([]predicate.Predicate, s.N())}
	for attr := range s.N() {
		dom := s.At(attr).Domain
		var pr predicate.Predicate
		var err error
		switch r.next() % 7 {
		case 0, 1: // don't-care
			continue
		case 2:
			a, b := r.value(dom), r.value(dom)
			pr, err = predicate.NewRange(attr, min(a, b), max(a, b))
		case 3:
			op := []predicate.Op{predicate.OpEq, predicate.OpLt, predicate.OpLe, predicate.OpGt, predicate.OpGe}[r.next()%5]
			pr, err = predicate.NewComparison(attr, op, r.value(dom))
		case 4:
			vs := make([]float64, 1+r.next()%3)
			for j := range vs {
				vs[j] = r.value(dom)
			}
			pr, err = predicate.NewIn(attr, vs...)
		case 5:
			pr, err = predicate.NewComparison(attr, predicate.OpNe, r.value(dom))
		case 6: // atom-free on a discrete domain, a point between the grid's on a numeric one
			v := r.value(dom) + 0.25
			pr, err = predicate.NewRange(attr, v, v)
		}
		if err != nil {
			panic(err)
		}
		p.Preds[attr] = pr
	}
	return p
}

// TestSuccessorsLeavePredecessorsAlone: no successor writes into storage a
// predecessor reads. A tree of 300 churnCorpus profiles takes 2 000 edits —
// inserts and removals, a Reordered of random attributes every 50th, a
// sibling insert into an older tree every 97th, and a copy whenever the line
// is worn — and every tree published on the way keeps the match sets and
// comparison counts it gave on a fixed event grid when it was published.
func TestSuccessorsLeavePredecessorsAlone(t *testing.T) {
	s, profile := churnCorpus(t)
	rng := rand.New(rand.NewSource(11))
	grid := make([][]float64, 150)
	for i := range grid {
		grid[i] = randomEvent(s, rng)
	}
	type published struct {
		tr  *Tree
		ms  [][]int32
		ops []int
	}
	var pub []published
	publish := func(tr *Tree) {
		p := published{tr: tr, ms: make([][]int32, len(grid)), ops: make([]int, len(grid))}
		for i, vals := range grid {
			m, ops := tr.Match(vals)
			p.ms[i], p.ops[i] = slices.Clone(m), ops
		}
		pub = append(pub, p)
	}
	corpus := make([]*predicate.Profile, 300)
	live := make([]int, len(corpus))
	for i := range corpus {
		corpus[i], live[i] = profile(i), i
	}
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	publish(tr)
	next, copies, reorders, siblings := len(corpus), 0, 0, 0
	for edit := range 2000 {
		switch {
		case edit%97 == 96:
			sib, _ := pub[rng.Intn(len(pub))].tr.WithProfile(profile(next), NaturalOrder())
			next++
			siblings++
			publish(sib)
			continue
		case edit%50 == 49:
			var attrs []int
			for a := range s.N() {
				if rng.Intn(2) == 0 {
					attrs = append(attrs, a)
				}
			}
			tr, _, _ = tr.Reordered(saltedMass(rng.Float64()*100), attrs...)
			reorders++
		case len(live) < 200 || rng.Intn(2) == 0:
			var pi int
			tr, pi = tr.WithProfile(profile(next), tr.ValueOrder())
			next++
			live = append(live, pi)
		default:
			k := rng.Intn(len(live))
			tr = tr.WithoutProfile(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if tr.Worn() {
			var old []int
			tr, old = tr.Copied()
			for k, pi := range live {
				live[k], _ = slices.BinarySearch(old, pi)
			}
			copies++
		}
		publish(tr)
	}
	t.Logf("%d trees published across %d line copies, %d reorders and %d siblings", len(pub), copies, reorders, siblings)
	if copies == 0 {
		t.Error("no edit wore a line: the copies are untested")
	}
	for k, p := range pub {
		for i, vals := range grid {
			if ms, ops := p.tr.Match(vals); !slices.Equal(ms, p.ms[i]) || ops != p.ops[i] {
				t.Fatalf("tree %d: probe %v now matches %v in %d comparisons, %v in %d when published", k, vals, ms, ops, p.ms[i], p.ops[i])
			}
		}
	}
}

// TestSiblingsEditConcurrently: a line's head takes edits on one goroutine
// while another derives from each older tree of the line an insert and a
// partial reorder, which carves into a line as an edit does, unless it
// re-lays nothing and is the older tree itself. Each other sibling is a copy
// of the older tree that heads a line of its own and shares no page
// with the line it left, so the race detector finds nothing, and each
// sibling, and the sibling's own successor, matches as brute force says.
// Each older tree's Stats and Levels, walked meanwhile, read what they read
// before the head started.
func TestSiblingsEditConcurrently(t *testing.T) {
	s, profile := churnCorpus(t)
	corpus := make([]*predicate.Profile, 200)
	for i := range corpus {
		corpus[i] = profile(i)
	}
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	line := []*Tree{tr}
	for i := range 40 {
		tr, _ = tr.WithProfile(profile(len(corpus)+i), NaturalOrder())
		line = append(line, tr)
	}
	rng := rand.New(rand.NewSource(3))
	grid := make([][]float64, 100)
	for i := range grid {
		grid[i] = randomEvent(s, rng)
	}
	// churnCorpus draws from one source: both goroutines' profiles are drawn
	// before they start.
	heads, sibs := make([]*predicate.Profile, 200), make([]*predicate.Profile, len(line)-1)
	for i := range heads {
		heads[i] = profile(1000 + i)
	}
	for i := range sibs {
		sibs[i] = profile(2000 + i)
	}
	before := make([]Stats, len(line))
	for k, old := range line {
		before[k] = old.Stats()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		head := tr
		for _, p := range heads {
			head, _ = head.WithProfile(p, NaturalOrder())
		}
	}()
	for k, old := range line[:len(line)-1] {
		// The walk reads old's line while the head carves past it.
		st, ids := old.Stats(), 0
		for _, level := range old.Levels() {
			ids += len(level)
		}
		if st != before[k] || ids != st.Nodes {
			t.Fatalf("tree %d reads %+v with %d ids in its levels while the head edits, %+v before", k, st, ids, before[k])
		}
		sib, _ := old.WithProfile(sibs[k], NaturalOrder())
		re, resorted, copied := old.Reordered(saltedMass(float64(k)), old.attrOrder[k%(s.N()-1)])
		for name, sib := range map[string]*Tree{"insert": sib, "reorder": re} {
			if sib == old && resorted+copied == 0 {
				continue // a reorder that re-lays nothing is its receiver
			}
			if sib.line == old.line || sib.line.head.Load() != sib {
				t.Fatalf("sibling %s of tree %d does not head a line of its own", name, k)
			}
			if n := sharedPages(&sib.st, &old.st); n > 0 {
				t.Fatalf("sibling %s of tree %d shares %d pages with the line it left", name, k, n)
			}
		}
		next := sib.WithoutProfile(k)
		if next.line != sib.line {
			t.Fatalf("the successor of sibling %d does not take its line over", k)
		}
		for name, sib := range map[string]*Tree{"insert": sib, "reorder": re, "insert's successor": next} {
			for _, vals := range grid {
				got, _ := sib.Match(vals)
				var want []int32
				for i, p := range sib.Profiles() {
					if p.Matches(vals) && !slices.Contains(sib.gone, i) {
						want = append(want, int32(i))
					}
				}
				if got = slices.Sorted(slices.Values(got)); !slices.Equal(got, want) {
					t.Fatalf("sibling %s of tree %d: probe %v matches %v, brute force %v", name, k, vals, got, want)
				}
			}
		}
	}
	<-done
}
