package tree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

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

// liveMatchSet collects the live matched profile IDs of a tree for a probe.
func liveMatchSet(tr *Tree, vals []float64) map[predicate.ID]bool {
	matched, _ := tr.Match(vals)
	out := make(map[predicate.ID]bool, len(matched))
	profs := tr.Profiles()
	for _, pi := range matched {
		if tr.Dead(pi) {
			continue
		}
		out[profs[pi].ID] = true
	}
	return out
}

// TestWithProfileOracle grows a tree one profile at a time via WithProfile
// and checks, after every insertion, that the incremental tree produces
// exactly the match sets of (a) a tree freshly built from the same corpus
// and (b) direct predicate evaluation — across random probes and under both
// a natural and a non-trivial value order.
func TestWithProfileOracle(t *testing.T) {
	s := incrSchema(t)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vo := NaturalOrder()
		if seed%2 == 1 {
			vo = ValueOrder{
				Name:       "widest-first",
				Descending: true,
				Rank: func(_ int, region []Interval) float64 {
					var w float64
					for _, iv := range region {
						w += iv.Hi - iv.Lo
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
				inc, err = Build(s, corpus)
				if err != nil {
					t.Fatal(err)
				}
				inc.ApplyValueOrder(vo)
			} else {
				var pi int
				inc, pi = inc.WithProfile(p, vo)
				if pi != len(corpus)-1 {
					t.Fatalf("seed %d step %d: WithProfile index = %d, want %d", seed, step, pi, len(corpus)-1)
				}
			}

			oracle, err := Build(s, corpus)
			if err != nil {
				t.Fatalf("seed %d step %d: oracle build: %v", seed, step, err)
			}
			oracle.ApplyValueOrder(vo)

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

// TestWithoutProfileOracle interleaves insertions and tombstone removals and
// checks the live match sets against direct evaluation of the live corpus.
func TestWithoutProfileOracle(t *testing.T) {
	s := incrSchema(t)
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vo := NaturalOrder()

		live := make(map[predicate.ID]*predicate.Profile)
		denseOf := make(map[predicate.ID]int)
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
			if inc.LiveCount() != len(live) {
				t.Fatalf("seed %d step %d: LiveCount=%d want %d", seed, step, inc.LiveCount(), len(live))
			}
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

// TestReorderedDoesNotMutateOriginal pins the RCU contract: applying a new
// value order via Reordered leaves the original tree's scan order intact.
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
	before := tr.Root().ScanOrder()

	re, _, _ := tr.Reordered(ValueOrder{
		Name:       "reverse",
		Descending: true,
		Rank:       func(_ int, region []Interval) float64 { return region[0].Lo },
	})
	after := tr.Root().ScanOrder()
	if len(before) != len(after) {
		t.Fatalf("original scan order length changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("original scan order mutated at %d: %v -> %v", i, before, after)
		}
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
	if st.ProfileCount != 10 {
		t.Fatalf("ProfileCount=%d want 10", st.ProfileCount)
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
// chunk lives as long as anything in it. A whole reorder replaces every node
// and bucket list and shares only the last level's edges and the profile sets,
// so once the predecessor is dropped the heap must be back near one tree — one
// arena for all levels kept the entire predecessor alive behind those edges.
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
