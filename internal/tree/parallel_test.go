package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// render writes down everything a tree is, by level and by position in
// Levels(): per node its attribute, probe tree, parked profiles and edges,
// each edge with its interval, leaf set and child's position; then Stats().
// Dump() is a function of these.
func render(tr *Tree) string {
	var b []byte
	ints := func(xs ...int) {
		for _, x := range xs {
			b = binary.AppendVarint(b, int64(x))
		}
	}
	at := make(map[nodeAt]int)
	for l, ns := range views(tr) {
		for i, n := range ns {
			at[n.at()] = l<<32 | i
		}
	}
	for _, ns := range views(tr) {
		for _, n := range ns {
			ints(int(n.Attr), int(n.nSubrange), len(n.layout), len(n.extra), len(n.edges))
			for _, x := range n.layout {
				ints(int(x))
			}
			for _, x := range n.extra {
				ints(int(x))
			}
			for i, e := range n.edges {
				iv := e.Iv()
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Lo))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Hi))
				child, ok := at[nodeAt{int(n.Level) + 1, e.To}]
				leaf := tr.leafOf(n, i)
				ints(btoi(iv.LoOpen), btoi(iv.HiOpen), btoi(ok), child, len(leaf))
				for _, x := range leaf {
					ints(int(x))
				}
			}
		}
	}
	return fmt.Sprintf("%+v\n%s", tr.Stats(), b)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// atProcs runs f once at each of GOMAXPROCS 1, 2 and 8 and fails unless every
// run renders as the first.
func atProcs(t *testing.T, what string, f func() string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := f(); procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("%s: GOMAXPROCS %d builds another automaton than GOMAXPROCS 1", what, procs)
		}
	}
}

// scaleCorpus draws n distinct structures by TestBuildScale's rule: on a
// four-attribute schema every attribute is constrained seven times in ten, by
// a range of 5–15 % of its domain around a uniform centre.
func scaleCorpus(t *testing.T, n int) (*schema.Schema, []*predicate.Profile) {
	s, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,12]; severity=cat{low,mid,high}")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	corpus := make([]*predicate.Profile, 0, n)
	for len(corpus) < n {
		var preds []predicate.Predicate
		for a := 0; a < s.N(); a++ {
			if dom := s.At(a).Domain; rng.Float64() < 0.7 {
				w := 0.1 * (0.5 + rng.Float64()) * dom.Size()
				c := dom.Lo() + rng.Float64()*(dom.Hi()-dom.Lo())
				pr, err := predicate.NewRange(a, max(c-w/2, dom.Lo()), min(c+w/2, dom.Hi()))
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, pr)
			}
		}
		if p, err := predicate.New(s, predicate.ID(fmt.Sprintf("d%04d", len(corpus))), preds...); err == nil {
			corpus = append(corpus, p)
		}
	}
	return s, corpus
}

// driftCorpus draws n narrow range profiles over two numeric attributes and
// an integer one: the shape of the benchmark's match-drift population.
func driftCorpus(t *testing.T, n int) (*schema.Schema, []*predicate.Profile) {
	s, err := schema.ParseSpec("t=numeric[-30,50]; h=numeric[0,100]; f=int[0,39]")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	out := make([]*predicate.Profile, n)
	for i := range out {
		t0, h0, f0 := -30+float64(rng.Intn(308))/4, float64(rng.Intn(95)), rng.Intn(37)
		out[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%05d", i)), fmt.Sprintf(
			"profile(t in [%g,%g]; h in [%g,%g]; f in [%d,%d])",
			t0, t0+1+float64(rng.Intn(9))/4, h0, h0+2+float64(rng.Intn(4)), f0, f0+rng.Intn(3)))
	}
	return s, out
}

// TestParallelBuildIsIdentical: Build's workers change nothing. At GOMAXPROCS
// 1, 2 and 8 it gives one automaton — the same nodes in the same Levels()
// order, with the same edges, parked sets, leaf sets and probe trees, the same
// Stats() and Dump() — on TestBuildScale's corpus at 250 structures, on a
// match-drift-shaped corpus of 4 000 narrow ranges under salted weights, and
// on the reference oracle's corpora under every attribute order.
func TestParallelBuildIsIdentical(t *testing.T) {
	build := func(s *schema.Schema, ps []*predicate.Profile, opts ...Option) func() string {
		return func() string {
			tr, err := Build(s, ps, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return render(tr) + tr.Dump()
		}
	}
	s, corpus := scaleCorpus(t, 250)
	atProcs(t, "250 structures", build(s, corpus))
	s, corpus = driftCorpus(t, 4000)
	atProcs(t, "4 000 ranges", build(s, corpus, WithValueOrder(saltedMass(17))))

	s = incrSchema(t)
	for seed := int64(0); seed < 8; seed++ {
		profiles := quickCorpus(t, s, rand.New(rand.NewSource(seed)))
		for _, order := range [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}} {
			atProcs(t, fmt.Sprintf("seed %d order %v", seed, order),
				build(s, profiles, WithAttributeOrder(order), WithValueOrder(saltedMass(float64(seed)))))
		}
	}
}

// TestParallelReorderedIsIdentical: Reordered's layout pass changes nothing
// either. At GOMAXPROCS 1, 2 and 8 re-laying the match-drift-shaped tree under
// new weights — every node, or only those testing one attribute — gives the
// same successor, probe trees included, and the same counts, and leaves the
// original as it was. Each run reorders a copy of its own, which heads its
// line: a second reorder of one tree would be a copy into a fresh line.
func TestParallelReorderedIsIdentical(t *testing.T) {
	s, corpus := driftCorpus(t, 4000)
	tr, err := Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	before := render(tr)
	for _, attrs := range [][]int{nil, {1}} {
		atProcs(t, fmt.Sprintf("attributes %v", attrs), func() string {
			head, _ := tr.Copied()
			re, resorted, copied := head.Reordered(saltedMass(5), attrs...)
			return fmt.Sprintf("%d re-laid, %d copied\n%s", resorted, copied, render(re))
		})
	}
	if render(tr) != before {
		t.Fatal("Reordered changed the original")
	}
}
