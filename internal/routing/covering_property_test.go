package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"genas/internal/agg"
	"genas/internal/core"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// randomProfileExpr builds one random profile expression over (price, volume)
// with integer endpoints, mixing don't-care, point, one-sided (closed and
// open), interval, exclusion and set constraints per attribute. At least one
// attribute is always constrained. grid > 0 restricts endpoints to that many
// steps per attribute, so that a population of such profiles holds equal
// structures and covering chains; 0 allows every integer.
func randomProfileExpr(rng *rand.Rand, grid int) string {
	mk := func(attr string, max int) string {
		step := 1
		if grid > 0 {
			step = max / grid
		}
		lo := rng.Intn(max/step+1) * step
		hi := lo + rng.Intn(max/step/4+1)*step
		if hi > max {
			hi = max
		}
		switch rng.Intn(9) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf("%s = %d", attr, lo)
		case 2:
			return fmt.Sprintf("%s >= %d", attr, lo)
		case 3:
			return fmt.Sprintf("%s <= %d", attr, hi)
		case 4:
			return fmt.Sprintf("%s > %d", attr, lo)
		case 5:
			return fmt.Sprintf("%s < %d", attr, hi)
		case 6:
			return fmt.Sprintf("%s != %d", attr, lo)
		case 7:
			return fmt.Sprintf("%s in {%d, %d}", attr, hi, lo)
		default:
			return fmt.Sprintf("%s in [%d,%d]", attr, lo, hi)
		}
	}
	cp, cv := mk("price", 1000), mk("volume", 100)
	switch {
	case cp == "" && cv == "":
		return fmt.Sprintf("profile(price >= %d)", rng.Intn(1000))
	case cp == "":
		return fmt.Sprintf("profile(%s)", cv)
	case cv == "":
		return fmt.Sprintf("profile(%s)", cp)
	default:
		return fmt.Sprintf("profile(%s; %s)", cp, cv)
	}
}

// CoveredByOther reports whether some other route strictly covers p. Ties
// (mutual covering, i.e. equivalent profiles) keep the lexicographically
// smallest id to avoid dropping both.
//
// Route pruning itself does not call this — the link engines' covering poset
// maintains the uncovered set incrementally. It is the quadratic reference
// oracle: the property tests check the poset's covering order against it pair
// by pair.
func CoveredByOther(s *schema.Schema, p *predicate.Profile, routes map[predicate.ID]*predicate.Profile) bool {
	for id, q := range routes {
		if id == p.ID {
			continue
		}
		if !predicate.Covers(s, q, p) {
			continue
		}
		if predicate.Covers(s, p, q) && p.ID < id {
			continue // equivalent profiles: the smaller id survives
		}
		return true
	}
	return false
}

// endpointProbes builds a probe grid tailored to the given profiles: domain
// edges plus every interval endpoint of any of them and its ±1 neighbors,
// crossed over both attributes. Direct evaluation over this grid refutes
// bogus containment claims: every region boundary the profiles can express
// lies on the grid.
func endpointProbes(s *schema.Schema, profiles ...*predicate.Profile) [][]float64 {
	axes := make([][]float64, 2)
	for attr := 0; attr < 2; attr++ {
		dom := s.Attributes()[attr].Domain
		set := map[float64]bool{dom.Lo(): true, dom.Hi(): true}
		for _, prof := range profiles {
			if !prof.Constrains(attr) {
				continue
			}
			for _, iv := range prof.Pred(attr).Intervals(dom) {
				for _, v := range []float64{iv.Lo - 1, iv.Lo, iv.Lo + 1, iv.Hi - 1, iv.Hi, iv.Hi + 1} {
					if v >= dom.Lo() && v <= dom.Hi() {
						set[v] = true
					}
				}
			}
		}
		axis := make([]float64, 0, len(set))
		for v := range set {
			axis = append(axis, v)
		}
		axes[attr] = axis
	}
	probes := make([][]float64, 0, len(axes[0])*len(axes[1]))
	for _, x := range axes[0] {
		for _, y := range axes[1] {
			probes = append(probes, []float64{x, y})
		}
	}
	return probes
}

// TestPosetAgreesWithCoveringOracle drives 1000 random profile pairs through
// a fresh covering poset and checks its order relation against two
// independent oracles:
//
//  1. the quadratic pairwise oracle — predicate.Covers / CoveredByOther, the
//     exact rule the per-install rescan used before the poset replaced it;
//  2. probe-grid direct evaluation — whenever either side claims containment,
//     every grid event matching the covered profile must match the coverer.
func TestPosetAgreesWithCoveringOracle(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		p := predicate.MustParse(s, "p", randomProfileExpr(rng, 0))
		q := predicate.MustParse(s, "q", randomProfileExpr(rng, 0))

		po := agg.NewPoset(s)
		po.Add(p)
		po.Add(q)

		qCoversP := predicate.Covers(s, q, p)
		pCoversQ := predicate.Covers(s, p, q)
		want := oracleRelation(s, p, q)
		got := po.RelationOf("p", "q")
		if got != want {
			t.Fatalf("trial %d: %s vs %s: poset says %v, pairwise Covers says %v",
				trial, p.Render(s), q.Render(s), got, want)
		}

		// The rescan-era pruning rule, pair by pair: p is dropped exactly
		// when q covers it (ties keep the smaller id, and "p" < "q").
		routes := map[predicate.ID]*predicate.Profile{"p": p, "q": q}
		if oracle := CoveredByOther(s, p, routes); oracle != (qCoversP && !pCoversQ) {
			t.Fatalf("trial %d: CoveredByOther(p) = %v, Covers oracle %v", trial, oracle, qCoversP && !pCoversQ)
		}
		// q is dropped whenever p covers it: on equivalence the smaller id
		// ("p") wins the tiebreak.
		if oracle := CoveredByOther(s, q, routes); oracle != pCoversQ {
			t.Fatalf("trial %d: CoveredByOther(q) = %v disagrees with Covers", trial, oracle)
		}

		// Containment claims must survive direct evaluation over the grid.
		if got == agg.Equal || got == agg.CoveredBy || got == agg.Covers {
			wide, narrow := p, q
			if got == agg.CoveredBy {
				wide, narrow = q, p
			}
			for _, probe := range endpointProbes(s, p, q) {
				if narrow.Matches(probe) && !wide.Matches(probe) {
					t.Fatalf("trial %d: poset claims %s ⊇ %s but event %v matches only the narrow side",
						trial, wide.Render(s), narrow.Render(s), probe)
				}
				if got == agg.Equal && wide.Matches(probe) != narrow.Matches(probe) {
					t.Fatalf("trial %d: poset claims equivalence but event %v splits %s / %s",
						trial, probe, p.Render(s), q.Render(s))
				}
			}
		}
	}
}

// oracleRelation is the poset order the pairwise oracle assigns to p and q.
func oracleRelation(s *schema.Schema, p, q *predicate.Profile) agg.Relation {
	switch pq, qp := predicate.Covers(s, p, q), predicate.Covers(s, q, p); {
	case pq && qp:
		return agg.Equal
	case pq:
		return agg.Covers
	case qp:
		return agg.CoveredBy
	}
	return agg.Incomparable
}

// checkPoset holds po, however it was loaded, to what the pairwise
// predicate.Covers oracle and direct evaluation say about its live
// subscriptions: the order between every two of them, the shape Stats
// reports (one node per class of equal profiles, a root per class nothing
// strictly covers, the longest strictly-covering chain), and the ids the
// roots expand to on every probe. It returns the Stats it checked.
func checkPoset(t *testing.T, s *schema.Schema, po *agg.Poset, live []*predicate.Profile) agg.Stats {
	t.Helper()
	n := len(live)
	rel := make([][]agg.Relation, n)
	for i, p := range live {
		rel[i] = make([]agg.Relation, n)
		for j, q := range live {
			rel[i][j] = oracleRelation(s, p, q)
			if got := po.RelationOf(p.ID, q.ID); got != rel[i][j] {
				t.Fatalf("%s %s vs %s %s: poset says %v, pairwise Covers says %v",
					p.ID, p.Render(s), q.ID, q.Render(s), got, rel[i][j])
			}
		}
	}
	want := agg.Stats{Subscriptions: n}
	chain := make([]int, n) // longest chain of strict covers starting at i, in profiles
	var chainFrom func(i int) int
	chainFrom = func(i int) int {
		if chain[i] == 0 {
			chain[i] = 1
			for j := range live {
				if rel[i][j] == agg.Covers {
					chain[i] = max(chain[i], 1+chainFrom(j))
				}
			}
		}
		return chain[i]
	}
	for i := range live {
		first, covered := true, false // first of its class; strictly covered by some profile
		for j := range live {
			first = first && !(j < i && rel[i][j] == agg.Equal)
			covered = covered || rel[i][j] == agg.CoveredBy
		}
		if first {
			want.Nodes++
			if !covered {
				want.Roots++
			}
		}
		want.MaxDepth = max(want.MaxDepth, chainFrom(i))
	}
	roots := po.RootList()
	if got := po.Stats(); got != want || len(roots) != want.Roots {
		t.Fatalf("Stats = %+v with %d listed roots, the oracle says %+v", got, len(roots), want)
	}
	if n == 0 {
		return want
	}

	reps, t2n := make([]*predicate.Profile, len(roots)), make([]int32, len(roots))
	for i, r := range roots {
		reps[i], t2n[i] = r.Rep, r.Idx
	}
	tr, err := tree.Build(s, reps)
	if err != nil {
		t.Fatal(err)
	}
	snap := po.Freeze()
	for _, probe := range endpointProbes(s, live...) {
		matched, _ := tr.Match(probe)
		ids, _ := snap.Expand(probe, matched, t2n, tr, nil)
		var direct []predicate.ID
		for _, p := range live {
			if p.Matches(probe) {
				direct = append(direct, p.ID)
			}
		}
		slices.Sort(ids)
		slices.Sort(direct)
		if !slices.Equal(ids, direct) {
			t.Fatalf("probe %v: the roots expand to %v, direct evaluation says %v", probe, ids, direct)
		}
	}
	return want
}

// TestPosetBulkEqualsIncremental loads the same profiles into two posets —
// through Intern, which links nothing until the first read, and through Add
// one by one — and holds both to the oracle: equal roots, equal Stats, equal
// expansions. Each population then churns before its next read: the bulk side
// interleaves unlinked adds and removes, the incremental side mirrors them
// through Add.
func TestPosetBulkEqualsIncremental(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		bulk, inc := agg.NewPoset(s), agg.NewPoset(s)
		var live []*predicate.Profile
		serial := 0
		add := func() {
			serial++
			p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("s%d", serial)), randomProfileExpr(rng, 5))
			bulk.Intern(agg.Bare(p))
			inc.Add(p)
			live = append(live, p)
		}
		for i := 5 + rng.Intn(40); i > 0; i-- {
			add()
		}
		for round := 0; round < 3; round++ {
			if b, i := checkPoset(t, s, bulk, live), checkPoset(t, s, inc, live); b != i {
				t.Fatalf("trial %d: bulk load reports %+v, incremental load %+v", trial, b, i)
			}
			for i := rng.Intn(30); i > 0; i-- {
				if len(live) == 0 || rng.Intn(2) == 0 {
					add()
					continue
				}
				k := rng.Intn(len(live))
				_, okBulk := bulk.Remove(live[k].ID)
				_, okInc := inc.Remove(live[k].ID)
				if !okBulk || !okInc {
					t.Fatalf("trial %d: remove %s: bulk %v, incremental %v", trial, live[k].ID, okBulk, okInc)
				}
				live = slices.Delete(live, k, k+1)
			}
		}
	}
}

// FuzzPosetLink drives one poset with a script of linked adds, unlinked adds,
// removes and reads of the order, and holds what is left to the oracle: the
// byte stream picks the interleaving (a remove of a node not linked yet, a
// read between two bulk loads, a linked add on a poset with interned nodes
// pending) and, from a family of 256 coarse profiles, the structures.
func FuzzPosetLink(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 1, 4, 1, 5, 2, 0})
	f.Add([]byte{1, 9, 1, 9, 1, 10, 2, 1, 0, 9, 3, 0, 2, 0, 2, 0})
	// Three structures, the first removed, then a fourth that takes over
	// the index it freed, checked before and after.
	f.Add([]byte{1, 1, 1, 2, 1, 3, 4, 0, 2, 0, 1, 4, 4, 0, 1, 5, 4, 0})
	seq := make([]byte, 0, 128)
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i*7%5), byte(i*37))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160]
		}
		s := testSchema(t)
		po := agg.NewPoset(s)
		var live []*predicate.Profile
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			switch {
			case op == 2 && len(live) > 0:
				k := int(arg) % len(live)
				if _, ok := po.Remove(live[k].ID); !ok {
					t.Fatalf("op %d: remove %s: unknown", i/2, live[k].ID)
				}
				live = slices.Delete(live, k, k+1)
			case op == 3:
				po.RootList() // a reader of the order: links what is pending
			case op == 4:
				checkPoset(t, s, po, live)
			default:
				expr := randomProfileExpr(rand.New(rand.NewSource(int64(arg))), 4)
				p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("s%d", i/2)), expr)
				if op == 0 {
					po.Intern(agg.Bare(p))
				} else {
					po.Add(p)
				}
				live = append(live, p)
			}
		}
		checkPoset(t, s, po, live)
	})
}

// benchProfiles builds n distinct random route profiles.
func benchProfiles(b *testing.B, s *schema.Schema, n int) []*predicate.Profile {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ps := make([]*predicate.Profile, n)
	for i := range ps {
		ps[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%d", i)), randomProfileExpr(rng, 0))
	}
	return ps
}

// BenchmarkRouteInstall measures the cost of installing one more route on a
// link already carrying n routes, covering enabled.
//
//   - poset: the current path — one incremental AddProfile into the link's
//     engine; the covering poset places the new route against the nodes it
//     holds.
//   - rescan: the pre-poset path — rebuild the link engine from scratch,
//     running the O(n) CoveredByOther scan for every route: O(n²) covering
//     checks per install.
//
// Run with -benchtime=1x for the large rescan sizes; a single rescan at 10⁴
// routes performs 10⁸ covering checks.
func BenchmarkRouteInstall(b *testing.B) {
	price, _ := schema.NewNumericDomain(0, 1000)
	vol, _ := schema.NewNumericDomain(0, 100)
	s := schema.MustNew(
		schema.Attribute{Name: "price", Domain: price},
		schema.Attribute{Name: "volume", Domain: vol},
	)
	for _, n := range []int{100, 1000, 10000} {
		profiles := benchProfiles(b, s, n)
		extra := predicate.MustParse(s, "extra", "profile(price in [500,501]; volume = 7)")

		b.Run(fmt.Sprintf("poset/routes=%d", n), func(b *testing.B) {
			eng := core.NewEngine(s, core.Config{})
			for _, p := range profiles {
				if err := eng.AddProfile(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.AddProfile(extra); err != nil {
					b.Fatal(err)
				}
				if err := eng.RemoveProfile(extra.ID); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("rescan/routes=%d", n), func(b *testing.B) {
			routes := make(map[predicate.ID]*predicate.Profile, n+1)
			for _, p := range profiles {
				routes[p.ID] = p
			}
			routes[extra.ID] = extra
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The old rebuildLink body, verbatim in shape.
				eng := core.NewEngine(s, core.Config{})
				for _, p := range routes {
					if CoveredByOther(s, p, routes) {
						continue
					}
					if err := eng.AddProfile(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
