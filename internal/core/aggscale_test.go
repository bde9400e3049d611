package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// aggScalePopulation draws n subscriptions from `distinct` range templates
// ranked by a Zipf law (s = 1.1); a quarter take one of three strictly
// narrower refinements of their template instead, so the poset gets covering
// edges as well as duplicates. Ids are unique; only structure repeats, which
// is the population shape canonical aggregation interns.
func aggScalePopulation(s *schema.Schema, rng *rand.Rand, distinct, n int) []*predicate.Profile {
	// A box is one [lo,hi] per attribute; hi < lo marks a don't-care.
	parse := func(box [][2]float64) *predicate.Profile {
		var preds []string
		for a, b := range box {
			if b[0] <= b[1] {
				preds = append(preds, fmt.Sprintf("%s in [%g,%g]", s.At(a).Name, b[0], b[1]))
			}
		}
		return predicate.MustParse(s, "t", "profile("+strings.Join(preds, "; ")+")")
	}
	pool := make([][]*predicate.Profile, distinct) // [k][0] template, [k][1:] refinements
	for k := range pool {
		base := make([][2]float64, s.N())
		for a := range base {
			dom := s.At(a).Domain
			w := dom.Size() * (0.05 + 0.1*rng.Float64())
			lo := dom.Lo() + rng.Float64()*(dom.Size()-w)
			base[a] = [2]float64{lo, lo + w}
			if a > 0 && rng.Float64() < 0.5 {
				base[a] = [2]float64{1, 0}
			}
		}
		pool[k] = append(pool[k], parse(base))
		for v := 0; v < 3; v++ {
			ref := make([][2]float64, len(base))
			for a, b := range base {
				q := (b[1] - b[0]) / 4 // negative on a don't-care, which stays one
				ref[a] = [2]float64{b[0] + (0.1+0.9*rng.Float64())*q, b[1] - (0.1+0.9*rng.Float64())*q}
			}
			pool[k] = append(pool[k], parse(ref))
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(distinct-1))
	out := make([]*predicate.Profile, n)
	for i := range out {
		src := pool[zipf.Uint64()]
		p := src[0]
		if rng.Float64() < 0.25 {
			p = src[1+rng.Intn(len(src)-1)]
		}
		// Preds may alias the pool copy: profiles are immutable once built.
		out[i] = &predicate.Profile{ID: predicate.ID(fmt.Sprintf("p%06d", i)), Preds: p.Preds}
	}
	return out
}

// TestAggregatedScale holds canonical aggregation's two reasons to exist at
// the population it was built for: 10⁵ subscriptions sharing 10³ templates.
//
// Compression: the pool bounds the structures at distinct × (1 + 3), so the
// poset must be several times smaller than the population (>= 5x; ~30x here).
//
// Memory: the automaton indexes only the poset's uncovered roots and every
// further subscriber of a structure costs one member, so resident heap per
// subscription must stay under 8 KiB. This population measures ~0.5 KiB; the
// ceiling is not tighter because the root automaton, a cost fixed by the
// templates and not the subscriber count, grows several-fold with one more
// attribute or fewer don't-cares. An index with an automaton entry per
// subscription costs what one distinct structure does (14.8 KB each on the
// benchmark's 4 000-profile match-drift) and its batch build is superlinear
// in distinct structures, so a collapse to per-profile indexing passes
// neither the ceiling nor the timeout.
// Heap growth is a count, not a timing: it needs no noise tolerance.
//
// Semantics: aggregation is an index transform, not a filter change, so
// Match must equal direct evaluation of every profile.
func TestAggregatedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second population")
	}
	s, err := schema.ParseSpec("a=numeric[0,100]; b=numeric[0,100]; c=numeric[0,100]")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	subs := aggScalePopulation(s, rng, 1000, 100000)

	// Live-heap floor with the population already allocated: the growth
	// across registration plus the first (lazy) build is the index's cost.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	e := NewEngine(s, Config{})
	for _, p := range subs {
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Match(make([]float64, s.N())); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)

	st := e.AggStats()
	t.Logf("canonical index: %d nodes (%d roots, depth %d) for %d subscriptions, %.1fx compression",
		st.Nodes, st.Roots, st.MaxDepth, st.Subscriptions, st.Ratio())
	if st.Subscriptions != len(subs) || st.Ratio() < 5 {
		t.Errorf("%d subscriptions at %.1fx compression, want %d at >= 5x", st.Subscriptions, st.Ratio(), len(subs))
	}
	bytesPerSub := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(subs))
	t.Logf("resident heap: %.0f bytes/subscription", bytesPerSub)
	if bytesPerSub <= 0 || bytesPerSub > 8192 {
		t.Errorf("%.0f bytes/subscription, want within (0, 8192]", bytesPerSub)
	}

	matched := 0
	ev := make([]float64, s.N())
	for i := 0; i < 300; i++ {
		for a := range ev {
			ev[a] = s.At(a).Domain.Lo() + rng.Float64()*s.At(a).Domain.Size()
		}
		got, _, err := e.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		var want []predicate.ID
		for _, p := range subs {
			if p.Matches(ev) {
				want = append(want, p.ID)
			}
		}
		if g, w := strings.Join(sortedIDs(got), ","), strings.Join(sortedIDs(want), ","); g != w {
			t.Fatalf("event %v: engine matched %d ids, direct evaluation %d", ev, len(got), len(want))
		}
		matched += len(want)
	}
	if matched == 0 {
		t.Fatal("no sampled event matched anything; the population is degenerate")
	}
}
