package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// fedTree builds the automaton a fed-2hop daemon's engine indexes: the
// benchmark workload's 16 disjoint template boxes, a 4×4 grid over
// temperature × humidity with empty bands between the temperature columns,
// on its four-attribute schema (its refinements and copies are covered, so
// they are no roots).
func fedTree(tb testing.TB) *Tree {
	tb.Helper()
	s, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,39]; severity=cat{low,medium,high,critical}")
	if err != nil {
		tb.Fatal(err)
	}
	profiles := make([]*predicate.Profile, 16)
	for i := range profiles {
		t0, h0 := -30+20*float64(i%4)+1, 25*float64(i/4)+2
		text := fmt.Sprintf("profile(temperature in [%g,%g]; humidity in [%g,%g])", t0, t0+12, h0, h0+18)
		profiles[i] = predicate.MustParse(s, predicate.ID(fmt.Sprint("t", i)), text)
	}
	t, err := Build(s, profiles)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// BenchmarkMatchAnySmallTree times MatchAny's walk of a small automaton,
// fedTree's, with one event inside a template box repeated: the walk's
// per-level cost, which a large automaton's cache misses hide.
func BenchmarkMatchAnySmallTree(b *testing.B) {
	t := fedTree(b)
	ev := []float64{-3, 36, 5, 0}
	if !t.MatchAny(ev) {
		b.Fatal("the event matches no template")
	}
	for b.Loop() {
		t.MatchAny(ev)
	}
	b.ReportMetric(float64(t.Stats().Nodes), "nodes")
}

// BenchmarkProbeWideNode times MatchAny on a churn-mixed-shaped automaton of
// 1 000 churnCorpus profiles, whose temperature root has some 300 subrange
// edges, over uniform events: a walk the wide root's search dominates.
func BenchmarkProbeWideNode(b *testing.B) {
	s, profile := churnCorpus(b)
	corpus := make([]*predicate.Profile, 1000)
	for i := range corpus {
		corpus[i] = profile(i)
	}
	t, err := Build(s, corpus)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	events := make([][]float64, 4096)
	for i := range events {
		events[i] = randomEvent(s, rng)
	}
	i := 0
	for b.Loop() {
		t.MatchAny(events[i&(len(events)-1)])
		i++
	}
	b.ReportMetric(float64(len(t.Root().Edges())), "root-edges")
}
