package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"genas/internal/agg"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
)

// uniformDists returns a uniform P_e per schema attribute.
func uniformDists(s *schema.Schema) []dist.Dist {
	ds := make([]dist.Dist, s.N())
	for i := range ds {
		ds[i] = dist.New(dist.UniformShape{}, s.At(i).Domain)
	}
	return ds
}

// shardedPair builds an identically-populated single-tree engine (the
// sequential oracle) and an n-way sharded engine over the same corpus.
func shardedPair(t *testing.T, n, profiles int, seed int64) (*Engine, *Sharded, *schema.Schema) {
	t.Helper()
	s := testSchema(t)
	oracle := NewEngine(s, Config{})
	sharded := NewSharded(s, Config{}, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < profiles; i++ {
		var expr string
		switch i % 3 {
		case 0:
			expr = fmt.Sprintf("profile(x = %d; y = %d)", rng.Intn(100), rng.Intn(100))
		case 1:
			expr = fmt.Sprintf("profile(x >= %d)", rng.Intn(100))
		default:
			lo := rng.Intn(80)
			expr = fmt.Sprintf("profile(y in [%d,%d])", lo, lo+rng.Intn(20))
		}
		p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)
		if err := oracle.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		if err := sharded.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	return oracle, sharded, s
}

func sortedIDs(ids []predicate.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return out
}

// checkShares fails the test unless every share holds an automaton, every
// poset root sits in automaton idx mod n at the slot the engine's table
// names, and nothing else is indexed. An engine that is not built indexes
// nothing and passes.
func checkShares(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.parts == nil {
		return
	}
	if len(snap.parts) != e.n {
		t.Fatalf("%d automata published, want %d", len(snap.parts), e.n)
	}
	for i, p := range snap.parts {
		if p.tree == nil {
			t.Fatalf("share %d holds no automaton", i)
		}
	}
	roots := e.agg.RootList()
	for _, r := range roots {
		p := &snap.parts[int(r.Idx)%e.n]
		if int(r.Idx) >= len(e.nodeTree) || e.nodeTree[r.Idx] < 0 {
			t.Fatalf("root %d is in no automaton", r.Idx)
		}
		if slot := e.nodeTree[r.Idx]; int(slot) >= len(p.t2n) || p.t2n[slot] != r.Idx {
			t.Fatalf("root %d: slot %d of automaton %d does not map back to it", r.Idx, slot, int(r.Idx)%e.n)
		}
	}
	indexed := 0
	for _, slot := range e.nodeTree {
		if slot >= 0 {
			indexed++
		}
	}
	if indexed != len(roots) {
		t.Fatalf("%d nodes indexed for %d roots", indexed, len(roots))
	}
}

// TestShardsShareOnePoset: the automata of one engine split one poset's
// roots. A structure subscribed under two ids is one node, and a profile
// covered by another is no root, whatever the ids. The ids are chosen so
// that an FNV-1a id hash mod 2 splits both pairs: p0 and p2 one way, p1 and
// p3 the other, which would make x >= 10 a node twice and y >= 60 a root.
func TestShardsShareOnePoset(t *testing.T) {
	s := testSchema(t)
	e := NewSharded(s, Config{}, 2)
	add := func(id, expr string) {
		t.Helper()
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(id), expr)); err != nil {
			t.Fatal(err)
		}
	}
	add("p0", "profile(x >= 10)")
	if _, _, err := e.Match([]float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	add("p1", "profile(x >= 10)")
	if n := e.AggStats().Nodes; n != 1 {
		t.Fatalf("one structure under two ids makes %d nodes, want 1", n)
	}
	add("p2", "profile(y >= 50)")
	add("p3", "profile(y >= 60)")
	if st := e.AggStats(); st.Nodes != 3 || st.Roots != 2 {
		t.Fatalf("index shape %+v, want 3 nodes under 2 roots", st)
	}
	if r := e.agg.RelationOf("p2", "p3"); r != agg.Covers {
		t.Fatalf("p2 %v p3, want covers", r)
	}
	checkShares(t, e)
	got, _, err := e.Match([]float64{50, 70})
	if err != nil || fmt.Sprint(sortedIDs(got)) != "[p0 p1 p2 p3]" {
		t.Fatalf("Match = %v, %v; want all four", got, err)
	}
}

// TestShardedMatchesOracle: the sharded match set equals the single-tree
// match set for every event, across shard counts.
func TestShardedMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			oracle, sharded, _ := shardedPair(t, n, 120, 42)
			if sharded.n != n {
				t.Fatalf("%d automata, want %d", sharded.n, n)
			}
			if oracle.AggStats().Subscriptions != sharded.AggStats().Subscriptions {
				t.Fatalf("profile counts differ: %d vs %d", oracle.AggStats().Subscriptions, sharded.AggStats().Subscriptions)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
				want, _, err := oracle.Match(ev)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := sharded.Match(ev)
				if err != nil {
					t.Fatal(err)
				}
				w, g := sortedIDs(want), sortedIDs(got)
				if len(w) != len(g) {
					t.Fatalf("event %v: oracle %v vs sharded %v", ev, w, g)
				}
				for j := range w {
					if w[j] != g[j] {
						t.Fatalf("event %v: oracle %v vs sharded %v", ev, w, g)
					}
				}
			}
		})
	}
}

// TestShardedMatchAllocations: an event matching in both automata of a
// two-automaton engine costs one allocation, the id slice Match
// preallocates. The two structures are nodes 0 and 1, one per automaton.
func TestShardedMatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled expansion scratch, which then allocates")
	}
	s := testSchema(t)
	sharded := NewSharded(s, Config{}, 2)
	for i, expr := range []string{"profile(x >= 10)", "profile(y >= 10)"} {
		if err := sharded.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	ev := []float64{50, 50}
	if got, _, err := sharded.Match(ev); err != nil || len(got) != 2 {
		t.Fatalf("Match = %v, %v; want both automata's ids", got, err)
	}
	if snap := sharded.snap.Load(); len(snap.parts[0].t2n) != 1 || len(snap.parts[1].t2n) != 1 {
		t.Fatal("the two structures share one automaton")
	}
	if n := testing.AllocsPerRun(200, func() { _, _, _ = sharded.Match(ev) }); n > 1 {
		t.Errorf("a match in both automata allocates %.1f objects, want 1", n)
	}
	// The appending path into a warmed buffer allocates nothing, on a match
	// and on a miss.
	dst, _, _ := sharded.MatchAppend(ev, nil)
	for _, vals := range [][]float64{ev, {0, 0}} {
		if n := testing.AllocsPerRun(200, func() { dst, _, _ = sharded.MatchAppend(vals, dst[:0]) }); n != 0 {
			t.Errorf("MatchAppend(%v) into a warmed buffer allocates %.1f objects, want 0", vals, n)
		}
	}
}

// TestShardedStatsTotals: one matched event is one accounted event, the
// account's Ops total the operations the matches reported, MeanOps is their
// ratio, and an all-empty engine matches nothing and accounts nothing.
func TestShardedStatsTotals(t *testing.T) {
	_, sharded, _ := shardedPair(t, 4, 80, 5)
	rng := rand.New(rand.NewSource(9))
	const events = 400
	var wantOps uint64
	for i := 0; i < events; i++ {
		ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
		_, ops, err := sharded.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		wantOps += uint64(ops)
	}
	acc := sharded.Account()
	if acc.Events != events || acc.Ops != wantOps {
		t.Errorf("account = %+v, want %d events and %d ops", acc, events, wantOps)
	}
	if acc.MeanOps != float64(acc.Ops)/events {
		t.Errorf("MeanOps %v inconsistent with Ops/Events %v", acc.MeanOps, float64(acc.Ops)/events)
	}
	empty := NewSharded(testSchema(t), Config{}, 3)
	if ids, ops, err := empty.Match([]float64{50, 50}); err != nil || ids != nil || ops != 0 {
		t.Errorf("empty sharded match: %v %d %v", ids, ops, err)
	}
	if empty.Account().Events != 0 {
		t.Error("empty engine must not account events")
	}
}

// TestShardedProfileChurn: removing profiles keeps every root in its
// automaton and the match set consistent with the oracle.
func TestShardedProfileChurn(t *testing.T) {
	oracle, sharded, _ := shardedPair(t, 4, 60, 21)
	// Remove a third of the profiles from both engines.
	for i := 0; i < 60; i += 3 {
		id := predicate.ID(fmt.Sprintf("p%d", i))
		if err := oracle.RemoveProfile(id); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if sharded.AggStats().Subscriptions != oracle.AggStats().Subscriptions {
		t.Fatalf("profile counts differ after churn")
	}
	if got := len(sharded.Members()); got != sharded.AggStats().Subscriptions {
		t.Fatalf("Members() returned %d of %d", got, sharded.AggStats().Subscriptions)
	}
	if _, err := sharded.Remove("p0"); err == nil {
		t.Error("double remove must fail")
	}
	if err := sharded.Add(sharded.Members()[0]); err == nil {
		t.Error("duplicate add must fail")
	}
	checkShares(t, sharded)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
		want, _, _ := oracle.Match(ev)
		got, _, _ := sharded.Match(ev)
		if fmt.Sprint(sortedIDs(want)) != fmt.Sprint(sortedIDs(got)) {
			t.Fatalf("event %v: %v vs %v", ev, want, got)
		}
	}
}

// TestShardedRestructure: SetConfig, Reorder and Rebuild reach every
// automaton and the match set is invariant under restructuring.
func TestShardedRestructure(t *testing.T) {
	oracle, sharded, s := shardedPair(t, 3, 70, 31)
	eds := uniformDists(s)
	sharded.SetConfig(Config{AttrOrdering: AttrA2, EventDists: eds})
	if err := sharded.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkShares(t, sharded)
	if _, _, err := sharded.Reorder(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
		want, _, _ := oracle.Match(ev)
		got, _, _ := sharded.Match(ev)
		if fmt.Sprint(sortedIDs(want)) != fmt.Sprint(sortedIDs(got)) {
			t.Fatalf("restructured match differs on %v", ev)
		}
	}
	// Rebuild/Reorder on an engine with automata without roots must not fail.
	small := NewSharded(s, Config{}, 8)
	if err := small.AddProfile(predicate.MustParse(s, "only", "profile(x = 1)")); err != nil {
		t.Fatal(err)
	}
	if err := small.Rebuild(); err != nil {
		t.Fatalf("rebuild with automata without roots: %v", err)
	}
	if _, _, err := small.Reorder(); err != nil {
		t.Fatalf("reorder with automata without roots: %v", err)
	}
}

// TestShardedAnalyze: the cost model of several automata sums their
// expected operations and combines their match probabilities.
func TestShardedAnalyze(t *testing.T) {
	_, sharded, s := shardedPair(t, 3, 45, 17)
	a, err := sharded.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var wantOps, wantMatches float64
	miss := 1.0
	for _, p := range sharded.snap.Load().parts {
		pa := selectivity.Analyze(p.tree, uniformDists(s), selectivity.Probe)
		wantOps += pa.TotalOps
		wantMatches += pa.ExpMatches
		miss *= 1 - pa.MatchProb
	}
	if math.Abs(a.TotalOps-wantOps) > 1e-9 {
		t.Errorf("TotalOps = %v, want %v", a.TotalOps, wantOps)
	}
	if math.Abs(a.ExpMatches-wantMatches) > 1e-9 {
		t.Errorf("ExpMatches = %v, want %v", a.ExpMatches, wantMatches)
	}
	if math.Abs(a.MatchProb-(1-miss)) > 1e-12 || a.MatchProb <= 0 || a.MatchProb > 1 {
		t.Errorf("MatchProb = %v, want %v", a.MatchProb, 1-miss)
	}
	if roots := sharded.AggStats().Roots; len(a.PerProfile) != roots || roots >= sharded.AggStats().Subscriptions {
		t.Errorf("PerProfile = %d entries for %d indexed roots of %d profiles", len(a.PerProfile), roots, sharded.AggStats().Subscriptions)
	}
	if len(a.PerLevelOps) != s.N() {
		t.Errorf("PerLevelOps = %d entries for %d attributes", len(a.PerLevelOps), s.N())
	}
	if _, err := NewSharded(s, Config{}, 2).Analyze(); err == nil {
		t.Error("analyze of empty sharded engine must fail")
	}
}

// TestAnalyzeModelsThePublishedAutomata: after churn that rebuilt nothing,
// Analyze models the edited automata as they are published, without
// replacing them, and predicts what matching pays: its TotalOps is the mean
// comparisons of Match over events drawn from EventDists. PerProfile holds
// one entry per automaton slot, and a slot whose root left reads zero. The
// structures are distinct points, which cover one another nowhere, so the
// expansion adds no descents to the automata's comparisons.
func TestAnalyzeModelsThePublishedAutomata(t *testing.T) {
	s := testSchema(t)
	eds := []dist.Dist{dist.New(dist.Gauss(), s.At(0).Domain), dist.New(dist.PeakLow(0.9), s.At(1).Domain)}
	e := NewSharded(s, Config{EventDists: eds}, 3)
	rng := rand.New(rand.NewSource(5))
	point := func(i int) *predicate.Profile {
		expr := fmt.Sprintf("profile(x = %d; y = %d)", rng.Intn(100), i)
		return predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)
	}
	for i := range 60 {
		if err := e.AddProfile(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Match([]float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	for i := range 30 {
		if err := e.RemoveProfile(predicate.ID(fmt.Sprintf("p%d", 2*i))); err != nil {
			t.Fatal(err)
		}
		if err := e.AddProfile(point(60 + i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.snap.Load()
	a, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if e.snap.Load() != snap {
		t.Fatal("Analyze replaced the published automata")
	}
	slots, zero := 0, 0
	for _, p := range snap.parts {
		slots += len(p.t2n)
	}
	for _, pc := range a.PerProfile {
		if pc.MatchProb == 0 {
			zero++
		}
	}
	if len(a.PerProfile) != slots || zero < slots-60 {
		t.Fatalf("PerProfile has %d entries, %d of them zero, for %d slots over 60 live roots", len(a.PerProfile), zero, slots)
	}
	const n = 40000
	total, vals := 0, make([]float64, s.N())
	for range n {
		for i := range vals {
			vals[i] = eds[i].Sample(rng)
		}
		_, ops, err := e.Match(vals)
		if err != nil {
			t.Fatal(err)
		}
		total += ops
	}
	if got := float64(total) / n; !schema.AlmostEqual(got, a.TotalOps, 0.05) {
		t.Fatalf("Match pays %.3f comparisons per event, Analyze predicts %.3f", got, a.TotalOps)
	}
}
