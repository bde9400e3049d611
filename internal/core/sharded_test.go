package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
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

// TestShardOf: the partition is stable, in-range, and spreads ids.
func TestShardOf(t *testing.T) {
	if ShardOf("anything", 1) != 0 || ShardOf("anything", 0) != 0 {
		t.Error("degenerate partitions must map to shard 0")
	}
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 4096; i++ {
		id := predicate.ID(fmt.Sprintf("sub-%d", i))
		s1 := ShardOf(id, n)
		if s1 < 0 || s1 >= n {
			t.Fatalf("shard %d out of range", s1)
		}
		if s2 := ShardOf(id, n); s2 != s1 {
			t.Fatalf("unstable hash: %d vs %d", s1, s2)
		}
		counts[s1]++
	}
	for i, c := range counts {
		if c < 4096/n/2 || c > 4096*2/n {
			t.Errorf("shard %d holds %d of 4096 ids: partition badly skewed", i, c)
		}
	}
}

// TestShardedMatchesOracle: the sharded match set equals the single-tree
// match set for every event, across shard counts.
func TestShardedMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			oracle, sharded, _ := shardedPair(t, n, 120, 42)
			if got := sharded.ShardCount(); got != n {
				t.Fatalf("ShardCount = %d", got)
			}
			if oracle.ProfileCount() != sharded.ProfileCount() {
				t.Fatalf("profile counts differ: %d vs %d", oracle.ProfileCount(), sharded.ProfileCount())
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

// TestShardedMatchBatchMatchesOracle: the batch path merges the same match
// sets and accounts the same totals as per-event matching.
func TestShardedMatchBatchMatchesOracle(t *testing.T) {
	oracle, sharded, _ := shardedPair(t, 4, 90, 11)
	rng := rand.New(rand.NewSource(3))
	events := make([][]float64, 300)
	for i := range events {
		events[i] = []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
	}
	batch, err := sharded.MatchBatch(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(events) {
		t.Fatalf("batch results = %d", len(batch))
	}
	for i, ev := range events {
		want, _, err := oracle.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		w, g := sortedIDs(want), sortedIDs(batch[i].IDs)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("event %d: oracle %v vs batch %v", i, w, g)
		}
	}
	// One accounted event per batch element, ops summed across shards.
	acc := sharded.Account()
	if acc.Events != uint64(len(events)) {
		t.Errorf("accounted %d events for a %d-event batch", acc.Events, len(events))
	}
	if acc.Ops == 0 || acc.MeanOps <= 0 {
		t.Errorf("accounting lost ops: %+v", acc)
	}
	// Empty input and all-empty shards behave like the single engine.
	if out, err := sharded.MatchBatch(nil, 2); err != nil || out != nil {
		t.Errorf("empty batch: %v %v", out, err)
	}
	empty := NewSharded(testSchema(t), Config{}, 3)
	out, err := empty.MatchBatch(events[:2], 2)
	if err != nil || len(out) != 2 || out[0].IDs != nil {
		t.Errorf("empty sharded batch: %v %v", out, err)
	}
	if ids, ops, err := empty.Match(events[0]); err != nil || ids != nil || ops != 0 {
		t.Errorf("empty sharded match: %v %d %v", ids, ops, err)
	}
	if empty.Account().Events != 0 {
		t.Error("empty engine must not account events")
	}
}

// TestShardedStatsTotals: one published event is one accounted event whose
// Events/Ops/Matches totals survive the striped-account merge, and Reset
// clears every stripe.
func TestShardedStatsTotals(t *testing.T) {
	oracle, sharded, _ := shardedPair(t, 4, 80, 5)
	rng := rand.New(rand.NewSource(9))
	const events = 400
	var wantMatches uint64
	for i := 0; i < events; i++ {
		ev := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
		ids, _, err := oracle.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		wantMatches += uint64(len(ids))
		if _, _, err := sharded.Match(ev); err != nil {
			t.Fatal(err)
		}
	}
	acc := sharded.Account()
	if acc.Events != events {
		t.Errorf("Events = %d, want %d", acc.Events, events)
	}
	if acc.Matches != wantMatches {
		t.Errorf("Matches = %d, want %d", acc.Matches, wantMatches)
	}
	if math.Abs(acc.MeanOps-float64(acc.Ops)/events) > 1e-9 {
		t.Errorf("MeanOps %v inconsistent with Ops/Events %v", acc.MeanOps, float64(acc.Ops)/events)
	}
	if acc.MeanMatches <= 0 || acc.OpsPerNotify <= 0 {
		t.Errorf("derived rates missing: %+v", acc)
	}
	sharded.ResetAccount()
	if got := sharded.Account(); got.Events != 0 || got.Ops != 0 {
		t.Errorf("ResetAccount left %+v", got)
	}
}

// TestShardedProfileChurn: removing profiles dirties only the home shard and
// the merged view stays consistent with the oracle.
func TestShardedProfileChurn(t *testing.T) {
	oracle, sharded, _ := shardedPair(t, 4, 60, 21)
	// Remove a third of the profiles from both engines.
	for i := 0; i < 60; i += 3 {
		id := predicate.ID(fmt.Sprintf("p%d", i))
		if err := oracle.RemoveProfile(id); err != nil {
			t.Fatal(err)
		}
		if err := sharded.RemoveProfile(id); err != nil {
			t.Fatal(err)
		}
	}
	if sharded.ProfileCount() != oracle.ProfileCount() {
		t.Fatalf("profile counts differ after churn")
	}
	if got := len(sharded.Profiles()); got != sharded.ProfileCount() {
		t.Fatalf("Profiles() returned %d of %d", got, sharded.ProfileCount())
	}
	if err := sharded.RemoveProfile("p0"); err == nil {
		t.Error("double remove must fail")
	}
	if err := sharded.AddProfile(sharded.Profiles()[0]); err == nil {
		t.Error("duplicate add must fail")
	}
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

// TestShardedRestructure: SetConfig/SetEventDists/Reorder/Rebuild fan out
// per shard and the match set is invariant under restructuring.
func TestShardedRestructure(t *testing.T) {
	oracle, sharded, s := shardedPair(t, 3, 70, 31)
	eds := uniformDists(s)
	cfg := sharded.Config()
	cfg.ValueMeasure = ValueEvent
	cfg.AttrOrdering = AttrA2
	sharded.SetConfig(cfg)
	sharded.SetEventDists(eds)
	if err := sharded.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := sharded.Config(); got.ValueMeasure != ValueEvent || got.AttrOrdering != AttrA2 {
		t.Fatalf("config did not fan out: %+v", got)
	}
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
	// Rebuild/Reorder on an engine with empty shards must not fail.
	small := NewSharded(s, Config{}, 8)
	if err := small.AddProfile(predicate.MustParse(s, "only", "profile(x = 1)")); err != nil {
		t.Fatal(err)
	}
	if err := small.Rebuild(); err != nil {
		t.Fatalf("rebuild with empty shards: %v", err)
	}
	if _, _, err := small.Reorder(); err != nil {
		t.Fatalf("reorder with empty shards: %v", err)
	}
}

// TestShardedAnalyze: the merged cost model sums expected operations across
// shards and combines match probabilities.
func TestShardedAnalyze(t *testing.T) {
	_, sharded, s := shardedPair(t, 3, 45, 17)
	a, err := sharded.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var wantOps, wantMatches float64
	for i := 0; i < sharded.ShardCount(); i++ {
		e := sharded.Shard(i)
		if e.ProfileCount() == 0 {
			continue
		}
		sa, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		wantOps += sa.TotalOps
		wantMatches += sa.ExpMatches
	}
	if math.Abs(a.TotalOps-wantOps) > 1e-9 {
		t.Errorf("TotalOps = %v, want %v", a.TotalOps, wantOps)
	}
	if math.Abs(a.ExpMatches-wantMatches) > 1e-9 {
		t.Errorf("ExpMatches = %v, want %v", a.ExpMatches, wantMatches)
	}
	if a.MatchProb <= 0 || a.MatchProb > 1 {
		t.Errorf("MatchProb = %v", a.MatchProb)
	}
	if roots := sharded.AggStats().Roots; len(a.PerProfile) != roots || roots >= sharded.ProfileCount() {
		t.Errorf("PerProfile = %d entries for %d indexed roots of %d profiles", len(a.PerProfile), roots, sharded.ProfileCount())
	}
	if len(a.PerLevelOps) != s.N() {
		t.Errorf("PerLevelOps = %d entries for %d attributes", len(a.PerLevelOps), s.N())
	}
	if _, err := NewSharded(s, Config{}, 2).Analyze(); err == nil {
		t.Error("analyze of empty sharded engine must fail")
	}
}
