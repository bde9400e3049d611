package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	a, _ := schema.NewIntegerDomain(0, 99)
	b, _ := schema.NewIntegerDomain(0, 99)
	return schema.MustNew(
		schema.Attribute{Name: "x", Domain: a},
		schema.Attribute{Name: "y", Domain: b},
	)
}

func TestEngineLifecycle(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})

	if m, ops, err := e.Match([]float64{1, 2}); err != nil || m != nil || ops != 0 {
		t.Fatalf("empty engine must match nothing: %v %d %v", m, ops, err)
	}
	if err := e.Rebuild(); !errors.Is(err, ErrNoProfiles) {
		t.Fatalf("empty rebuild error = %v", err)
	}

	p1 := predicate.MustParse(s, "p1", "profile(x >= 50)")
	if err := e.AddProfile(p1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddProfile(p1); !errors.Is(err, ErrDuplicateProfile) {
		t.Error("duplicate must be rejected")
	}
	ids, ops, err := e.Match([]float64{60, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "p1" || ops <= 0 {
		t.Errorf("match = %v ops=%d", ids, ops)
	}

	p2 := predicate.MustParse(s, "p2", "profile(y <= 10)")
	if err := e.AddProfile(p2); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = e.Match([]float64{60, 5})
	if len(ids) != 2 {
		t.Errorf("after add: %v", ids)
	}

	if err := e.RemoveProfile("p1"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveProfile("p1"); !errors.Is(err, ErrUnknownProfile) {
		t.Error("double remove must error")
	}
	ids, _, _ = e.Match([]float64{60, 5})
	if len(ids) != 1 || ids[0] != "p2" {
		t.Errorf("after remove: %v", ids)
	}
	if e.ProfileCount() != 1 {
		t.Errorf("count = %d", e.ProfileCount())
	}
}

func TestEngineAccount(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	if err := e.AddProfile(predicate.MustParse(s, "p", "profile(x = 5)")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := e.Match([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	acc := e.Account()
	if acc.Events != 10 || acc.Ops == 0 {
		t.Errorf("account = %+v", acc)
	}
	e.ResetAccount()
	if e.Account().Events != 0 {
		t.Error("reset failed")
	}
}

// TestEngineMeasuresChangeOrder: switching from natural to V1 with a peaked
// event distribution lowers the analytic cost.
func TestEngineMeasuresChangeOrder(t *testing.T) {
	s := testSchema(t)
	eds := []dist.Dist{
		dist.New(dist.PeakHigh(0.95), s.At(0).Domain),
		dist.New(dist.UniformShape{}, s.At(1).Domain),
	}
	e := NewEngine(s, Config{EventDists: eds, Search: tree.SearchLinear}) // the measures order the scan
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		expr := fmt.Sprintf("profile(x = %d)", rng.Intn(100))
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	aNat, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	cfg.ValueMeasure = ValueEvent
	e.SetConfig(cfg)
	if _, _, err := e.Reorder(); err != nil {
		t.Fatal(err)
	}
	aV1, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if aV1.TotalOps >= aNat.TotalOps {
		t.Errorf("V1 %.3f must beat natural %.3f on peaked events", aV1.TotalOps, aNat.TotalOps)
	}
}

// TestEngineAttrOrderings: A1/A2/A3 orderings produce valid trees matching
// the same events.
func TestEngineAttrOrderings(t *testing.T) {
	s := testSchema(t)
	for _, ord := range []AttrOrdering{AttrNatural, AttrA1, AttrA1Asc, AttrA2, AttrA2Asc, AttrA3} {
		e := NewEngine(s, Config{AttrOrdering: ord})
		if err := e.AddProfile(predicate.MustParse(s, "p1", "profile(x in [10,20]; y >= 90)")); err != nil {
			t.Fatal(err)
		}
		if err := e.AddProfile(predicate.MustParse(s, "p2", "profile(y <= 5)")); err != nil {
			t.Fatal(err)
		}
		ids, _, err := e.Match([]float64{15, 95})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if len(ids) != 1 || ids[0] != "p1" {
			t.Errorf("%v: match = %v", ord, ids)
		}
		ids, _, _ = e.Match([]float64{50, 3})
		if len(ids) != 1 || ids[0] != "p2" {
			t.Errorf("%v: match = %v", ord, ids)
		}
	}
}

// TestEngineReorderKeepsSemantics: Reorder after SetEventDists changes costs
// but never match results.
func TestEngineReorderKeepsSemantics(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{ValueMeasure: ValueEvent})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		expr := fmt.Sprintf("profile(x = %d; y = %d)", rng.Intn(100), rng.Intn(100))
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("q%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	type result struct {
		vals []float64
		ids  []predicate.ID
	}
	var before []result
	for i := 0; i < 200; i++ {
		vals := []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
		ids, _, _ := e.Match(vals)
		before = append(before, result{vals, ids})
	}
	e.SetEventDists([]dist.Dist{
		dist.New(dist.PeakLow(0.9), s.At(0).Domain),
		dist.New(dist.PeakHigh(0.9), s.At(1).Domain),
	})
	if _, _, err := e.Reorder(); err != nil {
		t.Fatal(err)
	}
	for _, r := range before {
		ids, _, _ := e.Match(r.vals)
		if len(ids) != len(r.ids) {
			t.Fatalf("reorder changed result at %v: %v vs %v", r.vals, ids, r.ids)
		}
		for i := range ids {
			if ids[i] != r.ids[i] {
				t.Fatalf("reorder changed result at %v: %v vs %v", r.vals, ids, r.ids)
			}
		}
	}
}

// TestEngineConcurrent: concurrent matches with interleaved profile changes
// neither race nor corrupt results (run with -race).
func TestEngineConcurrent(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	for i := 0; i < 20; i++ {
		expr := fmt.Sprintf("profile(x = %d)", i*5)
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := e.Match([]float64{float64(rng.Intn(100)), float64(rng.Intn(100))})
				if err != nil && !errors.Is(err, ErrNoProfiles) {
					t.Errorf("match: %v", err)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 30; i++ {
		id := predicate.ID(fmt.Sprintf("extra%d", i))
		expr := fmt.Sprintf("profile(y = %d)", i)
		if err := e.AddProfile(predicate.MustParse(s, id, expr)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := e.RemoveProfile(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestConfigDefaults(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	cfg := e.Config()
	if cfg.ValueMeasure != ValueNatural || cfg.AttrOrdering != AttrNatural || cfg.Search != tree.DefaultSearch {
		t.Errorf("defaults = %+v", cfg)
	}
	// SetConfig with zero fields keeps previous values.
	e.SetConfig(Config{Search: tree.SearchBinary})
	cfg = e.Config()
	if cfg.ValueMeasure != ValueNatural || cfg.Search != tree.SearchBinary {
		t.Errorf("after SetConfig = %+v", cfg)
	}
}

func TestMeasureStrings(t *testing.T) {
	for m := ValueNatural; m <= ValueCombinedAsc; m++ {
		if m.String() == "" {
			t.Error("empty measure name")
		}
	}
	for a := AttrNatural; a <= AttrA3; a++ {
		if a.String() == "" {
			t.Error("empty ordering name")
		}
	}
}

// TestMatchBatch: batch results agree positionally with sequential matching
// and concurrent workers do not race (run with -race).
func TestMatchBatch(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		expr := fmt.Sprintf("profile(x = %d; y = %d)", rng.Intn(100), rng.Intn(100))
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("b%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	events := make([][]float64, 1000)
	for i := range events {
		events[i] = []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
	}
	batch, err := e.MatchBatch(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(events) {
		t.Fatalf("results = %d", len(batch))
	}
	for i, ev := range events {
		ids, ops, err := e.Match(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ops != batch[i].Ops || len(ids) != len(batch[i].IDs) {
			t.Fatalf("event %d: batch %+v vs sequential %v/%d", i, batch[i], ids, ops)
		}
		for j := range ids {
			if ids[j] != batch[i].IDs[j] {
				t.Fatalf("event %d: match sets differ", i)
			}
		}
	}
	// Empty inputs and empty engines behave.
	if out, err := e.MatchBatch(nil, 4); err != nil || out != nil {
		t.Errorf("empty batch: %v %v", out, err)
	}
	empty := NewEngine(s, Config{})
	out, err := empty.MatchBatch(events[:3], 2)
	if err != nil || len(out) != 3 || out[0].IDs != nil {
		t.Errorf("empty engine batch: %v %v", out, err)
	}
}

// TestAggregatedRemoveCoalesces: the edit budget counts the automaton edits of
// unsubscribes too, and the one that spends it pays the coalescing rebuild
// itself. Every add here indexes a new root and every remove tombstones it,
// so adds land on odd edits and removes on even ones, and the 128-edit floor
// of coalesceThreshold falls on a remove.
func TestAggregatedRemoveCoalesces(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	if err := e.AddProfile(predicate.MustParse(s, "keep", "profile(x = 1)")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Match([]float64{1, 0}); err != nil { // publish a tree to patch
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if e.edits != 2*i {
			t.Fatalf("pair %d starts at %d edits, want %d", i, e.edits, 2*i)
		}
		if err := e.AddProfile(predicate.MustParse(s, "tmp", fmt.Sprintf("profile(y = %d)", i))); err != nil {
			t.Fatal(err)
		}
		if err := e.RemoveProfile("tmp"); err != nil {
			t.Fatal(err)
		}
	}
	if e.edits != 0 {
		t.Fatalf("%d edits pending after the 128th, want a coalesced index", e.edits)
	}
	if ids, _, err := e.Match([]float64{1, 63}); err != nil || len(ids) != 1 || ids[0] != "keep" {
		t.Errorf("coalesced index matched %v, %v; want [keep]", ids, err)
	}
}

// TestCoalescingCountsAutomatonEdits: a subscriber joining or leaving a
// structure the poset already holds touches neither the automaton nor the
// node table, so no number of them may trigger a rebuild; the budget of
// 2 x nodes (at least 128) is spent by index edits only, and spending it
// rebuilds exactly once.
func TestCoalescingCountsAutomatonEdits(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	for i := 0; i < 100; i++ {
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%d", i)), fmt.Sprintf("profile(x = %d)", i))); err != nil {
			t.Fatal(err)
		}
	}
	built := e.Tree()
	if built == nil {
		t.Fatal("no tree built")
	}
	for i := 0; i < 1000; i++ {
		// Spelled differently each time, interned onto the same node.
		twin := predicate.MustParse(s, "twin", fmt.Sprintf("profile(x in [%d,%d])", i%100, i%100))
		if err := e.AddProfile(twin); err != nil {
			t.Fatal(err)
		}
		if ids, _, err := e.Match([]float64{float64(i % 100), 0}); err != nil || len(ids) != 2 {
			t.Fatalf("pair %d: matched %v, %v; want the root and its twin", i, ids, err)
		}
		if err := e.RemoveProfile(twin.ID); err != nil {
			t.Fatal(err)
		}
	}
	if e.Tree() != built || e.edits != 0 {
		t.Fatalf("1000 interning hits rebuilt the tree (%v) or spent %d edits", e.Tree() != built, e.edits)
	}

	// 100 nodes: the budget is 200 root edits. Each pair below spends two.
	rebuilds, last := 0, built
	for i := 0; i < 100; i++ {
		if err := e.AddProfile(predicate.MustParse(s, "tmp", fmt.Sprintf("profile(y = %d)", i))); err != nil {
			t.Fatal(err)
		}
		if err := e.RemoveProfile("tmp"); err != nil {
			t.Fatal(err)
		}
		// A rebuilt tree has no tombstones; every patched successor since
		// the first edit carries some.
		if now := e.Tree(); now != last && !now.HasDead() {
			rebuilds++
		}
		last = e.Tree()
	}
	if rebuilds != 1 || e.edits != 0 {
		t.Fatalf("200 root edits on 100 nodes rebuilt %d times and left %d edits, want one rebuild on the 200th", rebuilds, e.edits)
	}
}

// TestCoveredChurnStaysBounded: distinct structures that come and go beneath
// a coverer never edit the automaton, but each leaves a hole in the poset's
// node table that only a rebuild's Compact reclaims. They are charged to the
// edit budget, so the table — and with it the published image, every Add's
// link scan and the expansion's mark array — stays proportional to the live
// nodes however long the churn runs.
func TestCoveredChurnStaysBounded(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	if err := e.AddProfile(predicate.MustParse(s, "wide", "profile(x in [0,100])")); err != nil {
		t.Fatal(err)
	}
	built := e.Tree()
	const pairs = 2000
	rebuilds, last := 0, built
	for i := 0; i < pairs; i++ {
		// A different structure each time: [lo, lo+1] for 2000 distinct lo.
		lo := float64(i) * 0.04
		p := predicate.MustParse(s, "covered", fmt.Sprintf("profile(x in [%g,%g])", lo, lo+1))
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		if ids, _, err := e.Match([]float64{lo + 0.5, 0}); err != nil || len(ids) != 2 {
			t.Fatalf("pair %d: matched %v, %v; want the coverer and the covered node", i, ids, err)
		}
		if err := e.RemoveProfile(p.ID); err != nil {
			t.Fatal(err)
		}
		// At most 2 live nodes: the budget is 128 edits, so the table never
		// holds more than 2 + 128 slots (3 chunks of 64).
		if slots := e.snap.Load().expand.Slots(); slots > 192 {
			t.Fatalf("pair %d: the published image spans %d node slots for %d live nodes", i, slots, e.agg.NodeCount())
		}
		if now := e.Tree(); now != last {
			rebuilds++
			last = now
		}
	}
	// Two edits a pair against a budget of 128: one rebuild every 64 pairs.
	if want := pairs * 2 / 128; rebuilds != want {
		t.Fatalf("%d covered pairs rebuilt %d times, want %d", pairs, rebuilds, want)
	}
	if st := e.AggStats(); st.Nodes != 1 || st.Roots != 1 || st.Subscriptions != 1 {
		t.Fatalf("after the churn: %+v, want the one wide root", st)
	}
}

// TestMatchAllocatesOnce: the expansion sizes its result by the subscriptions
// the walk accepted, not by the roots the tree matched, so a root shared by
// several subscribers with a covered node beneath it costs one allocation —
// the id slice — not one per doubling.
func TestMatchAllocatesOnce(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	for i := 0; i < 5; i++ {
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("m%d", i)), "profile(x in [10,20])")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("c%d", i)), "profile(x in [12,18]; y <= 50)")); err != nil {
			t.Fatal(err)
		}
	}
	ev := []float64{15, 5}
	if ids, _, err := e.Match(ev); err != nil || len(ids) != 8 {
		t.Fatalf("matched %v, %v; want all 8 subscriptions", ids, err)
	}
	if st := e.AggStats(); st.Roots != 1 || st.Nodes != 2 {
		t.Fatalf("index shape %+v, want one root over one covered node", st)
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _, _ = e.Match(ev) }); allocs != 1 {
		t.Errorf("Match allocated %.1f times per event, want exactly 1", allocs)
	}
}
