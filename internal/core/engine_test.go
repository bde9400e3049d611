package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"genas/internal/agg"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
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
	if e.AggStats().Subscriptions != 1 {
		t.Errorf("count = %d", e.AggStats().Subscriptions)
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
}

// TestEngineMeasuresChangeOrder: switching from uniform weights to a peaked
// P_e (Measure V1) lowers the analytic cost under that distribution where the
// weights lay a probe tree out: on a corpus whose nodes stay narrower than the
// width from which a node is searched by interpolation. On a wider corpus the
// interpolation search, which no weights change, costs no more than the
// weighted probe tree did after the switch (1.749 operations per event).
func TestEngineMeasuresChangeOrder(t *testing.T) {
	s := testSchema(t)
	eds := []dist.Dist{
		dist.New(dist.PeakHigh(0.95), s.At(0).Domain),
		dist.New(dist.UniformShape{}, s.At(1).Domain),
	}
	measure := func(profiles int) (uniform, v1 float64, rootEdges int) {
		e := NewEngine(s, Config{})
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < profiles; i++ {
			expr := fmt.Sprintf("profile(x = %d)", rng.Intn(100))
			if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr)); err != nil {
				t.Fatal(err)
			}
		}
		aUniform := selectivity.Analyze(e.Tree(), eds, selectivity.Probe)
		e.SetConfig(Config{EventDists: eds})
		if _, _, err := e.Reorder(); err != nil {
			t.Fatal(err)
		}
		aV1, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return aUniform.TotalOps, aV1.TotalOps, len(e.Tree().Root().Edges())
	}
	const wideV1 = 1.749 // the 40-profile corpus's V1 cost under weighted probe trees alone
	uniform, v1, edges := measure(40)
	t.Logf("40 profiles, %d root edges: V1 %.3f, uniform weights %.3f", edges, v1, uniform)
	if v1 > wideV1 || v1 > uniform {
		t.Errorf("40 profiles: V1 %.3f, uniform weights %.3f: want at most %.3f and no more than uniform", v1, uniform, wideV1)
	}
	uniform, v1, edges = measure(10)
	t.Logf("10 profiles, %d root edges: V1 %.3f, uniform weights %.3f", edges, v1, uniform)
	if edges >= 16 {
		t.Fatalf("10 profiles: the root has %d edges, want a narrow node", edges)
	}
	if v1 >= uniform {
		t.Errorf("10 profiles: V1 %.3f must beat uniform weights %.3f on peaked events", v1, uniform)
	}
}

// TestEngineAttrOrderings: A1/A2/A3 orderings produce valid trees matching
// the same events.
func TestEngineAttrOrderings(t *testing.T) {
	s := testSchema(t)
	for _, ord := range []AttrOrdering{AttrNatural, AttrA1, AttrA2, AttrA3} {
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

// TestEngineReorderKeepsSemantics: Reorder after new event distributions changes costs
// but never match results.
func TestEngineReorderKeepsSemantics(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
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
	e.SetConfig(Config{EventDists: []dist.Dist{
		dist.New(dist.PeakLow(0.9), s.At(0).Domain),
		dist.New(dist.PeakHigh(0.9), s.At(1).Domain),
	}})
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
	if cfg.AttrOrdering != AttrNatural || cfg.EventDists != nil {
		t.Errorf("defaults = %+v", cfg)
	}
	// SetConfig with zero fields keeps previous values.
	e.SetConfig(Config{EventDists: uniformDists(s)})
	cfg = e.Config()
	if cfg.AttrOrdering != AttrNatural || cfg.EventDists == nil {
		t.Errorf("after SetConfig = %+v", cfg)
	}
}

func TestMeasureStrings(t *testing.T) {
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

// TestInterningHitsTouchNoAutomaton: a subscriber joining or leaving a
// structure the poset already holds touches neither an automaton nor the
// node table, so no number of them copies a line or rebuilds.
func TestInterningHitsTouchNoAutomaton(t *testing.T) {
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
	if e.Tree() != built || e.copies != 0 {
		t.Fatalf("1000 interning hits replaced the tree (%v) or copied %d lines", e.Tree() != built, e.copies)
	}
}

// TestChurnNeverRebuilds: 20 000 edits of distinct churn-mixed-shaped
// structures, each an insert or the removal of a random live one, on a
// 1 000-structure engine of two automata run no rebuild — no edit leaves the
// snapshot stale, the only way a churn op can lead to one — and stay bounded by
// the index, not by the history: after every edit the poset's node table
// spans at most the peak live node count, and each automaton's slot table
// and profile array at most twice its live roots. They cross line copies.
func TestChurnNeverRebuilds(t *testing.T) {
	edits := 20000
	if raceEnabled { // an edit runs about ten times slower
		edits = 2000
	}
	s := editSchema(t)
	rng := rand.New(rand.NewSource(3))
	seen := make(map[string]bool)
	next := 0
	profile := func() *predicate.Profile {
		for {
			if text := editProfile(rng); !seen[text] {
				seen[text] = true
				next++
				return predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", next)), text)
			}
		}
	}
	e := NewSharded(s, Config{}, 2)
	var live []predicate.ID
	for range 1000 {
		p := profile()
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		live = append(live, p.ID)
	}
	if _, _, err := e.Match([]float64{10, 50, 5, 0}); err != nil {
		t.Fatal(err)
	}
	peak := e.agg.Stats().Nodes
	for i := range edits {
		if rng.Intn(2) == 0 || len(live) < 900 {
			p := profile()
			if err := e.AddProfile(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p.ID)
		} else {
			k := rng.Intn(len(live))
			if err := e.RemoveProfile(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		peak = max(peak, e.agg.Stats().Nodes)
		snap := e.snap.Load()
		if snap.parts == nil {
			t.Fatalf("edit %d rebuilt the index", i)
		}
		if slots := snap.expand.Slots(); len(e.nodeTree) > peak || slots > (peak+63)/64*64 {
			t.Fatalf("edit %d: %d live nodes at the peak, but the slot map spans %d nodes and the image %d", i, peak, len(e.nodeTree), slots)
		}
		roots := make([]int, e.n)
		for ni, slot := range e.nodeTree {
			if slot >= 0 {
				roots[ni%e.n]++
			}
		}
		for j, p := range snap.parts {
			if len(p.t2n) > 2*roots[j] || len(p.tree.Profiles()) != len(p.t2n) {
				t.Fatalf("edit %d: automaton %d lists %d slots and %d profiles for %d live roots", i, j, len(p.t2n), len(p.tree.Profiles()), roots[j])
			}
		}
	}
	t.Logf("%d edits crossed %d line copies; the node table peaked at %d live nodes", edits, e.copies, peak)
	if e.copies == 0 && !raceEnabled {
		t.Errorf("%d edits crossed no line copy", edits)
	}
	checkShares(t, e)
}

// TestReorderOnlyCopiesWornLines: an engine that only reorders never churns,
// yet a reorder above the last level adds its copies to an automaton's line
// as an edit does, so Reorder swaps an automaton whose line it wore for its
// copy. 2 000 reorders of 1 000 churn-mixed-shaped structures on two
// automata, each of one attribute tested above the last level: after each,
// no automaton's line holds more than lineFactor times the bytes it started
// from (none is Worn), and after each copy the engine matches a sample of
// events as the profiles do.
func TestReorderOnlyCopiesWornLines(t *testing.T) {
	reorders := 2000
	if raceEnabled { // a reorder runs about ten times slower
		reorders = 200
	}
	s := editSchema(t)
	rng := rand.New(rand.NewSource(5))
	e := NewSharded(s, Config{}, 2)
	seen := make(map[string]bool)
	var profiles []*predicate.Profile
	for len(profiles) < 1000 {
		text := editProfile(rng)
		if seen[text] {
			continue
		}
		seen[text] = true
		p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", len(profiles))), text)
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	events := make([][]float64, 200)
	for i := range events {
		events[i] = make([]float64, s.N())
		for attr := range events[i] {
			dom := s.At(attr).Domain
			events[i][attr] = dom.Lo() + rng.Float64()*(dom.Hi()-dom.Lo())
			if dom.Kind() != schema.KindNumeric {
				events[i][attr] = dom.Lo() + float64(rng.Intn(int(dom.Hi()-dom.Lo())+1))
			}
		}
	}
	if _, _, err := e.Match(events[0]); err != nil {
		t.Fatal(err)
	}
	order := e.snap.Load().parts[0].tree.AttrOrder()
	for i := range reorders {
		copies := e.copies
		if _, _, err := e.Reorder(order[rng.Intn(len(order)-1)]); err != nil {
			t.Fatal(err)
		}
		for j, p := range e.snap.Load().parts {
			if p.tree.Worn() {
				t.Fatalf("reorder %d left automaton %d worn: its line outgrew lineFactor times the bytes it started from", i, j)
			}
		}
		if e.copies == copies {
			continue
		}
		for _, vals := range events {
			got, _, err := e.Match(vals)
			if err != nil {
				t.Fatal(err)
			}
			var want []predicate.ID
			for _, p := range profiles {
				if p.Matches(vals) {
					want = append(want, p.ID)
				}
			}
			if g, w := sortedIDs(got), sortedIDs(want); !slices.Equal(g, w) {
				t.Fatalf("reorder %d, after a line copy: event %v matches %v, the profiles %v", i, vals, g, w)
			}
		}
	}
	t.Logf("%d reorders crossed %d line copies", reorders, e.copies)
	if e.copies == 0 && !raceEnabled {
		t.Errorf("%d reorders crossed no line copy", reorders)
	}
	checkShares(t, e)
}

// TestPatchRecoversFromDesync: a churn op that finds the engine's slot
// tables out of step with the poset publishes the stale state instead of
// editing an automaton blind, and the next match rebuilds to the match set
// the profiles themselves give. First nodeTree forgets a root, which then
// leaves; then every automaton's t2n lists one slot too many when a root
// joins.
func TestPatchRecoversFromDesync(t *testing.T) {
	s := testSchema(t)
	e := NewSharded(s, Config{}, 2)
	live := make(map[predicate.ID]*predicate.Profile)
	add := func(i int) {
		t.Helper()
		p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), fmt.Sprintf("profile(x in [%d,%d]; y = %d)", i, i+10, i))
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
		live[p.ID] = p
	}
	rebuildsToProfiles := func(what string) {
		t.Helper()
		if e.snap.Load().parts != nil {
			t.Fatalf("%s: the engine published a patched state", what)
		}
		for x := range 100 {
			vals := []float64{float64(x), float64(x % 20)}
			got, _, err := e.Match(vals)
			if err != nil {
				t.Fatal(err)
			}
			var want []predicate.ID
			for id, p := range live {
				if p.Matches(vals) {
					want = append(want, id)
				}
			}
			if fmt.Sprint(sortedIDs(got)) != fmt.Sprint(sortedIDs(want)) {
				t.Fatalf("%s: event %v matches %v, the profiles %v", what, vals, got, want)
			}
		}
		checkShares(t, e)
	}
	for i := range 20 {
		add(i)
	}
	if _, _, err := e.Match([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}

	e.nodeTree = nil
	if err := e.RemoveProfile("p3"); err != nil {
		t.Fatal(err)
	}
	delete(live, "p3")
	rebuildsToProfiles("a root without a slot left")

	for i := range e.snap.Load().parts {
		p := &e.snap.Load().parts[i]
		p.t2n = append(slices.Clip(p.t2n), -1)
	}
	add(20)
	rebuildsToProfiles("a root joined a slot table out of step")
}

// TestCoveredChurnStaysBounded: distinct structures that come and go beneath
// a coverer never edit the automaton, and each takes over the node index the
// last one freed, so the poset's table — and with it the published image,
// every Add's link scan and the expansion's mark array — stays at the peak
// live node count however long the churn runs, without a rebuild.
func TestCoveredChurnStaysBounded(t *testing.T) {
	s := testSchema(t)
	e := NewEngine(s, Config{})
	if err := e.AddProfile(predicate.MustParse(s, "wide", "profile(x in [0,100])")); err != nil {
		t.Fatal(err)
	}
	built := e.Tree()
	const pairs = 2000
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
		// At most 2 live nodes: one chunk of 64 slots.
		if slots := e.snap.Load().expand.Slots(); slots > 64 || len(e.nodeTree) > 2 {
			t.Fatalf("pair %d: the published image spans %d node slots and the slot map %d for %d live nodes", i, slots, len(e.nodeTree), e.agg.Stats().Nodes)
		}
	}
	if e.Tree() != built {
		t.Fatal("covered churn replaced the automaton")
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
	allocs := testing.AllocsPerRun(200, func() { _, _, _ = e.Match(ev) })
	switch {
	case raceEnabled:
		t.Logf("Match allocated %.1f times per event; the race detector drops pooled expansion scratch, so the pin is off", allocs)
	case allocs != 1:
		t.Errorf("Match allocated %.1f times per event, want exactly 1", allocs)
	}
}

// TestMatchAppendAppends: MatchAppend keeps what dst held, appends this
// event's members after it, and accounts the event with the operations it
// spent; an empty engine hands dst back untouched and accounts nothing.
func TestMatchAppendAppends(t *testing.T) {
	s := testSchema(t)
	for _, f := range []*Engine{NewEngine(s, Config{}), NewSharded(s, Config{}, 2)} {
		dst := []Member{agg.Bare(&predicate.Profile{ID: "held"})}
		if got, ops, err := f.MatchAppend([]float64{15, 5}, dst); err != nil || len(got) != 1 || got[0] != dst[0] || ops != 0 {
			t.Fatalf("%d automata: empty engine MatchAppend = %v, %d, %v; want dst back", f.n, got, ops, err)
		}
		for i := 0; i < 3; i++ {
			if err := f.Add(agg.Bare(predicate.MustParse(s, predicate.ID(fmt.Sprintf("m%d", i)), "profile(x in [10,20])"))); err != nil {
				t.Fatal(err)
			}
		}
		got, ops, err := f.MatchAppend([]float64{15, 5}, dst)
		if err != nil || len(got) != 4 || got[0] != dst[0] {
			t.Fatalf("%d automata: MatchAppend = %v, %v; want held then three members", f.n, got, err)
		}
		if acc := f.Account(); acc.Events != 1 || acc.Ops != uint64(ops) || ops == 0 {
			t.Errorf("%d automata: accounted %+v, want 1 event with %d ops", f.n, acc, ops)
		}
	}
}

// TestMembersKeepTheirOwnProfiles: over the domain [0,50], x in [0,50] and
// x <= 50 are one structure and share one canonical node, yet the listing
// returns each subscriber's own profile — its spelling and its priority —
// not the structure's first spelling.
func TestMembersKeepTheirOwnProfiles(t *testing.T) {
	dom, _ := schema.NewIntegerDomain(0, 50)
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: dom})
	for _, f := range []*Engine{NewEngine(s, Config{}), NewSharded(s, Config{}, 2)} {
		a := predicate.MustParse(s, "a", "profile(x in [0,50])")
		b := predicate.MustParse(s, "b", "profile(x <= 50)")
		a.Priority, b.Priority = 2, 5
		for _, p := range []*predicate.Profile{a, b} {
			if err := f.Add(agg.Bare(p)); err != nil {
				t.Fatal(err)
			}
		}
		if n := f.AggStats().Nodes; n != 1 {
			t.Fatalf("the two spellings make %d canonical nodes, want 1", n)
		}
		listed := make(map[predicate.ID]*predicate.Profile)
		for _, m := range f.Members() {
			listed[m.Profile().ID] = m.Profile()
		}
		for _, want := range []struct {
			p    *predicate.Profile
			expr string
		}{{a, "profile(x in [0,50])"}, {b, "profile(x <= 50)"}} {
			got := listed[want.p.ID]
			if got == nil || got.Render(s) != want.expr || got.Priority != want.p.Priority {
				t.Errorf("%d automata list %s as %v, want %s with priority %g", f.n, want.p.ID, got, want.expr, want.p.Priority)
			}
		}
	}
}
