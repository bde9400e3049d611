package genas

// One benchmark per table and figure of the paper's evaluation (§4.3), the
// §5 outlook sweeps and two ablations, plus the one multi-publisher
// measurement. The figure benchmarks report the paper's metric — average
// comparison operations per event — via b.ReportMetric; cmd/reproduce prints
// the same data as full tables, pinned by its testdata goldens. Per-layer
// timings are bench/'s ladder, not benchmarks here.

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/experiments"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

const benchSeed = 1

// reportSeries publishes every cell of a figure as a named metric.
func reportSeries(b *testing.B, tab experiments.Table) {
	b.Helper()
	for _, s := range tab.Series {
		sum := 0.0
		for _, v := range s.Values {
			sum += v
		}
		b.ReportMetric(sum/float64(len(s.Values)), "ops/event:"+sanitize(s.Label))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '*':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig4a regenerates Fig. 4(a): value reordering by Measure V1 vs
// natural order vs binary search (scenario TV4).
func BenchmarkFig4a(b *testing.B) {
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Fig4a(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, tab)
}

// BenchmarkFig4b regenerates Fig. 4(b): Measures V1–V3 vs binary search.
func BenchmarkFig4b(b *testing.B) {
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Fig4b(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, tab)
}

// BenchmarkFig5a/b/c regenerate Fig. 5: operations per event, per profile,
// and per event and profile.
func BenchmarkFig5a(b *testing.B) {
	benchFigure(b, experiments.Fig5a)
}

func BenchmarkFig5b(b *testing.B) {
	benchFigure(b, experiments.Fig5b)
}

func BenchmarkFig5c(b *testing.B) {
	benchFigure(b, experiments.Fig5c)
}

// BenchmarkFig6a regenerates Fig. 6(a): attribute reordering with wide
// selectivity differences (TA1).
func BenchmarkFig6a(b *testing.B) {
	benchFigure(b, experiments.Fig6a)
}

// BenchmarkFig6b regenerates Fig. 6(b): small selectivity differences (TA2).
func BenchmarkFig6b(b *testing.B) {
	benchFigure(b, experiments.Fig6b)
}

func benchFigure(b *testing.B, f func(int64) (experiments.Table, error)) {
	b.Helper()
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = f(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, tab)
}

// BenchmarkTV1 measures scenario TV1: tree creation over 10,000 profiles
// plus events until 95% precision.
func BenchmarkTV1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TV1(3, 10000, "95% low", "equal", "event", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanOps, "ops/event")
		b.ReportMetric(float64(r.BuildTime.Milliseconds()), "build-ms")
	}
}

// BenchmarkTV2 measures scenario TV2 (prebuilt tree, precision stop).
func BenchmarkTV2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TV2(3, 10000, "95% low", "equal", "event", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanOps, "ops/event")
	}
}

// BenchmarkTV3 measures scenario TV3 (one attribute, 4,000 events).
func BenchmarkTV3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TV3(2000, "95% low", "equal", "event", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanOps, "ops/event")
	}
}

// BenchmarkTV4 measures scenario TV4 (analytic, Eq. 2).
func BenchmarkTV4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TV4(2000, "95% low", "equal", "event", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanOps, "ops/event")
	}
}

// --- Ablations --------------------------------------------------------------------

// BenchmarkAblationValueOrder contrasts the 8 orderings + binary on one
// peaked workload (the paper's "8 different orderings plus binary search").
func BenchmarkAblationValueOrder(b *testing.B) {
	for _, order := range []string{
		"natural", "event", "profile", "event*profile", "binary",
	} {
		b.Run(sanitize(order), func(b *testing.B) {
			var ops float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.TV4(2000, "95% low", "95% low", order, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				ops = r.MeanOps
			}
			b.ReportMetric(ops, "ops/event")
		})
	}
}

// BenchmarkAblationAdaptive contrasts a static natural-order service with
// the adaptive one under a drifting peaked stream (end-to-end broker path).
func BenchmarkAblationAdaptive(b *testing.B) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 99)))
	rng := rand.New(rand.NewSource(benchSeed))
	mk := func(opts ...Option) *Service {
		svc, err := NewService(sch, opts...)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			expr := fmt.Sprintf("profile(v = %d)", rng.Intn(100))
			if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), expr); err != nil {
				b.Fatal(err)
			}
		}
		return svc
	}
	ed := dist.New(dist.PeakHigh(0.95), sch.At(0).Domain)
	run := func(b *testing.B, svc *Service) {
		defer svc.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Publish(map[string]float64{"v": ed.Sample(rng)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(svc.Stats().MeanOps, "ops/event")
	}
	b.Run("static", func(b *testing.B) { run(b, mk()) })
	b.Run("adaptive", func(b *testing.B) { run(b, mk(WithAdaptivePolicy(512, 0.05, false))) })
}

// BenchmarkExtensionDontCare regenerates the don't-care-edge influence sweep
// (paper §5 outlook).
func BenchmarkExtensionDontCare(b *testing.B) {
	benchFigure(b, experiments.DontCareSweep)
}

// BenchmarkExtensionOperators regenerates the operator-family sweep (paper
// §5 outlook).
func BenchmarkExtensionOperators(b *testing.B) {
	benchFigure(b, experiments.OperatorSweep)
}

// BenchmarkExtensionSearch regenerates the search comparison: the five scans
// (paper §5 outlook: binary-, interpolation-, or hash-based search) and the
// probe tree.
func BenchmarkExtensionSearch(b *testing.B) {
	benchFigure(b, experiments.SearchSweep)
}

// publishWorkload builds a service with p equality profiles over an integer
// domain and a prebuilt uniform event stream: the uniform-stream workload of
// the sharding evaluation. Roughly p/100 profiles match every event, so the
// delivery and accounting path is exercised at a realistic rate.
func publishWorkload(b *testing.B, p int, opts ...Option) (*Service, []Event) {
	b.Helper()
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 99)))
	svc, err := NewService(sch, opts...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	for i := 0; i < p; i++ {
		expr := fmt.Sprintf("profile(v = %d)", rng.Intn(100))
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), expr); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]Event, 8192)
	for i := range events {
		ev, err := svc.Event(map[string]float64{"v": float64(rng.Intn(100))})
		if err != nil {
			b.Fatal(err)
		}
		events[i] = ev
	}
	return svc, events
}

// BenchmarkPublishParallel measures concurrent publish throughput on the
// uniform-stream workload: GOMAXPROCS publishers against the single-shard
// engine and the GOMAXPROCS-way sharded engine. Only the matcher differs:
// both deliver through one subscription table and record on one operation
// account. It is the repository's only multi-publisher measurement. Setup
// verifies per-event match counts against the sequential single-tree oracle
// before timing starts.
func BenchmarkPublishParallel(b *testing.B) {
	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			svc, events := publishWorkload(b, 2000, WithShards(shards))
			defer svc.Close()
			oracle, _ := publishWorkload(b, 2000, WithShards(1))
			defer oracle.Close()
			for _, ev := range events[:256] {
				want, err := oracle.PublishEvent(ev)
				if err != nil {
					b.Fatal(err)
				}
				got, err := svc.PublishEvent(ev)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("sharded matched %d, sequential oracle %d", got, want)
				}
			}
			// One atomic per publisher goroutine (not per event): a shared
			// per-op counter would itself bounce a cache line and damp the
			// very contention difference being measured.
			var worker atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(worker.Add(1)) * 7919 // distinct stride start per publisher
				for pb.Next() {
					ev := events[i%len(events)]
					i++
					if _, err := svc.PublishEvent(ev); err != nil {
						b.Error(err) // Fatal must not be called off the benchmark goroutine
						return
					}
				}
			})
			b.StopTimer()
			st := svc.Stats()
			b.ReportMetric(float64(st.Delivered+st.Dropped)/float64(st.Published), "notifs/event")
		})
	}
}

// mallocs returns how many heap objects n calls of f allocate in total: the
// fewest of three rounds after one warm-up call, because Mallocs also counts
// what goroutines an earlier test left winding down allocate meanwhile.
// testing.AllocsPerRun truncates its mean to a whole number, which would hide
// an amortized cost below one object per call.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// blockAllocs is the amortized ceiling on the values copies of n matched
// events of arity values each: the broker carves them from 128-value blocks,
// and 2 more cover a publish scratch the collector took from the pool.
func blockAllocs(n, arity int) uint64 { return uint64((n*arity+127)/128 + 2) }

// TestPublishPathAllocations pins what every in-process publish entry point
// allocates: nothing for an event that matches no profile, and for matching
// events only their share of the broker's values blocks. No map, event value
// or caller-side copy is built per event; PublishBatch adds its one counts
// slice per batch.
func TestPublishPathAllocations(t *testing.T) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 999)))
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 100; i++ {
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), fmt.Sprintf("profile(v = %d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	eb, vals, m := svc.NewEvent(), []float64{0}, map[string]float64{"v": 0}
	evs := make([]Event, 8)
	for i := range evs {
		evs[i].Vals = []float64{0}
	}
	cases := []struct {
		name    string
		perCall int // events one call publishes
		publish func(v float64) (int, error)
	}{
		{"PublishValues", 1, func(v float64) (int, error) { vals[0] = v; return svc.PublishValues(vals...) }},
		{"Publish(map)", 1, func(v float64) (int, error) { m["v"] = v; return svc.Publish(m) }},
		{"PublishEvent", 1, func(v float64) (int, error) { vals[0] = v; return svc.PublishEvent(Event{Vals: vals}) }},
		{"EventBuilder", 1, func(v float64) (int, error) { return eb.Set("v", v).Publish() }},
		{"EventBuilder.At", 1, func(v float64) (int, error) { return eb.Set("v", v).At(time.Unix(7, 0)).Publish() }},
		{"PublishBatch", len(evs), func(v float64) (int, error) {
			for i := range evs {
				evs[i].Vals[0] = v
			}
			counts, err := svc.PublishBatch(evs)
			return counts[0], err
		}},
	}
	const events = 4096
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := events / c.perCall
			perBatch := uint64(0)
			if c.perCall > 1 {
				perBatch = uint64(calls) // the counts
			}
			for v, want := range map[float64]int{999: 0, 42: 1} {
				if n, err := c.publish(v); err != nil || n != want {
					t.Fatalf("publish(v=%g) = %d, %v; want %d matches", v, n, err, want)
				}
			}
			miss := mallocs(calls, func() { _, _ = c.publish(999) })
			hit := mallocs(calls, func() { _, _ = c.publish(42) })
			// -race instruments allocation and drops pooled buffers, so it
			// keeps only a loose ceiling.
			if raceEnabled {
				if limit := perBatch + 3*events; miss > limit || hit > limit {
					t.Errorf("%d events allocate %d objects missing, %d matching under -race, want <= %d", events, miss, hit, limit)
				}
				return
			}
			if miss != perBatch {
				t.Errorf("%d non-matching events allocate %d objects, want %d", events, miss, perBatch)
			}
			if limit := perBatch + blockAllocs(events, 1); hit > limit {
				t.Errorf("%d matching events allocate %d objects, want <= %d (their values blocks)", events, hit, limit)
			}
		})
	}
}

// TestDeliveryPathAllocations pins the delivery path's allocation behavior on
// an incrementally churned index: handler-driven subscribers receiving
// matching events cost only the events' share of the values blocks, and a
// subscribe/unsubscribe pair folded into the publish loop stays under the
// repository's one absolute churn ceiling, 100 allocations per event. That
// ceiling holds the incremental-index property: subscription churn patches
// the automaton and never rebuilds (and reallocates) it per operation — a
// full rebuild costs thousands of allocations and cannot hide under either
// bound. Allocation counts are machine-independent, so both gate exactly.
func TestDeliveryPathAllocations(t *testing.T) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 999)))
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var delivered atomic.Uint64
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("h%d", i)
		if _, err := svc.Subscribe(id, "profile(v <= 100)", SubHandler(func(Notification) {
			delivered.Add(1)
		})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), fmt.Sprintf("profile(v = %d)", 200+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Churn the corpus so the measured tree is the incrementally grown one
	// (patched-in and taken-out subtrees), not a pristine build.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("c%d", i)
		if _, err := svc.Subscribe(id, fmt.Sprintf("profile(v = %d)", 400+i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := svc.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	eb := svc.NewEvent()
	const events = 4096
	allocs := mallocs(events, func() {
		if _, err := eb.Set("v", 42).Publish(); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled && allocs > 8*events {
		t.Errorf("handler delivery on a churned index allocates %d objects per %d events under -race, want <= %d", allocs, events, 8*events)
	} else if limit := blockAllocs(events, 1); !raceEnabled && allocs > limit {
		t.Errorf("handler delivery on a churned index allocates %d objects per %d events, want <= %d (the values blocks)", allocs, events, limit)
	}

	// Active churn folded into the publish loop: one subscribe/unsubscribe
	// pair per published event. A per-operation rebuild would blow the
	// 100 allocs/event ceiling by orders of magnitude.
	churn := 0
	perOp := testing.AllocsPerRun(1000, func() {
		churn++
		id := fmt.Sprintf("x%d", churn)
		if _, err := svc.Subscribe(id, fmt.Sprintf("profile(v = %d)", 500+churn%400)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		if _, err := eb.Set("v", 42).Publish(); err != nil {
			t.Fatal(err)
		}
	})
	if perOp > 100 {
		t.Errorf("publish+churn allocates %.1f objects/op, want <= 100 (per-op rebuilds would be thousands)", perOp)
	}

	// The handlers really ran: every measured publish matched all four.
	deadline := 0
	for delivered.Load() == 0 && deadline < 1000 {
		deadline++
		runtime.Gosched()
	}
	if delivered.Load() == 0 {
		t.Error("handler subscribers never received a delivery")
	}
}

// rangeCorpus draws n narrow range profiles over two numeric attributes and an
// integer one — the shape of the benchmark's match-drift population.
func rangeCorpus(tb testing.TB, n int) (*schema.Schema, []*predicate.Profile) {
	tb.Helper()
	s, err := schema.ParseSpec("t=numeric[-30,50]; h=numeric[0,100]; f=int[0,39]")
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	out := make([]*predicate.Profile, n)
	for i := range out {
		t0, h0, f0 := -30+float64(rng.Intn(308))/4, float64(rng.Intn(95)), rng.Intn(37)
		out[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%05d", i)), fmt.Sprintf(
			"profile(t in [%g,%g]; h in [%g,%g]; f in [%d,%d])",
			t0, t0+1+float64(rng.Intn(9))/4, h0, h0+2+float64(rng.Intn(4)), f0, f0+rng.Intn(3)))
	}
	return s, out
}

// lineCopyAllocs is what the line copy of TestBuildAllocations mallocs on a
// 2-core x86-64 machine, whatever the tree's height: the Tree and its line;
// the renumbering, the copy's profile array and its table of old indices;
// the memos of nodes and leaf sets; and per slab (nodes, edges, ints,
// match-set table) one exact chunk and its page table.
const lineCopyAllocs = 15

// TestBuildAllocations is the allocation ceiling of the batch build: the
// automaton is carved from arena chunks, so tree.Build makes fewer than one
// malloc per four nodes (it made 60 per node when every node, edge list, bucket
// list, profile set, decomposition and memo key was an object of its own), a
// full rebuild — poset compaction, build, freeze — under twice that, and the
// copy that replaces a worn line of edited trees places one exact chunk per
// slab, so it is pinned at lineCopyAllocs. The benchmark's gate cannot see
// these counts: set-up builds once, and no churn op rebuilds or copies at
// --seconds 5. The race runtime allocates on its own account, so under -race
// the test only builds and logs.
func TestBuildAllocations(t *testing.T) {
	s, corpus := rangeCorpus(t, 2000)
	var nodes int
	build := testing.AllocsPerRun(3, func() {
		tr, err := tree.Build(s, corpus)
		if err != nil {
			t.Fatal(err)
		}
		nodes = tr.Stats().Nodes
	})
	e := core.NewEngine(s, core.Config{})
	for _, p := range corpus {
		if err := e.AddProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	rebuild := testing.AllocsPerRun(3, func() {
		if err := e.Rebuild(); err != nil {
			t.Fatal(err)
		}
	})
	edited, err := tree.Build(s, corpus[:1900])
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range corpus[1900:] {
		edited, _ = edited.WithProfile(p, tree.NaturalOrder())
		edited = edited.WithoutProfile(i)
	}
	copied := testing.AllocsPerRun(3, func() { edited.Copied() })
	t.Logf("%d nodes: tree.Build %.0f mallocs, Engine.Rebuild %.0f; a line copy of %d nodes %.0f",
		nodes, build, rebuild, edited.Stats().Nodes, copied)
	if limit := float64(nodes) / 4; !raceEnabled && (build > limit || rebuild > 2*limit || copied > lineCopyAllocs) {
		t.Errorf("tree.Build makes %.0f mallocs, Engine.Rebuild %.0f and a line copy %.0f for %d nodes, want at most %.0f, %.0f and %d",
			build, rebuild, copied, nodes, limit, 2*limit, lineCopyAllocs)
	}
}

// TestTreeRetainedBytes is the memory ceiling of the automaton: a node is a
// 24-byte record and an edge a 24-byte record — an interval and one int32
// target — in pointer-free slabs, and a built tree retains its node records,
// its edge records with a 4-byte probe-tree entry each, and every distinct
// leaf set once, an 8-byte table entry and 4 bytes per dense index — no
// bucket per piece, no profile set on an interior edge. Stats.Bytes is that
// storage, counted.
func TestTreeRetainedBytes(t *testing.T) {
	nodeRec, edgeRec := int(unsafe.Sizeof(tree.Node{})), int(unsafe.Sizeof(tree.Edge{}))
	if nodeRec != 24 {
		t.Errorf("a tree.Node record is %d bytes, want 24", nodeRec)
	}
	if edgeRec != 24 {
		t.Errorf("a tree.Edge record is %d bytes, want 24", edgeRec)
	}
	s, corpus := rangeCorpus(t, 2000)
	heap := func() int {
		runtime.GC()
		runtime.GC() // the second cycle empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int(m.HeapAlloc)
	}
	base := heap()
	tr, err := tree.Build(s, corpus)
	if err != nil {
		t.Fatal(err)
	}
	retained := heap() - base
	st := tr.Stats()
	last := s.N() - 1
	sets, entries := make(map[int32]bool), 0
	for _, id := range tr.Levels()[last] {
		for _, e := range tr.Node(last, id).Edges() {
			if !sets[e.To] {
				sets[e.To] = true
				entries += len(tr.Leaf(e.To))
			}
		}
	}
	limit := ((edgeRec+4)*st.Edges + nodeRec*st.Nodes + 8*len(sets) + 4*entries) * 105 / 100
	t.Logf("%d nodes, %d edges, %d entries in %d leaf sets: %d KB retained (limit %d KB), Stats.Bytes %d KB",
		st.Nodes, st.Edges, entries, len(sets), retained>>10, limit>>10, st.Bytes>>10)
	if retained > limit {
		t.Errorf("tree.Build retains %d bytes, want at most %d", retained, limit)
	}
	if st.Bytes < retained*9/10 || st.Bytes > retained*11/10 {
		t.Errorf("Stats.Bytes is %d, the heap retains %d: not within 10 %%", st.Bytes, retained)
	}
	runtime.KeepAlive(tr)
}

// buildScaleFull adds the third size of TestBuildScale.
var buildScaleFull = flag.Bool("buildscale-full", false, "TestBuildScale also builds 1 000 structures (5 s on two cores, 11 s on one; 0.9 GB allocated)")

// TestBuildScale builds distinct structures of the shape that walled the batch
// build at PR 9 (250 / 500 / 1 000 of them in 5 s, 25 s and 280 s then; the load
// generator that drew it is gone, this is its rule): on the four-attribute
// schema every attribute is constrained seven times in ten, by a range of
// 5–15 % of its domain around a uniform centre, so don't-cares multiply the
// states level by level. Riders are parked once per node: 250 / 500 / 1 000
// structures are 27 384 / 124 797 / 482 867 nodes (≈ 643 600 for 1 000 when
// every rider rode each edge below it). Two workers (GOMAXPROCS=2) build 250
// in 0.12 s (0.25 s on one worker) and 500 in under 5 s (0.8–0.95 s measured,
// 1.6 s on one worker, 11.2 s before the rank sweep) into 56 MB of automaton,
// which the test logs from Stats().Bytes beside what the build allocated.
// 1 000 are 4.4 M edges: 231 MB of automaton for 940 MB allocated (785 MB on
// one worker) and 4.5–5.5 s of sweeping, memoising and laying out (11.3 s on
// one worker), so still only on request. The race runtime slows the build several
// times over, so under -race the test only builds and logs.
func TestBuildScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second builds")
	}
	s, err := schema.ParseSpec("temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,12]; severity=cat{low,mid,high}")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	corpus := make([]*predicate.Profile, 0, 1000)
	for len(corpus) < cap(corpus) {
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
	sizes := []int{250, 500}
	if *buildScaleFull {
		sizes = append(sizes, 1000)
	}
	for _, n := range sizes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		tr, err := tree.Build(s, corpus[:n])
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		st := tr.Stats()
		t.Logf("%d distinct structures: %d nodes, %d edges, %d MB of automaton in %v, %d MB allocated",
			n, st.Nodes, st.Edges, st.Bytes>>20, took.Round(time.Millisecond), (after.TotalAlloc-before.TotalAlloc)>>20)
		if n == 500 && took > 5*time.Second && !raceEnabled {
			t.Errorf("500 distinct structures took %v to build, want under 5 s", took)
		}
	}
}
