package genas

// One benchmark per table and figure of the paper's evaluation (§4.3), plus
// the ablations called out in DESIGN.md §4. The figure benchmarks report the
// paper's metric — average comparison operations per event — via
// b.ReportMetric, so `go test -bench` regenerates the numbers EXPERIMENTS.md
// records; cmd/reproduce prints the same data as full tables.

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/event"
	"genas/internal/experiments"
	"genas/internal/matchers"
	"genas/internal/predicate"
	"genas/internal/routing"
	"genas/internal/schema"
	"genas/internal/selectivity"
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

// --- Ablations (DESIGN.md §4) ---------------------------------------------------

// benchWorkload builds a shared matching workload: p equality profiles over
// a peaked profile distribution, events from a peaked event distribution.
func benchWorkload(p int) (*schema.Schema, []*predicate.Profile, []dist.Dist, [][]float64) {
	s := experiments.Schema1D()
	rng := rand.New(rand.NewSource(benchSeed))
	pd := dist.New(dist.PeakLow(0.8), s.At(0).Domain)
	ed := []dist.Dist{dist.New(dist.PeakLow(0.9), s.At(0).Domain)}
	profiles := experiments.GenProfiles1D(s, p, pd, rng)
	events := make([][]float64, 4096)
	for i := range events {
		events[i] = []float64{ed[0].Sample(rng)}
	}
	return s, profiles, ed, events
}

// BenchmarkAblationNodeSearch contrasts the three within-node strategies on
// the same ordered tree: linear with early termination, linear without, and
// binary search.
func BenchmarkAblationNodeSearch(b *testing.B) {
	s, profiles, ed, events := benchWorkload(2000)
	for _, strategy := range []tree.Search{tree.SearchLinear, tree.SearchLinearNoStop, tree.SearchBinary, tree.SearchInterpolation, tree.SearchHash} {
		b.Run(strategy.String(), func(b *testing.B) {
			tr, err := tree.Build(s, profiles, tree.WithSearch(strategy))
			if err != nil {
				b.Fatal(err)
			}
			tr.ApplyValueOrder(selectivity.V1(ed, true))
			b.ResetTimer()
			ops := 0
			for i := 0; i < b.N; i++ {
				_, o := tr.Match(events[i%len(events)])
				ops += o
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/event")
		})
	}
}

// BenchmarkAblationMatchers contrasts the tree filter against the naive and
// counting baselines (§2's three algorithm families).
func BenchmarkAblationMatchers(b *testing.B) {
	s, profiles, ed, events := benchWorkload(2000)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		b.Fatal(err)
	}
	tr.ApplyValueOrder(selectivity.V1(ed, true))
	all := []matchers.Matcher{
		matchers.Tree{T: tr},
		matchers.NewCounting(s, profiles),
		matchers.NewNaive(s, profiles),
	}
	for _, m := range all {
		b.Run(m.Name(), func(b *testing.B) {
			ops := 0
			for i := 0; i < b.N; i++ {
				_, o := m.Match(events[i%len(events)])
				ops += o
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/event")
		})
	}
}

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

// BenchmarkAblationCovering contrasts the overlay with and without
// covering-based route pruning.
func BenchmarkAblationCovering(b *testing.B) {
	sch := MustSchema(Attr("price", MustNumericDomain(0, 1000)))
	for _, covering := range []bool{false, true} {
		name := "off"
		if covering {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			nw := routing.NewNetwork(sch, routing.Options{Covering: covering})
			defer nw.Close()
			for _, n := range []string{"A", "B", "C"} {
				if _, err := nw.AddNode(n); err != nil {
					b.Fatal(err)
				}
			}
			if err := nw.Connect("A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := nw.Connect("B", "C"); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(benchSeed))
			// Nested ranges: heavy covering potential.
			for i := 0; i < 100; i++ {
				lo := float64(rng.Intn(400))
				expr := fmt.Sprintf("profile(price >= %g)", lo)
				p, err := predicate.Parse(sch, predicate.ID(fmt.Sprintf("r%d", i)), expr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Subscribe("C", p); err != nil {
					b.Fatal(err)
				}
			}
			a, err := nw.Node("A")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(a.RouteCount("B")), "routes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, err := event.New(sch, float64(rng.Intn(1001)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nw.Publish("A", ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatchThroughput measures raw single-event matching latency of the
// optimized tree (the end-to-end hot path without broker overhead).
func BenchmarkMatchThroughput(b *testing.B) {
	for _, p := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s, profiles, ed, events := benchWorkload(p)
			tr, err := tree.Build(s, profiles)
			if err != nil {
				b.Fatal(err)
			}
			tr.ApplyValueOrder(selectivity.V1(ed, true))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Match(events[i%len(events)])
			}
		})
	}
}

// BenchmarkTreeBuild measures automaton construction cost (the expensive
// half of restructuring).
func BenchmarkTreeBuild(b *testing.B) {
	for _, p := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s, profiles, _, _ := benchWorkload(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Build(s, profiles); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorder measures the cheap half of restructuring: re-applying a
// value order without rebuilding.
func BenchmarkReorder(b *testing.B) {
	s, profiles, ed, _ := benchWorkload(2000)
	tr, err := tree.Build(s, profiles)
	if err != nil {
		b.Fatal(err)
	}
	vo := selectivity.V1(ed, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyValueOrder(vo)
	}
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

// BenchmarkExtensionSearch regenerates the five-strategy search comparison
// (paper §5 outlook: binary-, interpolation-, or hash-based search).
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
	// Binary node search: the right strategy for a uniform stream (no skew
	// for the ordering measures to exploit), and it keeps per-shard matching
	// cheap so the benchmark measures the publish path, not the matcher.
	svc, err := NewService(sch, append([]Option{WithBinarySearch()}, opts...)...)
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
// path and the GOMAXPROCS-way sharded path. The sharded engine removes the
// broker-wide serialization points (one accounting mutex, one counters
// mutex, one subscription lock), so at GOMAXPROCS ≥ 4 the sharded
// configuration sustains multiples of the single-shard throughput. Setup
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

// BenchmarkPublishBatch measures the batched publish path against per-event
// publishing on the same workload: one PublishBatch call amortizes sequence
// assignment, adaptor bookkeeping and shard lock acquisition over the whole
// slice and matches events concurrently.
func BenchmarkPublishBatch(b *testing.B) {
	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, batch := range []int{1, 64, 1024} {
			name := fmt.Sprintf("shards=%d/batch=%d", shards, batch)
			b.Run(name, func(b *testing.B) {
				svc, events := publishWorkload(b, 2000, WithShards(shards))
				defer svc.Close()
				buf := make([]Event, batch)
				b.ResetTimer()
				for done := 0; done < b.N; {
					n := batch
					if done+n > b.N {
						n = b.N - done
					}
					for i := 0; i < n; i++ {
						buf[i] = events[(done+i)%len(events)]
					}
					if n == 1 {
						if _, err := svc.PublishEvent(buf[0]); err != nil {
							b.Fatal(err)
						}
					} else if _, err := svc.PublishBatch(buf[:n]); err != nil {
						b.Fatal(err)
					}
					done += n
				}
			})
		}
	}
}

// BenchmarkPublishPath contrasts the three event-assembly paths of the v1
// API on a hot publish loop: the v0-style map, positional PublishValues, and
// the reusable EventBuilder. Run with -benchmem — the interesting number is
// allocs/op. The "miss" variants publish events matching no profile (the
// filter's common case, and the paper's premise): the builder path allocates
// nothing, PublishValues pays only its variadic slice, the map path pays a
// map plus a values slice per event. The "hit" variants match ~4 profiles
// and additionally pay one event-values copy for delivery.
func BenchmarkPublishPath(b *testing.B) {
	mk := func(b *testing.B) *Service {
		b.Helper()
		sch := MustSchema(Attr("v", MustIntegerDomain(0, 999)))
		svc, err := NewService(sch, WithBinarySearch())
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(benchSeed))
		for i := 0; i < 2000; i++ {
			expr := fmt.Sprintf("profile(v = %d)", rng.Intn(500))
			if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), expr); err != nil {
				b.Fatal(err)
			}
		}
		return svc
	}
	// miss: values in [500,999] match nothing; hit: values in [0,499] match
	// ~4 profiles each.
	val := func(i int, hit bool) float64 {
		if hit {
			return float64(i % 500)
		}
		return float64(500 + i%500)
	}
	for _, hit := range []bool{false, true} {
		suffix := "/miss"
		if hit {
			suffix = "/hit"
		}
		b.Run("map"+suffix, func(b *testing.B) {
			svc := mk(b)
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Publish(map[string]float64{"v": val(i, hit)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("values"+suffix, func(b *testing.B) {
			svc := mk(b)
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.PublishValues(val(i, hit)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("builder"+suffix, func(b *testing.B) {
			svc := mk(b)
			defer svc.Close()
			eb := svc.NewEvent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eb.Set("v", val(i, hit)).Publish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPublishPathAllocations pins the acceptance criterion: the builder and
// Values paths perform zero map allocations per published event, and the
// builder path allocates nothing at all for non-matching events.
func TestPublishPathAllocations(t *testing.T) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 999)))
	svc, err := NewService(sch, WithBinarySearch())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 100; i++ {
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), fmt.Sprintf("profile(v = %d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	eb := svc.NewEvent()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := eb.Set("v", 999).Publish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EventBuilder publish of a non-matching event allocates %.1f objects/event, want 0", allocs)
	}
	// A matching event pays exactly the delivery copies (event values slice
	// + engine match buffer), still no map.
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := eb.Set("v", 42).Publish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("EventBuilder publish of a matching event allocates %.1f objects/event, want <= 3", allocs)
	}
}

// TestDeliveryPathAllocations pins the delivery path's allocation behavior on
// an incrementally churned index: handler-driven subscribers receiving
// matching events allocate only the fixed per-event delivery cost, and a
// subscribe/unsubscribe pair folded into the publish loop stays under the
// repository's one absolute churn ceiling, 100 allocations per event. That
// ceiling holds the incremental-index property: subscription churn patches
// the automaton and never rebuilds (and reallocates) it per operation — a
// full rebuild costs thousands of allocations and cannot hide under either
// bound. Allocation counts are machine-independent, so both gate exactly.
func TestDeliveryPathAllocations(t *testing.T) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 999)))
	svc, err := NewService(sch, WithBinarySearch())
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
	// (tombstones, patched-in subtrees), not a pristine build.
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
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := eb.Set("v", 42).Publish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("handler delivery on a churned index allocates %.1f objects/event, want <= 8", allocs)
	}

	// Active churn folded into the publish loop: one subscribe/unsubscribe
	// pair per published event. A per-operation rebuild would blow the
	// 100 allocs/event ceiling by orders of magnitude.
	churn := 0
	allocs = testing.AllocsPerRun(1000, func() {
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
	if allocs > 100 {
		t.Errorf("publish+churn allocates %.1f objects/op, want <= 100 (per-op rebuilds would be thousands)", allocs)
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

// TestBuildAllocations is the allocation ceiling of the batch build: the
// automaton is carved from arena chunks, so tree.Build makes fewer than one
// malloc per four nodes (it made 60 per node when every node, edge list, bucket
// list, profile set, decomposition and memo key was an object of its own), and
// a coalescing rebuild — poset compaction, build, freeze — under twice that.
// The benchmark's gate cannot see this count at --seconds 5, where no
// repetition of churn-mixed holds a rebuild.
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
	t.Logf("%d nodes: tree.Build %.0f mallocs, Engine.Rebuild %.0f", nodes, build, rebuild)
	if limit := float64(nodes) / 4; build > limit || rebuild > 2*limit {
		t.Errorf("tree.Build makes %.0f mallocs and Engine.Rebuild %.0f for %d nodes, want at most %.0f and %.0f",
			build, rebuild, nodes, limit, 2*limit)
	}
}

// TestTreeRetainedBytes is the memory ceiling of the automaton under the
// default search: an edge is an interval, a child and a leaf-set handle, and a
// built tree retains its nodes, its edges with a probe-tree entry each and
// every distinct leaf set once — no lookup table, no bucket per piece, no
// profile set on an interior edge. Stats.Bytes is that storage, counted.
func TestTreeRetainedBytes(t *testing.T) {
	if sz := unsafe.Sizeof(tree.Edge{}); sz > 40 {
		t.Errorf("a tree.Edge is %d bytes, want at most 40", sz)
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
	sets, entries := make(map[*int]bool), 0
	for _, n := range tr.Levels()[s.N()-1] {
		for _, e := range n.Edges() {
			if leaf := e.Leaf(); !sets[&leaf[0]] {
				sets[&leaf[0]] = true
				entries += len(leaf)
			}
		}
	}
	limit := (48*st.Edges + 96*st.Nodes + 8*entries) * 105 / 100
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
var buildScaleFull = flag.Bool("buildscale-full", false, "TestBuildScale also builds 1 000 structures (11 s, 0.9 GB allocated)")

// TestBuildScale builds distinct structures of the shape that walled the batch
// build at PR 9 (250 / 500 / 1 000 of them in 5 s, 25 s and 280 s then; the load
// generator that drew it is gone, this is its rule): on the four-attribute
// schema every attribute is constrained seven times in ten, by a range of
// 5–15 % of its domain around a uniform centre, so riders multiply the states
// level by level. 500 build in under 5 s (1.5 s measured, 11.2 s before the
// rank sweep) into 71 MB of automaton, which the test logs from Stats().Bytes
// beside what the build allocated. 1 000 are 643 600 nodes and 5.0 M edges:
// 279 MB of automaton for 908 MB allocated — under the gigabyte since a node
// stores its partition once — but 11 s of sweeping, memoising and laying out,
// so still only on request.
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
		if n == 500 && took > 5*time.Second {
			t.Errorf("500 distinct structures took %v to build, want under 5 s", took)
		}
	}
}

// BenchmarkMatchBatch measures parallel batch matching against the
// sequential path on the same workload.
func BenchmarkMatchBatch(b *testing.B) {
	sch := MustSchema(Attr("v", MustIntegerDomain(0, 99)))
	svc, err := NewService(sch)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(benchSeed))
	for i := 0; i < 500; i++ {
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), fmt.Sprintf("profile(v = %d)", rng.Intn(100))); err != nil {
			b.Fatal(err)
		}
	}
	events := make([][]float64, 4096)
	for i := range events {
		events[i] = []float64{float64(rng.Intn(100))}
	}
	engine := svc.brk.Engine()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.MatchBatch(events, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(events)))
		})
	}
}
