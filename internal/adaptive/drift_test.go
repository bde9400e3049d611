package adaptive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// The two halves of the benchmark's match-drift plan, drawn i.i.d. instead
// of from its Halton lattice: temperature peaks low (gauss around −12), or
// sits 85 % on 24 Zipf hot keys at the high end; humidity stays uniform.
const (
	driftWindow    = 4096
	driftThreshold = 0.15
	halfWindows    = 6 // windows per half: the benchmark has 32
)

type half func(rng *rand.Rand) []float64

func lowPeak(rng *rand.Rand) []float64 {
	return []float64{math.Min(50, math.Max(-30, -12+6*rng.NormFloat64())), 100 * rng.Float64()}
}

func hotKeys() half {
	cdf := make([]float64, 24)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 1.2)
		cdf[k] = sum
	}
	return func(rng *rand.Rand) []float64 {
		ev := []float64{-30 + 80*rng.Float64(), 100 * rng.Float64()}
		if rng.Float64() < 0.85 {
			k := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), len(cdf)-1)
			ev[0] = 30.25 + 0.75*float64(k*7%len(cdf))
		}
		return ev
	}
}

// driftEngine holds narrow range profiles with uniform centres, as
// match-drift does, temperature at the root.
func driftEngine(t *testing.T, search tree.Search) *core.Engine {
	t.Helper()
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	s := schema.MustNew(schema.Attribute{Name: "temperature", Domain: temp}, schema.Attribute{Name: "humidity", Domain: hum})
	e := core.NewEngine(s, core.Config{Search: search})
	rng := rand.New(rand.NewSource(2002))
	for i := 0; i < 600; i++ {
		tLo := -30 + 0.5*float64(rng.Intn(154))
		hLo := float64(rng.Intn(95))
		expr := fmt.Sprintf("profile(temperature in [%g,%g]; humidity in [%g,%g])",
			tLo, tLo+1+0.5*float64(rng.Intn(5)), hLo, hLo+2+float64(rng.Intn(4)))
		if err := e.AddProfile(predicate.MustParse(s, predicate.ID(fmt.Sprintf("s%d", i)), expr)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return e
}

// feed publishes n windows of one half through the engine and the adaptor
// and returns the engine's operations over the last window.
func feed(t *testing.T, e *core.Engine, a *Adaptor, gen half, rng *rand.Rand, windows int) (lastOps int) {
	t.Helper()
	for w := 0; w < windows; w++ {
		lastOps = 0
		for i := 0; i < driftWindow; i++ {
			ev := gen(rng)
			_, ops, err := e.Match(ev)
			if err != nil {
				t.Fatal(err)
			}
			lastOps += ops
			if a != nil {
				a.Observe(ev)
			}
		}
	}
	return lastOps
}

// TestDriftTwin drives the adaptor at the benchmark's policy over
// match-drift's two alternating halves, on the paper's scan (the weighted
// search has its own twin below). It must restructure for each flip —
// the parent's cumulative history stopped after the first cycle — by
// re-sorting the one node that tests temperature, and each half must then
// cost fewer operations than under the order fitted to the mixture of both,
// which is what the parent's history converged to.
func TestDriftTwin(t *testing.T) {
	halves := []half{lowPeak, hotKeys()}
	e := driftEngine(t, tree.SearchLinear)
	a, err := New(e, Policy{Window: driftWindow, Threshold: driftThreshold})
	if err != nil {
		t.Fatal(err)
	}

	// The mixture order: V1 under one whole cycle's histogram.
	mix := driftEngine(t, tree.SearchLinear)
	rng := rand.New(rand.NewSource(1))
	mixDists := make([]dist.Dist, 2)
	for attr := range mixDists {
		dom := mix.Schema().At(attr).Domain
		h, err := dist.NewHistogram(dom, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*halfWindows*driftWindow; i++ {
			h.Observe(halves[i%2](rng)[attr])
		}
		h.Rotate()
		mixDists[attr] = dist.New(h.Snapshot(), dom)
	}
	mix.SetConfig(core.Config{ValueMeasure: core.ValueEvent, EventDists: mixDists})
	if _, _, err := mix.Reorder(); err != nil {
		t.Fatal(err)
	}

	const cycles = 3
	for c := 0; c < cycles; c++ {
		before := a.Restructures()
		for hi, gen := range halves {
			adapted := feed(t, e, a, gen, rng, halfWindows)
			mixture := feed(t, mix, nil, gen, rng, 1)
			t.Logf("cycle %d half %d: adapted %d mixture %d", c, hi, adapted, mixture)
			if c > 0 && adapted >= mixture {
				t.Errorf("cycle %d half %d: %d ops under the adapted order, %d under the mixture order", c, hi, adapted, mixture)
			}
		}
		if got := a.Restructures() - before; c > 0 && got != 2 {
			t.Errorf("cycle %d: %d restructures, want one per flip", c, got)
		}
	}

	ds := a.Decisions()
	if len(ds) != a.Restructures() || ds[0].Seq != 1 {
		t.Fatalf("%d decisions for %d restructures, first seq %d", len(ds), a.Restructures(), ds[0].Seq)
	}
	if first := ds[0]; len(first.Reordered) != 2 || first.Resorted != e.Tree().Stats().Nodes || first.Copied != 0 {
		t.Errorf("first restructure switches the measure, so it reorders the whole tree: %+v", first)
	}
	for _, d := range ds[1:] {
		if len(d.Reordered) != 1 || d.Reordered[0] != 0 || d.Resorted != 1 || d.Copied != 0 || d.Err != nil {
			t.Errorf("restructure %d: want temperature alone, one node re-sorted: %+v", d.Seq, d)
		}
		if d.TV[0]-d.Floor[0] < driftThreshold || d.TV[1]-d.Floor[1] >= driftThreshold {
			t.Errorf("restructure %d: tv %v floor %v do not single out temperature", d.Seq, d.TV, d.Floor)
		}
	}
}

// TestDriftTwinWeighted is the twin on the default search: the adaptor
// restructures once per flip, re-weighting the probe tree of the one node that
// tests temperature, and each half then costs no more operations than on the
// same tree left on uniform weights.
func TestDriftTwinWeighted(t *testing.T) {
	halves := []half{lowPeak, hotKeys()}
	e, uniform := driftEngine(t, tree.DefaultSearch), driftEngine(t, tree.DefaultSearch)
	a, err := New(e, Policy{Window: driftWindow, Threshold: driftThreshold})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 3; c++ {
		before := a.Restructures()
		for hi, gen := range halves {
			adapted := feed(t, e, a, gen, rng, halfWindows)
			flat := feed(t, uniform, nil, gen, rng, 1)
			t.Logf("cycle %d half %d: re-weighted %d uniform %d", c, hi, adapted, flat)
			if adapted > flat {
				t.Errorf("cycle %d half %d: %d ops on the re-weighted tree, %d on uniform weights", c, hi, adapted, flat)
			}
		}
		if got := a.Restructures() - before; c > 0 && got != 2 {
			t.Errorf("cycle %d: %d restructures, want one per flip", c, got)
		}
	}
	for _, d := range a.Decisions()[1:] {
		if len(d.Reordered) != 1 || d.Reordered[0] != 0 || d.Resorted != 1 || d.Copied != 0 || d.Err != nil {
			t.Errorf("restructure %d: want temperature alone, one node re-weighted: %+v", d.Seq, d)
		}
	}
}

// TestStationaryTwin: either half of match-drift repeated for as long as
// the drifting twin runs, drawn i.i.d. (so every window carries its full
// sampling noise), restructures in the warm-up and never again, and a check
// that finds no drift allocates nothing.
func TestStationaryTwin(t *testing.T) {
	for name, gen := range map[string]half{"low peak": lowPeak, "hot keys": hotKeys()} {
		t.Run(name, func(t *testing.T) {
			e := driftEngine(t, tree.DefaultSearch)
			a, err := New(e, Policy{Window: driftWindow, Threshold: driftThreshold})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			feed(t, e, a, gen, rng, 2)
			warm, checks := a.Restructures(), a.Checks()
			if warm == 0 {
				t.Fatal("the first windows drift from the uniform prior and must restructure")
			}
			feed(t, e, a, gen, rng, 6*halfWindows)
			if got := a.Restructures(); got != warm {
				t.Errorf("%d restructures after the warm-up on a stationary stream", got-warm)
			}
			if a.Checks()-checks != 6*halfWindows {
				t.Errorf("%d checks over %d windows", a.Checks()-checks, 6*halfWindows)
			}
			events := make([][]float64, driftWindow)
			for i := range events {
				events[i] = gen(rng)
			}
			if allocs := testing.AllocsPerRun(5, func() { a.ObserveBatch(events) }); allocs != 0 {
				t.Errorf("a window with a no-drift check allocates %g times", allocs)
			}
		})
	}
}

// failingEngine is an engine whose restructuring always fails.
type failingEngine struct {
	*core.Engine
	err error
}

func (f failingEngine) Reorder(...int) (int, int, error) { return 0, 0, f.err }

// TestRestructureErrorSurfaces: the engine's error comes back from
// ForceAdapt wrapped, not replaced, and the periodic path, which can only
// answer false, leaves it in the decision record.
func TestRestructureErrorSurfaces(t *testing.T) {
	e, s := testEngine(t, 10, 3)
	boom := errors.New("boom")
	a, err := New(failingEngine{e, boom}, Policy{Window: 100, Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ForceAdapt(); !errors.Is(err, boom) {
		t.Errorf("ForceAdapt = %v, want it to wrap the engine's error", err)
	}
	src := dist.New(dist.PeakHigh(0.95), s.At(0).Domain)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if a.Observe([]float64{src.Sample(rng)}) {
			t.Error("a failed restructure must not report success")
		}
	}
	ds := a.Decisions()
	if len(ds) != 2 || !errors.Is(ds[1].Err, boom) {
		t.Errorf("decisions = %+v, want two failed restructures", ds)
	}
}

// TestConcurrentObserve: the event counters are exact and the drift check
// runs once per window, not once per publisher, when publishers race for a
// boundary.
func TestConcurrentObserve(t *testing.T) {
	e, _ := testEngine(t, 20, 9)
	const window, workers, per = 256, 4, 16 * 256
	a, err := New(e, Policy{Window: window, Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				a.Observe([]float64{float64(rng.Intn(100))})
			}
		}(int64(w))
	}
	wg.Wait()
	if a.Seen() != workers*per {
		t.Errorf("seen = %d, want %d", a.Seen(), workers*per)
	}
	if got, most := a.Checks(), workers*per/window; got == 0 || got > most {
		t.Errorf("%d checks over %d windows", got, most)
	}
}
