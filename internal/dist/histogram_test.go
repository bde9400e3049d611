package dist

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"genas/internal/schema"
)

func TestNewHistogramErrors(t *testing.T) {
	dom := intDom(t, 0, 9)
	if _, err := NewHistogram(dom, 0); !errors.Is(err, ErrBadHistogram) {
		t.Errorf("bins=0: %v", err)
	}
	if _, err := NewHistogram(dom, -3); !errors.Is(err, ErrBadHistogram) {
		t.Errorf("bins=-3: %v", err)
	}
	if _, err := NewHistogram(schema.Domain{}, 4); !errors.Is(err, ErrBadHistogram) {
		t.Errorf("unset domain: %v", err)
	}
	h, err := NewHistogram(dom, 5)
	if err != nil || h.Bins() != 5 {
		t.Fatalf("h=%v err=%v", h, err)
	}
}

// TestHistogramEmptySnapshotIsUniform: no history means the uniform prior,
// so a fresh adaptor never reports drift against its own starting point.
func TestHistogramEmptySnapshotIsUniform(t *testing.T) {
	h, err := NewHistogram(intDom(t, 0, 99), 16)
	if err != nil {
		t.Fatal(err)
	}
	if tv := TotalVariation(h.Snapshot(), UniformShape{}, 16); tv != 0 {
		t.Errorf("empty snapshot drifts by %g", tv)
	}
	if h.N() != 0 {
		t.Errorf("N = %d", h.N())
	}
}

// TestHistogramConvergesToSource: observing a stream reproduces its shape.
func TestHistogramConvergesToSource(t *testing.T) {
	dom := intDom(t, 0, 99)
	for _, name := range []string{"equal", "gauss", "95% low", "d34"} {
		sh := mustByName(t, name)
		src := New(sh, dom)
		h, err := NewHistogram(dom, 10)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		const n = 40000
		for i := 0; i < n; i++ {
			h.Observe(src.Sample(rng))
		}
		if h.N() != n {
			t.Fatalf("N = %d", h.N())
		}
		h.Rotate()
		if tv := TotalVariation(h.Snapshot(), sh, 10); tv > 0.02 {
			t.Errorf("%s: snapshot TV from source = %g", name, tv)
		}
	}
}

// TestHistogramClampsOutliers: out-of-domain values land in the edge bins
// instead of corrupting memory or being lost.
func TestHistogramClampsOutliers(t *testing.T) {
	h, err := NewHistogram(numDom(t, 0, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(-100)
	h.Observe(math.Inf(1)) // clamps to the high edge bin
	h.Observe(10)          // hi boundary maps into the last bin
	h.Observe(math.NaN())  // dropped, not binned
	if h.N() != 3 {
		t.Errorf("N = %d", h.N())
	}
	h.Rotate()
	s := h.Snapshot()
	if m := MassOn(s, 0, 0.25); math.Abs(m-1.0/3) > 1e-9 {
		t.Errorf("low edge bin mass = %g", m)
	}
	if m := MassOn(s, 0.75, 1); math.Abs(m-2.0/3) > 1e-9 {
		t.Errorf("high edge bin mass = %g", m)
	}
}

// TestHistogramConcurrentObserve: Observe is safe under concurrency and no
// count is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h, err := NewHistogram(intDom(t, 0, 99), 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(float64(rng.Intn(100)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Errorf("N = %d, want %d", h.N(), workers*per)
	}
}

// TestHistogramWindowsPartitionStream: a closed window holds exactly what
// was observed since the previous Rotate and nothing older, an empty one
// falls back to the uniform prior, and N keeps the lifetime count.
func TestHistogramWindowsPartitionStream(t *testing.T) {
	h, err := NewHistogram(intDom(t, 0, 9), 5)
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range []float64{1, 9} {
		for i := 0; i < 100*(w+1); i++ {
			h.Observe(v)
		}
		h.Rotate()
		if h.Window() != float64(100*(w+1)) {
			t.Errorf("window %d holds %g values", w, h.Window())
		}
		lo := float64(int(v)/2) / 5
		if m := MassOn(h.Snapshot(), lo, lo+0.2); m != 1 {
			t.Errorf("window %d: mass %g on the bin of %g, want all of it", w, m, v)
		}
	}
	h.Rotate()
	if tv := TotalVariation(h.Snapshot(), UniformShape{}, 5); tv != 0 || h.Window() != 0 {
		t.Errorf("empty window: %g values, drifts by %g", h.Window(), tv)
	}
	if tv, floor := h.Drift(PeakHigh(0.9), 0); tv != 0 || floor != 0 {
		t.Errorf("empty window reports drift %g, floor %g", tv, floor)
	}
	if h.N() != 300 {
		t.Errorf("N = %d, want the lifetime 300", h.N())
	}
}

// TestHistogramRotateUnderConcurrentObserve: windows partition the stream
// whatever the interleaving — the masses of the windows closed while writers
// run, plus the one closed after they stop, add up to the values observed.
func TestHistogramRotateUnderConcurrentObserve(t *testing.T) {
	h, err := NewHistogram(intDom(t, 0, 99), 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(float64(rng.Intn(100)))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	sum := 0.0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		h.Rotate()
		sum += h.Window()
	}
	h.Rotate()
	if sum += h.Window(); sum != workers*per {
		t.Errorf("window masses add up to %g, want %d", sum, workers*per)
	}
}

// TestHistogramDriftFloor: the sampling floor is what the total variation
// between two samples of one source comes to on average, so drift beyond it
// centres on zero without drift and on the true distance with it. (The
// floor is a plug-in estimate from the window's own bins, biased low by a
// tenth where bins hold one or two values, as the tail bins here do.)
func TestHistogramDriftFloor(t *testing.T) {
	dom := intDom(t, 0, 99)
	src := New(PeakHigh(0.9), dom)
	rng := rand.New(rand.NewSource(4))
	window := func(d Dist, n int) *Histogram {
		h, err := NewHistogram(dom, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			h.Observe(d.Sample(rng))
		}
		h.Rotate()
		return h
	}
	const rounds, n = 200, 200
	excess, floors := 0.0, 0.0
	for r := 0; r < rounds; r++ {
		tv, floor := window(src, n).Drift(window(src, n).Snapshot(), n)
		excess += (tv - floor) / rounds
		floors += floor / rounds
	}
	if math.Abs(excess) > 0.25*floors {
		t.Errorf("mean drift beyond the floor = %g under no drift (floor %g)", excess, floors)
	}
	tv, floor := window(New(UniformShape{}, dom), 4096).Drift(src.Shape(), 0)
	if want := TotalVariation(UniformShape{}, src.Shape(), 16); math.Abs(tv-floor-want) > 0.05 {
		t.Errorf("drift beyond the floor = %g, true distance %g", tv-floor, want)
	}
}

// TestHistogramDriftDetection: the adaptation loop's core signal — a
// snapshot of a drifted stream is far from the previously applied shape but
// close to the true new source.
func TestHistogramDriftDetection(t *testing.T) {
	dom := intDom(t, 0, 99)
	applied := Shape(UniformShape{})
	src := New(PeakHigh(0.95), dom)
	h, err := NewHistogram(dom, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		h.Observe(src.Sample(rng))
	}
	h.Rotate()
	snap := h.Snapshot()
	if tv := TotalVariation(snap, applied, 16); tv < 0.5 {
		t.Errorf("drifted stream TV from uniform prior = %g, want large", tv)
	}
	if tv := TotalVariation(snap, src.Shape(), 16); tv > 0.1 {
		t.Errorf("snapshot TV from true source = %g, want small", tv)
	}
}
