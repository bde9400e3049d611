package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	if r.PreciseEnough(0.05, 1) {
		t.Error("empty accumulator cannot be precise")
	}
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		r.Observe(v)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", r.Mean())
	}
	// Sample variance of the classic dataset: Σ(x−5)² = 32, /7.
	if math.Abs(r.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %g, want %g", r.Var(), 32.0/7)
	}
}

func TestPrecisionStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var r Running
	n := 0
	for !r.PreciseEnough(0.05, 100) {
		r.Observe(10 + rng.NormFloat64())
		n++
		if n > 1_000_000 {
			t.Fatal("stopping rule never triggered")
		}
	}
	if n < 100 {
		t.Errorf("stopped after %d < minN samples", n)
	}
	// With σ=1, μ=10 and rel=0.05 the rule needs roughly (1.96/0.5)² ≈ 16
	// samples, so the minN=100 floor dominates.
	if n > 5000 {
		t.Errorf("stopped only after %d samples", n)
	}
	// Constant observations: precise as soon as minN reached.
	var c Running
	for i := 0; i < 10; i++ {
		c.Observe(3)
	}
	if !c.PreciseEnough(0.01, 10) {
		t.Error("constant stream must be precise")
	}
}

func TestZeroMeanPrecision(t *testing.T) {
	var r Running
	for i := 0; i < 100; i++ {
		r.Observe(0)
	}
	if !r.PreciseEnough(0.05, 10) {
		t.Error("all-zero stream must count as precise")
	}
	r.Observe(1) // perturb: mean ≠ 0, variance > 0
	if r.Mean() == 0 {
		t.Error("mean should move")
	}
}

func TestOpAccount(t *testing.T) {
	var a OpAccount
	if s := a.Summary(); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	a.Record(5)
	a.Record(7)
	a.Record(3)
	s := a.Summary()
	if s.Events != 3 || s.Ops != 15 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.MeanOps-5) > 1e-12 {
		t.Errorf("mean ops = %g", s.MeanOps)
	}
}

func TestOpAccountConcurrent(t *testing.T) {
	var a OpAccount
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Record(2)
			}
		}()
	}
	wg.Wait()
	s := a.Summary()
	if s.Events != 2000 || s.Ops != 4000 {
		t.Errorf("summary = %+v", s)
	}
}
