package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIterationOnce: whatever the workers and the grain, For
// calls fn once per iteration, names only workers below the count, runs one
// worker inline and in order, and Workers never asks for more goroutines than
// there are grains or Ps.
func TestForCallsEveryIterationOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, grain := range []int{1, 3, 64} {
			for _, workers := range []int{1, 2, 5} {
				calls := make([]atomic.Int32, n)
				var order []int
				For(workers, n, grain, func(w, i int) {
					if w < 0 || w >= workers {
						t.Errorf("worker %d of %d", w, workers)
					}
					calls[i].Add(1)
					if workers == 1 {
						order = append(order, i)
					}
				})
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Fatalf("n %d grain %d workers %d: iteration %d ran %d times", n, grain, workers, i, c)
					}
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("n %d grain %d: inline iteration %d ran as call %d", n, grain, got, i)
					}
				}
			}
			if w := Workers(n, grain); w < 1 || w > max(1, (n+grain-1)/grain) || w > runtime.GOMAXPROCS(0) {
				t.Errorf("Workers(%d, %d) = %d", n, grain, w)
			}
		}
	}
}

// TestInlineForAllocatesNothing: a loop For runs inline, on one worker or in
// a single grain, sets up no counter, closure or WaitGroup on the heap.
func TestInlineForAllocatesNothing(t *testing.T) {
	sum := 0
	fn := func(_, i int) { sum += i }
	for _, c := range []struct{ workers, n, grain int }{{1, 1000, 1}, {4, 64, 64}} {
		if a := testing.AllocsPerRun(10, func() { For(c.workers, c.n, c.grain, fn) }); a != 0 {
			t.Errorf("For(%d, %d, %d) made %.0f mallocs, want 0", c.workers, c.n, c.grain, a)
		}
	}
}
