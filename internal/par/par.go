// Package par runs the independent iterations of one loop on up to
// GOMAXPROCS goroutines: the index builds (the rank indexes, the state sweeps
// and the probe-tree layouts of tree.Build and Tree.Reordered, the covering
// scan of agg.Poset.Compact) and core.Engine.MatchBatch. Each loop claims its
// iterations a grain at a time, and a loop of a single grain runs inline on
// the caller's goroutine, so the input alone decides, and a small index never
// pays for a goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the goroutines For should spread n iterations over when a
// worker claims grain of them at a time: GOMAXPROCS, but no more than there
// are grains, and at least one.
func Workers(n, grain int) int {
	return max(1, min(runtime.GOMAXPROCS(0), (n+grain-1)/grain))
}

// For calls fn(w, i) once for every i in [0, n) on at most workers
// goroutines, the caller's included, each claiming grain consecutive
// iterations at a time until none are left; w, in [0, workers), names the
// goroutine, so fn may keep scratch per worker. For returns when every call
// has returned. One worker, or a single grain, runs the loop inline, in order,
// with no counter or goroutine set up.
func For(workers, n, grain int, fn func(w, i int)) {
	if workers <= 1 || n <= grain {
		for i := range n {
			fn(0, i)
		}
		return
	}
	workers = min(workers, (n+grain-1)/grain)
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+grain, n); i++ {
				fn(w, i)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
