package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"genas/internal/predicate"
)

// BatchResult carries one event's match outcome inside a batch.
type BatchResult struct {
	// IDs holds the matched profile ids.
	IDs []predicate.ID
	// Ops is the comparison count spent on the event.
	Ops int
}

// batchChunk is the number of events one worker claims at a time; large
// enough to amortize the claim, small enough to balance skewed match costs.
const batchChunk = 64

// MatchBatch filters many events concurrently against one automaton
// snapshot. All events in the batch see the same profile corpus even if
// subscriptions change mid-flight, and results are positionally aligned
// with the input. workers ≤ 0 selects GOMAXPROCS.
//
// The snapshot is loaded once and traversed lock-free: it is immutable, so
// neither churn nor restructuring mid-batch affects the workers, and no
// writer ever waits on an in-flight batch.
func (e *Engine) MatchBatch(events [][]float64, workers int) ([]BatchResult, error) {
	if len(events) == 0 {
		return nil, nil
	}
	snap, err := e.current()
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(events))
	if snap.empty {
		return results, nil
	}
	runBatch(len(events), workers, func(i int) {
		results[i].IDs, results[i].Ops = snap.match(events[i], nil)
	})

	for _, r := range results {
		e.account.Record(r.Ops, len(r.IDs))
	}
	return results, nil
}

// runBatch fans fn(i) for i in [0,n) across workers with chunked work
// stealing. workers ≤ 0 selects GOMAXPROCS; a single worker runs inline.
func runBatch(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+batchChunk-1)/batchChunk {
		workers = (n + batchChunk - 1) / batchChunk
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(batchChunk)) - batchChunk
				if lo >= n {
					return
				}
				hi := lo + batchChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
