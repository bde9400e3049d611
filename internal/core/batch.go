package core

import (
	"genas/internal/par"
	"genas/internal/predicate"
)

// BatchResult carries one event's match outcome inside a MatchBatch result.
// Like MatchBatch, it is kept only for the benchmark's SURFACE.
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
// with the input. The events are spread over at most GOMAXPROCS goroutines
// (par.For), and over at most workers when workers > 0.
//
// The snapshot is loaded once and traversed lock-free: it is immutable, so
// neither churn nor restructuring mid-batch affects the workers, and no
// writer ever waits on an in-flight batch.
//
// MatchBatch is a benchmark SURFACE symbol (the core.batch_ns_per_event
// rung) with no production caller: the broker publishes a batch one event
// at a time through MatchAppend.
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
	w := par.Workers(len(events), batchChunk)
	if workers > 0 {
		w = min(w, workers)
	}
	par.For(w, len(events), batchChunk, func(_, i int) {
		ms, ops := snap.match(events[i], nil)
		results[i].IDs, results[i].Ops = idsOf(ms), ops
	})

	for _, r := range results {
		e.account.Record(r.Ops)
	}
	return results, nil
}
