package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/stats"
)

// Sharded is an N-way partitioned filter: profiles are hashed across N
// independent single-tree engines, each with its own profile tree,
// selectivity state and lock. An event is matched against every shard and
// the per-shard results are merged, so the match set is identical to a
// single-tree engine over the same corpus; what changes is the concurrency
// layout:
//
//   - profile churn (subscribe/unsubscribe) publishes a successor snapshot
//     on one shard, while matching proceeds lock-free on all N;
//   - restructuring (Reorder/Rebuild) swaps one shard's snapshot at a time
//     instead of stopping the world;
//   - operation accounting stripes across per-shard accounts, so parallel
//     publishers do not serialize on a single accounting mutex.
//
// Stats totals are preserved: one published event is one accounted event
// whose operation count is the sum over shards.
type Sharded struct {
	schema   *schema.Schema
	shards   []*Engine
	accounts []*stats.OpAccount
}

// ShardOf returns the shard index of a profile id under an n-way partition
// (FNV-1a, inlined: the broker calls this once per delivered notification,
// so it must not allocate). The broker uses the same function to align its
// delivery state with the engine's partition.
func ShardOf(id predicate.ID, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// ResolveShards normalizes a user-facing shard count: n ≤ 0 selects
// GOMAXPROCS, anything else passes through. Every layer that accepts
// "0 = pick for me" (the genas facade, the genasd flag) resolves through
// this one function; broker.Options keeps 0 as its zero value (single
// tree).
func ResolveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NewSharded creates an n-way sharded engine over schema s. n ≤ 0 selects
// GOMAXPROCS shards.
func NewSharded(s *schema.Schema, cfg Config, n int) *Sharded {
	n = ResolveShards(n)
	sh := &Sharded{
		schema:   s,
		shards:   make([]*Engine, n),
		accounts: make([]*stats.OpAccount, n),
	}
	for i := range sh.shards {
		sh.shards[i] = NewEngine(s, cfg)
		sh.accounts[i] = &stats.OpAccount{}
	}
	return sh
}

// Schema returns the engine's schema.
func (sh *Sharded) Schema() *schema.Schema { return sh.schema }

// ShardCount returns the number of shards.
func (sh *Sharded) ShardCount() int { return len(sh.shards) }

// Shard exposes one shard engine (diagnostics and tests).
func (sh *Sharded) Shard(i int) *Engine { return sh.shards[i] }

// AddProfile registers a profile on its home shard.
func (sh *Sharded) AddProfile(p *predicate.Profile) error {
	return sh.shards[ShardOf(p.ID, len(sh.shards))].AddProfile(p)
}

// RemoveProfile unregisters a profile from its home shard.
func (sh *Sharded) RemoveProfile(id predicate.ID) error {
	return sh.shards[ShardOf(id, len(sh.shards))].RemoveProfile(id)
}

// ProfileCount returns the number of registered profiles across shards.
func (sh *Sharded) ProfileCount() int {
	n := 0
	for _, e := range sh.shards {
		n += e.ProfileCount()
	}
	return n
}

// Profiles returns a copy of the registered profiles in shard order.
func (sh *Sharded) Profiles() []*predicate.Profile {
	var out []*predicate.Profile
	for _, e := range sh.shards {
		out = append(out, e.Profiles()...)
	}
	return out
}

// stripeHint is a per-P round-robin counter handed out by a sync.Pool: Get
// normally returns the current P's cached object, so concurrent publishers
// advance private counters instead of bouncing one shared cache line, and
// identical events still spread across stripes (a value-derived stripe would
// collapse onto one account for a hot repeated reading).
type stripeHint struct{ n uint64 }

var stripePool = sync.Pool{New: func() any { return new(stripeHint) }}

// record stripes one event's accounting across the per-shard accounts. Any
// spread works — the merge on Account restores exact totals — the only
// requirement is that choosing a stripe stays off shared state on the hot
// path.
func (sh *Sharded) record(ops, matched int) {
	h := stripePool.Get().(*stripeHint)
	h.n++
	idx := h.n % uint64(len(sh.accounts))
	stripePool.Put(h)
	sh.accounts[idx].Record(ops, matched)
}

// Match filters one event against every shard and merges the results in
// shard order. The merged id set equals the single-tree match set; the
// operation count is the sum over shards (each shard pays its own root
// dispatch). Shards are visited sequentially in the caller's goroutine —
// per-shard matches are far cheaper than cross-goroutine handoff, so
// parallelism comes from concurrent publishers (and from MatchBatch, which
// fans events out across workers).
//
//genas:hotpath
func (sh *Sharded) Match(vals []float64) ([]predicate.ID, int, error) {
	ids := make([]predicate.ID, 0, 8)
	ops := 0
	empties := 0
	for _, e := range sh.shards {
		var sops int
		var empty bool
		var err error
		ids, sops, empty, err = e.matchIDs(vals, ids)
		if err != nil {
			return nil, 0, err
		}
		if empty {
			empties++
			continue
		}
		ops += sops
	}
	if empties == len(sh.shards) {
		return nil, 0, nil // an empty filter matches nothing
	}
	sh.record(ops, len(ids))
	return ids, ops, nil
}

// MatchBatch filters many events against one immutable snapshot per shard.
// The snapshots are collected once (resolving lazy rebuilds) and traversed
// lock-free, so all events in the batch see a consistent corpus and neither
// churn nor per-shard restructuring waits for in-flight batches. Events fan
// out across workers; each worker matches its events against all shards and
// merges inline.
func (sh *Sharded) MatchBatch(events [][]float64, workers int) ([]BatchResult, error) {
	if len(events) == 0 {
		return nil, nil
	}
	snaps := make([]*snapshot, 0, len(sh.shards))
	for _, e := range sh.shards {
		s, err := e.current()
		if err != nil {
			return nil, err
		}
		if !s.empty {
			snaps = append(snaps, s)
		}
	}
	results := make([]BatchResult, len(events))
	if len(snaps) == 0 {
		return results, nil // an empty filter matches nothing and accounts nothing
	}
	runBatch(len(events), workers, func(i int) {
		r := &results[i]
		for _, s := range snaps {
			var ops int
			r.IDs, ops = s.match(events[i], r.IDs)
			r.Ops += ops
		}
	})
	for _, r := range results {
		sh.record(r.Ops, len(r.IDs))
	}
	return results, nil
}

// perShard runs f concurrently on every shard and returns the combined
// error. Each shard locks independently, so a rebuild of shard i never
// blocks matching on shard j.
func (sh *Sharded) perShard(f func(e *Engine) error) error {
	errs := make([]error, len(sh.shards))
	var wg sync.WaitGroup
	for i, e := range sh.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(e)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rebuild reconstructs every non-empty shard's automaton concurrently. A
// shard found empty (even one emptied concurrently, after any pre-check
// could run) has nothing to build and does not fail the restructure.
func (sh *Sharded) Rebuild() error {
	return sh.perShard(func(e *Engine) error {
		if err := e.Rebuild(); err != nil && !errors.Is(err, ErrNoProfiles) {
			return err
		}
		return nil
	})
}

// Reorder re-applies the value ordering on every non-empty shard
// concurrently (the cheap half of restructuring), summing the shards' node
// counts. Empty shards are skipped, not failed, like in Rebuild.
func (sh *Sharded) Reorder(attrs ...int) (resorted, copied int, err error) {
	var rs, cp atomic.Int64
	err = sh.perShard(func(e *Engine) error {
		r, c, err := e.Reorder(attrs...)
		rs.Add(int64(r))
		cp.Add(int64(c))
		if errors.Is(err, ErrNoProfiles) {
			return nil
		}
		return err
	})
	return int(rs.Load()), int(cp.Load()), err
}

// Config returns a copy of the current configuration (identical across
// shards).
func (sh *Sharded) Config() Config { return sh.shards[0].Config() }

// SetConfig replaces the measure/search configuration on every shard; the
// change takes effect on the next Rebuild or Reorder.
func (sh *Sharded) SetConfig(cfg Config) {
	for _, e := range sh.shards {
		e.SetConfig(cfg)
	}
}

// SetEventDists replaces P_e on every shard. The adaptive component feeds
// one drift snapshot aggregated over the whole event stream; every shard
// reorders against the same distributions.
func (sh *Sharded) SetEventDists(ds []dist.Dist) {
	for _, e := range sh.shards {
		e.SetEventDists(ds)
	}
}

// AggStats merges the per-shard aggregation summaries: counts add (each
// shard's poset is independent), the depth is the worst shard's.
func (sh *Sharded) AggStats() AggStats {
	var out AggStats
	for _, e := range sh.shards {
		st := e.AggStats()
		out.Subscriptions += st.Subscriptions
		out.Nodes += st.Nodes
		out.Roots += st.Roots
		out.MaxDepth = max(out.MaxDepth, st.MaxDepth)
	}
	return out
}

// Account returns the merged operation accounting summary: totals are exact
// sums, the confidence interval merges the striped Welford accumulators.
func (sh *Sharded) Account() stats.Summary { return stats.MergeSummary(sh.accounts) }

// ResetAccount clears operation accounting on every stripe.
func (sh *Sharded) ResetAccount() {
	for _, a := range sh.accounts {
		a.Reset()
	}
}

// Analyze merges the analytic cost model across shards. Expected operations
// add (every event visits every shard); the match probability combines as
// 1−Π(1−pᵢ) under the shards' independent corpora; PerProfile holds one entry
// per indexed root (selectivity.Analysis), in shard order.
func (sh *Sharded) Analyze() (selectivity.Analysis, error) {
	var out selectivity.Analysis
	nonEmpty := 0
	missProb := 1.0
	for _, e := range sh.shards {
		a, err := e.Analyze()
		if errors.Is(err, ErrNoProfiles) {
			continue // empty shards contribute nothing, as in Rebuild/Reorder
		}
		if err != nil {
			return selectivity.Analysis{}, err
		}
		nonEmpty++
		out.MatchOps += a.MatchOps
		out.R0Ops += a.R0Ops
		out.TotalOps += a.TotalOps
		out.ExpMatches += a.ExpMatches
		missProb *= 1 - a.MatchProb
		out.PerLevelOps = addLevels(out.PerLevelOps, a.PerLevelOps)
		out.PerLevelMatch = addLevels(out.PerLevelMatch, a.PerLevelMatch)
		out.PerLevelR0 = addLevels(out.PerLevelR0, a.PerLevelR0)
		out.PerProfile = append(out.PerProfile, a.PerProfile...)
	}
	if nonEmpty == 0 {
		return selectivity.Analysis{}, ErrNoProfiles
	}
	out.MatchProb = 1 - missProb
	return out, nil
}

// addLevels element-wise adds b into a, growing a as needed.
func addLevels(a, b []float64) []float64 {
	if len(b) > len(a) {
		a = append(a, make([]float64, len(b)-len(a))...)
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}
