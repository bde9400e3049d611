package core

import (
	"errors"
	"runtime"

	"genas/internal/agg"
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
//     instead of stopping the world.
//
// The partition stays inside this type: callers see one Filter, and one
// published event is one accounted event whose operation count is the sum
// over shards.
type Sharded struct {
	schema  *schema.Schema
	shards  []*Engine
	account stats.OpAccount
}

// shardOf returns the shard index of a profile id under an n-way partition
// (FNV-1a, inlined: it runs on every churn operation and must not allocate).
func shardOf(id predicate.ID, n int) int {
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
	sh := &Sharded{schema: s, shards: make([]*Engine, n)}
	for i := range sh.shards {
		sh.shards[i] = NewEngine(s, cfg)
	}
	return sh
}

// Schema returns the engine's schema.
func (sh *Sharded) Schema() *schema.Schema { return sh.schema }

// ShardCount returns the number of shards.
func (sh *Sharded) ShardCount() int { return len(sh.shards) }

// Shard exposes one shard engine (diagnostics and tests).
func (sh *Sharded) Shard(i int) *Engine { return sh.shards[i] }

// AddProfile registers the bare profile p on its home shard (see Add).
func (sh *Sharded) AddProfile(p *predicate.Profile) error { return sh.Add(agg.Bare(p)) }

// Add registers a member on the home shard of its profile's id.
func (sh *Sharded) Add(m Member) error {
	return sh.shards[shardOf(m.Profile().ID, len(sh.shards))].Add(m)
}

// Remove unregisters the member registered under id from its home shard and
// returns it.
func (sh *Sharded) Remove(id predicate.ID) (Member, error) {
	return sh.shards[shardOf(id, len(sh.shards))].Remove(id)
}

// Members returns the registered members in shard order.
func (sh *Sharded) Members() []Member {
	var out []Member
	for _, e := range sh.shards {
		out = append(out, e.Members()...)
	}
	return out
}

// Match filters one event against every shard and merges the results in
// shard order. The merged id set equals the single-tree match set; the
// operation count is the sum over shards (each shard pays its own root
// dispatch). Shards are visited sequentially in the caller's goroutine —
// per-shard matches are far cheaper than cross-goroutine handoff, so
// parallelism comes from concurrent publishers.
//
//genas:hotpath
func (sh *Sharded) Match(vals []float64) ([]predicate.ID, int, error) {
	// The shards append into pooled scratch, so the id slice, fresh and the
	// caller's, nil when nothing matched as with Engine.Match, is the one
	// allocation per event TestShardedMatchAllocations pins.
	return matchIDs(sh, vals)
}

// MatchAppend is Match appending every shard's members to dst, which the
// caller owns: the engine keeps neither dst nor the returned slice, so a
// reused buffer that is large enough makes the match allocate nothing. An
// empty filter returns dst as given, an error nil.
//
//genas:hotpath
func (sh *Sharded) MatchAppend(vals []float64, dst []Member) ([]Member, int, error) {
	ms, ops, empties := dst, 0, 0
	for _, e := range sh.shards {
		var sops int
		var empty bool
		var err error
		ms, sops, empty, err = e.matchInto(vals, ms)
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
		return dst, 0, nil // an empty filter matches nothing
	}
	sh.account.Record(ops)
	return ms, ops, nil
}

// eachShard runs f on every shard in turn, in the caller's goroutine. Each
// shard swaps its own snapshot under its own lock, so matching never stops
// during a restructure. An empty shard (f returns ErrNoProfiles) is skipped;
// ErrNoProfiles is returned only when every shard is empty, as Engine
// returns it for an empty corpus.
func (sh *Sharded) eachShard(f func(e *Engine) error) error {
	var errs []error
	empty := 0
	for _, e := range sh.shards {
		if err := f(e); errors.Is(err, ErrNoProfiles) {
			empty++
		} else if err != nil {
			errs = append(errs, err)
		}
	}
	if empty == len(sh.shards) {
		return ErrNoProfiles
	}
	return errors.Join(errs...)
}

// Rebuild reconstructs every non-empty shard's automaton.
func (sh *Sharded) Rebuild() error {
	return sh.eachShard((*Engine).Rebuild)
}

// Reorder re-applies the value ordering on every non-empty shard (the cheap
// half of restructuring), summing the shards' node counts.
func (sh *Sharded) Reorder(attrs ...int) (resorted, copied int, err error) {
	err = sh.eachShard(func(e *Engine) error {
		r, c, err := e.Reorder(attrs...)
		resorted += r
		copied += c
		return err
	})
	return resorted, copied, err
}

// Config returns a copy of the current configuration (identical across
// shards).
func (sh *Sharded) Config() Config { return sh.shards[0].Config() }

// SetConfig replaces the configuration on every shard; the change takes
// effect on the next Rebuild or Reorder.
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

// Account returns the live operation accounting summary.
func (sh *Sharded) Account() stats.Summary { return sh.account.Summary() }

// Analyze merges the analytic cost model across shards. Expected operations
// add (every event visits every shard); the match probability combines as
// 1−Π(1−pᵢ) under the shards' independent corpora; PerProfile holds one entry
// per indexed root (selectivity.Analysis), in shard order.
func (sh *Sharded) Analyze() (selectivity.Analysis, error) {
	var out selectivity.Analysis
	missProb := 1.0
	err := sh.eachShard(func(e *Engine) error {
		a, err := e.Analyze()
		if err != nil {
			return err
		}
		out.MatchOps += a.MatchOps
		out.R0Ops += a.R0Ops
		out.TotalOps += a.TotalOps
		out.ExpMatches += a.ExpMatches
		missProb *= 1 - a.MatchProb
		out.PerLevelOps = addLevels(out.PerLevelOps, a.PerLevelOps)
		out.PerLevelMatch = addLevels(out.PerLevelMatch, a.PerLevelMatch)
		out.PerLevelR0 = addLevels(out.PerLevelR0, a.PerLevelR0)
		out.PerProfile = append(out.PerProfile, a.PerProfile...)
		return nil
	})
	if err != nil {
		return selectivity.Analysis{}, err
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
