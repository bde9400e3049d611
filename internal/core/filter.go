package core

import (
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/stats"
)

// Filter is the matching surface the broker (and every component above it)
// programs against: a subscription table, a match path, restructuring entry
// points and operation accounting. It holds only what those callers reach
// through it; both engines have more methods. Two implementations exist —
// the single-tree Engine and the N-way Sharded engine — so the choice of
// concurrency layout is a construction-time decision, not an API change.
// A match yields the members the caller added, so the caller needs no table
// of its own to find the subscriber behind a match.
type Filter interface {
	// Schema returns the attribute schema the filter matches against.
	Schema() *schema.Schema
	// Add registers a member under its profile's id (rebuilt lazily on the
	// next match). It fails only on a duplicate id (ErrDuplicateProfile).
	Add(m Member) error
	// Remove unregisters the member registered under id and returns it.
	Remove(id predicate.ID) (Member, error)
	// Members returns the registered members, each as it was registered.
	Members() []Member
	// MatchAppend filters one event, appending the matched members to dst
	// and returning them with the operations spent. dst belongs to the
	// caller before and after the call: the filter keeps neither it nor the
	// returned slice, so one buffer can serve every event.
	MatchAppend(vals []float64, dst []Member) ([]Member, int, error)
	// Rebuild reconstructs the automaton(s) with the current configuration.
	Rebuild() error
	// Reorder re-applies the value ordering without rebuilding structure, to
	// the nodes testing one of attrs (none given: to all), and reports the
	// nodes re-sorted and the nodes only path-copied.
	Reorder(attrs ...int) (resorted, copied int, err error)
	// Config returns a copy of the current configuration.
	Config() Config
	// SetConfig replaces the attribute ordering and event distributions
	// (applied on the next Rebuild or Reorder).
	SetConfig(cfg Config)
	// AggStats reports the shape of the index: subscriptions, canonical
	// nodes, indexed roots, covering depth.
	AggStats() AggStats
	// Account returns the live operation accounting summary.
	Account() stats.Summary
	// Analyze runs the analytic cost model (Eq. 2) under the filter's event
	// distributions.
	Analyze() (selectivity.Analysis, error)
}

// Both engines implement Filter.
var (
	_ Filter = (*Engine)(nil)
	_ Filter = (*Sharded)(nil)
)
