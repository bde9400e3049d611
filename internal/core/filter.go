package core

import (
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/stats"
)

// Filter is the matching surface the broker (and every component above it)
// programs against: a profile corpus, a match path, restructuring entry
// points and operation accounting. Two implementations exist — the
// single-tree Engine and the N-way Sharded engine — so the choice of
// concurrency layout is a construction-time decision, not an API change.
type Filter interface {
	// Schema returns the attribute schema the filter matches against.
	Schema() *schema.Schema
	// AddProfile registers a profile (rebuilt lazily on the next match).
	AddProfile(p *predicate.Profile) error
	// RemoveProfile unregisters a profile by id.
	RemoveProfile(id predicate.ID) error
	// ProfileCount returns the number of registered profiles.
	ProfileCount() int
	// Profiles returns the registered profiles, each carrying its canonical
	// structure's first spelling.
	Profiles() []*predicate.Profile
	// Match filters one event, returning matched ids and operations spent.
	Match(vals []float64) ([]predicate.ID, int, error)
	// MatchBatch filters many events against one corpus snapshot; results
	// align positionally with the input. workers ≤ 0 selects GOMAXPROCS.
	MatchBatch(events [][]float64, workers int) ([]BatchResult, error)
	// Rebuild reconstructs the automaton(s) with the current configuration.
	Rebuild() error
	// Reorder re-applies the value ordering without rebuilding structure, to
	// the nodes testing one of attrs (none given: to all), and reports the
	// nodes re-sorted and the nodes only path-copied.
	Reorder(attrs ...int) (resorted, copied int, err error)
	// Config returns a copy of the current configuration.
	Config() Config
	// SetConfig replaces the measure/search configuration (applied on the
	// next Rebuild or Reorder).
	SetConfig(cfg Config)
	// SetEventDists replaces P_e (the adaptive component's entry point).
	SetEventDists(ds []dist.Dist)
	// AggStats reports the shape of the index: subscriptions, canonical
	// nodes, indexed roots, covering depth.
	AggStats() AggStats
	// Account returns the live operation accounting summary.
	Account() stats.Summary
	// ResetAccount clears operation accounting.
	ResetAccount()
	// Analyze runs the analytic cost model (Eq. 2) under the filter's event
	// distributions.
	Analyze() (selectivity.Analysis, error)
}

// Both engines implement Filter.
var (
	_ Filter = (*Engine)(nil)
	_ Filter = (*Sharded)(nil)
)
