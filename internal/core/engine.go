// Package core assembles the paper's primary contribution: the
// distribution-dependent tree filter (§4). An Engine owns the profile
// corpus, builds the profile-tree automaton, applies the configured
// selectivity measures — value measures V1–V3 and attribute measures A1–A3 —
// and filters events while accounting operations.
//
// The engine "evaluates first those event-values and attributes that have
// the highest selectivity": attributes with high selectivity move to the top
// levels of the tree and, inside every node, values with the highest
// selectivity are tested first (§4.1).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"genas/internal/agg"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/selectivity"
	"genas/internal/stats"
	"genas/internal/tree"
)

// ValueMeasure selects the within-node value ordering.
type ValueMeasure int

// Value orderings: the prototype's four orders, each ascending or
// descending, plus binary search handled via Config.Search ("We tested all
// permutations … with 8 different orderings plus binary search", §4.3).
const (
	ValueNatural ValueMeasure = iota + 1
	ValueNaturalDesc
	ValueEvent // Measure V1, descending P_e
	ValueEventAsc
	ValueProfile // Measure V2, descending P_p
	ValueProfileAsc
	ValueCombined // Measure V3, descending P_e·P_p
	ValueCombinedAsc
)

// String names the measure as used in experiment tables.
func (v ValueMeasure) String() string {
	switch v {
	case ValueNatural:
		return "natural"
	case ValueNaturalDesc:
		return "natural-desc"
	case ValueEvent:
		return "event"
	case ValueEventAsc:
		return "event-asc"
	case ValueProfile:
		return "profile"
	case ValueProfileAsc:
		return "profile-asc"
	case ValueCombined:
		return "event*profile"
	case ValueCombinedAsc:
		return "event*profile-asc"
	default:
		return fmt.Sprintf("ValueMeasure(%d)", int(v))
	}
}

// AttrOrdering selects the attribute (level) ordering.
type AttrOrdering int

// Attribute orderings. AttrNatural keeps schema order; AttrA1/AttrA2/AttrA3
// apply the corresponding selectivity measure descending (most selective at
// the root); the Asc variants are the paper's worst-case controls.
const (
	AttrNatural AttrOrdering = iota + 1
	AttrA1
	AttrA1Asc
	AttrA2
	AttrA2Asc
	AttrA3
)

// String names the ordering.
func (a AttrOrdering) String() string {
	switch a {
	case AttrNatural:
		return "natural"
	case AttrA1:
		return "A1-desc"
	case AttrA1Asc:
		return "A1-asc"
	case AttrA2:
		return "A2-desc"
	case AttrA2Asc:
		return "A2-asc"
	case AttrA3:
		return "A3"
	default:
		return fmt.Sprintf("AttrOrdering(%d)", int(a))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// ValueMeasure selects the node-internal value order (default natural).
	ValueMeasure ValueMeasure
	// AttrOrdering selects the level order (default natural).
	AttrOrdering AttrOrdering
	// Search selects the within-node strategy (default linear with the
	// lookup-table early-termination rule).
	Search tree.Search
	// EventDists is P_e per schema attribute. Nil means uniform; the
	// adaptive component replaces it with live histogram snapshots.
	EventDists []dist.Dist
	// ProfileDists is P_p per schema attribute. Nil means the empirical
	// profile distribution derived from the corpus itself.
	ProfileDists []dist.Dist
	// Aggregate enables canonical subscription aggregation (internal/agg):
	// structurally identical profiles intern onto one canonical node,
	// covered structures hang beneath their coverer in a poset, and the
	// automaton indexes only the poset roots — concrete ids are expanded
	// through the poset per match. Match cost then grows with distinct
	// predicate structure, not subscriber count. Construction-time only:
	// SetConfig cannot toggle it.
	Aggregate bool
}

// Errors returned by the engine.
var (
	ErrDuplicateProfile = errors.New("core: duplicate profile id")
	ErrUnknownProfile   = errors.New("core: unknown profile id")
	ErrNoProfiles       = errors.New("core: no profiles registered")
)

// snapshot is one immutable published state of the engine's automaton.
// Matches load the snapshot pointer once and traverse it without any lock:
// successor snapshots share untouched nodes with their predecessor, and no
// published tree is ever mutated. Three states exist:
//
//   - empty: no profiles are registered; matching is a lock-free no-op.
//   - stale (tree == nil, empty == false): profiles exist but the automaton
//     must be (re)built — the next reader builds it lazily under e.mu, so
//     bulk registration before the first publish stays cheap.
//   - built (tree != nil): ready to traverse.
type snapshot struct {
	tree  *tree.Tree
	empty bool
	// expand and t2n exist only under aggregation: expand is the frozen
	// poset image matched ids are expanded through, and t2n maps each tree
	// slot (dense index) to its poset node. t2n is append-only across
	// successor snapshots — writes land past every predecessor's length —
	// so snapshots share its backing array like the tree shares nodes.
	expand *agg.Snapshot
	t2n    []int32
}

// Engine is the distribution-based filter component. It is safe for
// concurrent use: matches are lock-free against the current snapshot, while
// profile churn, rebuilds and reconfiguration serialize on an internal
// mutex and publish successor snapshots atomically (RCU-style). Subscribe
// and unsubscribe therefore never contend with the publish hot path.
type Engine struct {
	snap    atomic.Pointer[snapshot]
	mu      sync.Mutex // serializes writers: churn, rebuilds, config
	schema  *schema.Schema
	cfg     Config
	byID    map[predicate.ID]int
	dense   []*predicate.Profile
	account stats.OpAccount

	// treeIdx maps profile id to its dense index inside the published tree
	// (tree indices are append-only between rebuilds, so they drift from
	// e.dense, which swap-removes). Valid only while snap.tree != nil.
	treeIdx map[predicate.ID]int
	// edits counts incremental transforms since the last full rebuild; once
	// it passes coalesceThreshold the next churn op rebuilds, restoring the
	// canonical structure and clearing tombstones.
	edits int
	// vo is the value order applied at the last rebuild, reused by
	// incremental inserts (recomputing empirical measures per insert would
	// rescan the corpus; drift between rebuilds is bounded by coalescing).
	vo tree.ValueOrder

	// Aggregation state (cfg.Aggregate): the covering poset replaces
	// byID/dense entirely — per-subscription state collapses to one SubRef
	// inside the poset. t2n is the write side of snapshot.t2n; nodeTree
	// maps a poset node index back to its tree slot for demotions.
	agg      *agg.Poset
	t2n      []int32
	nodeTree map[int32]int
}

// coalesceThreshold returns the edit budget before the next churn operation
// pays a full rebuild: proportional to the corpus so large engines don't
// rebuild constantly, floored so small ones don't rebuild on every edit.
func (e *Engine) coalesceThreshold() int {
	// Four edits per live profile before paying a full rebuild: successor
	// trees fragment slowly (each insert adds at most a few cuts per level)
	// and tombstones only cost a bitmap test at translation, so rebuilding
	// once per corpus-sized batch of edits trades a small match-path drift
	// for keeping the rebuild entirely off the steady churn path. Under
	// aggregation the automaton's size driver is the canonical node count,
	// not the subscriber count, so the budget scales with that instead.
	size := len(e.dense)
	if e.agg != nil {
		size = e.agg.NodeCount()
	}
	if n := 2 * size; n > 128 {
		return n
	}
	return 128
}

// NewEngine creates an engine over schema s.
func NewEngine(s *schema.Schema, cfg Config) *Engine {
	if cfg.ValueMeasure == 0 {
		cfg.ValueMeasure = ValueNatural
	}
	if cfg.AttrOrdering == 0 {
		cfg.AttrOrdering = AttrNatural
	}
	if cfg.Search == 0 {
		cfg.Search = tree.SearchLinear
	}
	e := &Engine{
		schema: s,
		cfg:    cfg,
	}
	if cfg.Aggregate {
		e.agg = agg.NewPoset(s)
	} else {
		e.byID = make(map[predicate.ID]int)
	}
	e.snap.Store(&snapshot{empty: true})
	return e
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// AddProfile registers a profile. When an automaton is live the profile is
// inserted incrementally (a successor snapshot sharing the untouched node
// graph); otherwise the tree is built lazily on the next match.
func (e *Engine) AddProfile(p *predicate.Profile) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg != nil {
		return e.addAggLocked(p)
	}
	if _, dup := e.byID[p.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateProfile, p.ID)
	}
	e.byID[p.ID] = len(e.dense)
	e.dense = append(e.dense, p)
	snap := e.snap.Load()
	switch {
	case snap.empty:
		e.snap.Store(&snapshot{})
	case snap.tree == nil:
		// Already stale; the pending lazy build picks the profile up.
	default:
		e.edits++
		if e.edits >= e.coalesceThreshold() {
			e.coalesceLocked()
			return nil
		}
		nt, ti := snap.tree.WithProfile(p, e.vo)
		e.treeIdx[p.ID] = ti
		e.snap.Store(&snapshot{tree: nt})
	}
	return nil
}

// addAggLocked is AddProfile's aggregation path: the subscription joins its
// canonical node in the poset; the automaton changes only when a new
// structure enters as a root (indexed) or demotes existing roots beneath it
// (tombstoned — they stay reachable through the new root's expansion edges).
// Every churn op republishes the frozen expansion image, so in-flight
// matches keep expanding against the state they matched under.
func (e *Engine) addAggLocked(p *predicate.Profile) error {
	if e.agg.Has(p.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateProfile, p.ID)
	}
	res := e.agg.Add(p)
	snap := e.snap.Load()
	switch {
	case snap.empty:
		e.snap.Store(&snapshot{})
	case snap.tree == nil:
		// Already stale; the pending lazy build picks the node up.
	default:
		e.edits++
		if e.edits >= e.coalesceThreshold() {
			e.coalesceLocked()
			return nil
		}
		t := snap.tree
		for _, d := range res.Demoted {
			ti, ok := e.nodeTree[d]
			if !ok {
				e.snap.Store(&snapshot{}) // defensive: force a lazy rebuild
				return nil
			}
			delete(e.nodeTree, d)
			t = t.WithoutProfile(ti)
		}
		if res.NewRoot != nil {
			var ti int
			t, ti = t.WithProfile(res.NewRoot, e.vo)
			if ti != len(e.t2n) {
				e.snap.Store(&snapshot{}) // defensive: slot table out of step
				return nil
			}
			e.t2n = append(e.t2n, res.NodeIdx)
			e.nodeTree[res.NodeIdx] = ti
		}
		e.snap.Store(&snapshot{tree: t, expand: e.agg.Freeze(), t2n: e.t2n})
	}
	return nil
}

// RemoveProfile unregisters a profile by id. When an automaton is live the
// profile is tombstoned in a successor snapshot (O(1)); tombstones are
// compacted by the next coalescing rebuild.
func (e *Engine) RemoveProfile(id predicate.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg != nil {
		return e.removeAggLocked(id)
	}
	i, ok := e.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProfile, id)
	}
	last := len(e.dense) - 1
	e.dense[i] = e.dense[last]
	e.dense = e.dense[:last]
	delete(e.byID, id)
	if i < last {
		e.byID[e.dense[i].ID] = i
	}
	snap := e.snap.Load()
	switch {
	case len(e.dense) == 0:
		e.storeEmptyLocked()
	case snap.empty || snap.tree == nil:
		// Nothing published or already stale; the next build reads e.dense.
	default:
		ti, ok := e.treeIdx[id]
		if !ok {
			// Defensive: unknown tree index, fall back to a lazy rebuild.
			e.snap.Store(&snapshot{})
			return nil
		}
		delete(e.treeIdx, id)
		e.edits++
		if e.edits >= e.coalesceThreshold() {
			e.coalesceLocked()
			return nil
		}
		e.snap.Store(&snapshot{tree: snap.tree.WithoutProfile(ti)})
	}
	return nil
}

// removeAggLocked is RemoveProfile's aggregation path. Dropping a member
// usually leaves the automaton untouched (only the expansion image
// refreshes); when a canonical node loses its last member it detaches
// eagerly — its tree slot is tombstoned if it was a root, and formerly
// covered nodes promoted by the detach are indexed, so a covered
// subscription resurfaces the moment its last coverer leaves.
func (e *Engine) removeAggLocked(id predicate.ID) error {
	res, ok := e.agg.Remove(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProfile, id)
	}
	snap := e.snap.Load()
	switch {
	case e.agg.SubCount() == 0:
		e.storeEmptyLocked()
	case snap.empty || snap.tree == nil:
		// Nothing published or already stale; the next build reads the poset.
	default:
		e.edits++
		if e.edits >= e.coalesceThreshold() {
			e.coalesceLocked()
			return nil
		}
		t := snap.tree
		if res.Emptied && res.WasRoot {
			ti, ok := e.nodeTree[res.NodeIdx]
			if !ok {
				e.snap.Store(&snapshot{}) // defensive: force a lazy rebuild
				return nil
			}
			delete(e.nodeTree, res.NodeIdx)
			t = t.WithoutProfile(ti)
		}
		for _, pr := range res.Promoted {
			var ti int
			t, ti = t.WithProfile(pr.Rep, e.vo)
			if ti != len(e.t2n) {
				e.snap.Store(&snapshot{}) // defensive: slot table out of step
				return nil
			}
			e.t2n = append(e.t2n, pr.Idx)
			e.nodeTree[pr.Idx] = ti
		}
		e.snap.Store(&snapshot{tree: t, expand: e.agg.Freeze(), t2n: e.t2n})
	}
	return nil
}

// coalesceLocked replaces the incrementally grown automaton with a freshly
// built one (canonical structure, ordering recomputed, tombstones cleared).
// Build errors (e.g. an A3 ordering failure) must not fail the churn
// operation — the corpus update already happened — so on error the engine
// publishes a stale snapshot and the error surfaces on the next match.
func (e *Engine) coalesceLocked() {
	if err := e.rebuildLocked(); err != nil {
		e.snap.Store(&snapshot{})
	}
}

func (e *Engine) storeEmptyLocked() {
	e.snap.Store(&snapshot{empty: true})
	e.treeIdx = nil
	e.edits = 0
	e.t2n = nil
	e.nodeTree = nil
	if e.agg != nil && e.agg.SubCount() == 0 {
		// Going empty is the natural point to drop the holes and edge
		// fragments churn left behind.
		e.agg = agg.NewPoset(e.schema)
	}
}

// ProfileCount returns the number of registered profiles (concrete
// subscriptions, not canonical nodes, under aggregation).
func (e *Engine) ProfileCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg != nil {
		return e.agg.SubCount()
	}
	return len(e.dense)
}

// Profiles returns a copy of the registered profiles. Under aggregation the
// originals are not retained — that is the memory win — so each entry is
// synthesized from its canonical node: the id and priority are the
// subscriber's, the predicate column is the node's representative (an
// equivalent constraint, possibly spelled differently than the original).
func (e *Engine) Profiles() []*predicate.Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg != nil {
		return e.agg.Profiles()
	}
	out := make([]*predicate.Profile, len(e.dense))
	copy(out, e.dense)
	return out
}

// eventDists returns P_e, defaulting to uniform per attribute.
func (e *Engine) eventDists() []dist.Dist {
	if e.cfg.EventDists != nil {
		return e.cfg.EventDists
	}
	ds := make([]dist.Dist, e.schema.N())
	for i := range ds {
		ds[i] = dist.New(dist.UniformShape{}, e.schema.At(i).Domain)
	}
	return ds
}

// corpusLocked returns the profile set the automaton indexes and the
// selectivity measures rank over: the dense corpus, or the poset's
// canonical roots under aggregation. Callers hold e.mu.
func (e *Engine) corpusLocked() []*predicate.Profile {
	if e.agg == nil {
		return e.dense
	}
	roots := e.agg.RootList()
	out := make([]*predicate.Profile, len(roots))
	for i, r := range roots {
		out[i] = r.Rep
	}
	return out
}

// valueOrder materializes the configured value measure over corpus.
func (e *Engine) valueOrder(corpus []*predicate.Profile) tree.ValueOrder {
	ed := e.eventDists()
	pd := e.cfg.ProfileDists
	switch e.cfg.ValueMeasure {
	case ValueNaturalDesc:
		return selectivity.NaturalDesc()
	case ValueEvent:
		return selectivity.V1(ed, true)
	case ValueEventAsc:
		return selectivity.V1(ed, false)
	case ValueProfile:
		if pd == nil {
			return selectivity.V2Empirical(e.schema, corpus, true)
		}
		return selectivity.V2(pd, true)
	case ValueProfileAsc:
		if pd == nil {
			return selectivity.V2Empirical(e.schema, corpus, false)
		}
		return selectivity.V2(pd, false)
	case ValueCombined, ValueCombinedAsc:
		desc := e.cfg.ValueMeasure == ValueCombined
		if pd == nil {
			emp := selectivity.V2Empirical(e.schema, corpus, desc)
			v1 := selectivity.V1(ed, desc)
			return tree.ValueOrder{
				Name:       "event*profile-emp",
				Descending: desc,
				Rank: func(attr int, region []tree.Interval) float64 {
					return v1.Rank(attr, region) * emp.Rank(attr, region)
				},
			}
		}
		return selectivity.V3(ed, pd, desc)
	default:
		return selectivity.Natural()
	}
}

// attrOrder computes the configured attribute order over corpus.
func (e *Engine) attrOrder(corpus []*predicate.Profile) ([]int, error) {
	switch e.cfg.AttrOrdering {
	case AttrA1, AttrA1Asc:
		st := selectivity.AttributeStats(e.schema, corpus, nil)
		return selectivity.OrderAttributes(st, selectivity.MeasureA1, e.cfg.AttrOrdering == AttrA1), nil
	case AttrA2, AttrA2Asc:
		st := selectivity.AttributeStats(e.schema, corpus, e.eventDists())
		return selectivity.OrderAttributes(st, selectivity.MeasureA2, e.cfg.AttrOrdering == AttrA2), nil
	case AttrA3:
		order, _, err := selectivity.OrderAttributesA3(
			e.schema, corpus, e.eventDists(), e.valueOrder(corpus), e.cfg.Search)
		return order, err
	default:
		order := make([]int, e.schema.N())
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
}

// Rebuild reconstructs the automaton with the current configuration. It is
// the expensive half of restructuring; Reorder is the cheap half.
func (e *Engine) Rebuild() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked()
}

// rebuildLocked builds a fresh automaton from the current corpus and
// publishes it. Callers hold e.mu.
func (e *Engine) rebuildLocked() error {
	if e.agg != nil {
		return e.rebuildAggLocked()
	}
	if len(e.dense) == 0 {
		e.storeEmptyLocked()
		return ErrNoProfiles
	}
	order, err := e.attrOrder(e.dense)
	if err != nil {
		return err
	}
	// The automaton keeps its own copy of the corpus: RemoveProfile mutates
	// e.dense in place, and in-flight matches must keep translating dense
	// indices against the snapshot that produced them.
	corpus := make([]*predicate.Profile, len(e.dense))
	copy(corpus, e.dense)
	t, err := tree.Build(e.schema, corpus,
		tree.WithAttributeOrder(order), tree.WithSearch(e.cfg.Search))
	if err != nil {
		return err
	}
	vo := e.valueOrder(corpus)
	// The tree is not published yet, so the in-place ordering pass is safe.
	t.ApplyValueOrder(vo)
	e.vo = vo
	e.treeIdx = make(map[predicate.ID]int, len(corpus))
	for i, p := range corpus {
		e.treeIdx[p.ID] = i
	}
	e.edits = 0
	e.snap.Store(&snapshot{tree: t})
	return nil
}

// rebuildAggLocked is rebuildLocked under aggregation: the poset compacts
// (clearing churn holes and redundant edges), the automaton is rebuilt over
// the canonical roots only, and the slot↔node tables are derived fresh.
func (e *Engine) rebuildAggLocked() error {
	if e.agg.SubCount() == 0 {
		e.storeEmptyLocked()
		return ErrNoProfiles
	}
	e.agg.Compact()
	roots := e.agg.RootList()
	corpus := make([]*predicate.Profile, len(roots))
	t2n := make([]int32, len(roots))
	nodeTree := make(map[int32]int, len(roots))
	for i, r := range roots {
		corpus[i] = r.Rep
		t2n[i] = r.Idx
		nodeTree[r.Idx] = i
	}
	order, err := e.attrOrder(corpus)
	if err != nil {
		return err
	}
	t, err := tree.Build(e.schema, corpus,
		tree.WithAttributeOrder(order), tree.WithSearch(e.cfg.Search))
	if err != nil {
		return err
	}
	vo := e.valueOrder(corpus)
	// The tree is not published yet, so the in-place ordering pass is safe.
	t.ApplyValueOrder(vo)
	e.vo = vo
	e.t2n = t2n
	e.nodeTree = nodeTree
	e.edits = 0
	e.snap.Store(&snapshot{tree: t, expand: e.agg.Freeze(), t2n: t2n})
	return nil
}

// Reorder re-applies the value ordering on the existing structure (cheap
// restructuring after a distribution update). The reordered automaton is
// published as a successor snapshot; in-flight matches finish on the old
// order.
func (e *Engine) Reorder() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.empty || snap.tree == nil {
		return e.rebuildLocked()
	}
	vo := e.valueOrder(e.corpusLocked())
	e.vo = vo
	e.snap.Store(&snapshot{tree: snap.tree.Reordered(vo), expand: snap.expand, t2n: snap.t2n})
	return nil
}

// SetEventDists replaces P_e (the adaptive component's entry point) without
// restructuring; call Reorder or Rebuild to apply it.
func (e *Engine) SetEventDists(ds []dist.Dist) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.EventDists = ds
}

// Config returns a copy of the current configuration.
func (e *Engine) Config() Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg
}

// SetConfig replaces the measure/search configuration. The published
// automaton is invalidated; the next match rebuilds with the new settings.
func (e *Engine) SetConfig(cfg Config) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cfg.ValueMeasure == 0 {
		cfg.ValueMeasure = e.cfg.ValueMeasure
	}
	if cfg.AttrOrdering == 0 {
		cfg.AttrOrdering = e.cfg.AttrOrdering
	}
	if cfg.Search == 0 {
		cfg.Search = e.cfg.Search
	}
	// Aggregation is a construction-time layout decision (the poset either
	// holds the corpus or the dense slice does); a zero-value cfg must not
	// silently discard it.
	cfg.Aggregate = e.cfg.Aggregate
	e.cfg = cfg
	if snap := e.snap.Load(); !snap.empty {
		e.snap.Store(&snapshot{})
	}
}

// lazySnapshot resolves a stale snapshot: it (re)builds the automaton under
// the writer mutex, unless a concurrent writer already did, and returns the
// resulting built or empty snapshot (never a stale one). Matching needs the
// whole snapshot, not just the tree: under aggregation the expansion image
// and slot table published alongside it must come from the same build.
func (e *Engine) lazySnapshot() (*snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.empty || snap.tree != nil {
		return snap, nil
	}
	if err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e.snap.Load(), nil
}

// Match filters one event, returning matched profile IDs and the operations
// spent. The traversal is lock-free: it runs against the current immutable
// snapshot, so concurrent profile churn cannot block or skew it. IDs are
// resolved against the same snapshot that produced the match.
//
//genas:hotpath
func (e *Engine) Match(vals []float64) ([]predicate.ID, int, error) {
	ids, ops, empty, err := e.matchIDs(vals, nil)
	if err != nil || empty {
		return nil, 0, err
	}
	e.account.Record(ops, len(ids))
	return ids, ops, nil
}

// matchIDs is Match without operation accounting, appending matched ids to
// dst: the sharded engine merges per-shard results into one buffer and
// accounts once per event at the top level. empty reports that the engine
// holds no profiles (which matches nothing and does not count as a filtered
// event).
//
//genas:hotpath
func (e *Engine) matchIDs(vals []float64, dst []predicate.ID) (ids []predicate.ID, ops int, empty bool, err error) {
	snap := e.snap.Load()
	if snap.empty {
		return dst, 0, true, nil
	}
	if snap.tree == nil {
		snap, err = e.lazySnapshot()
		if err != nil {
			return dst, 0, false, err
		}
		if snap.empty {
			return dst, 0, true, nil
		}
	}
	t := snap.tree
	matched, matchOps := t.Match(vals)
	ids = dst
	if ids == nil {
		ids = make([]predicate.ID, 0, len(matched))
	}
	if snap.expand != nil {
		// Aggregated: the tree matched canonical roots; expand them through
		// the poset image into concrete subscription ids, charging the
		// descent evaluations to the event like tree comparisons.
		var expOps int
		ids, expOps = snap.expand.Expand(vals, matched, snap.t2n, t, ids)
		return ids, matchOps + expOps, false, nil
	}
	profiles := t.Profiles()
	if t.HasDead() {
		for _, pi := range matched {
			if t.Dead(pi) {
				continue
			}
			ids = append(ids, profiles[pi].ID)
		}
	} else {
		for _, pi := range matched {
			ids = append(ids, profiles[pi].ID)
		}
	}
	return ids, matchOps, false, nil
}

// Tree exposes the current automaton (nil until first built). A stale
// snapshot (pending lazy rebuild) is resolved first, so the returned tree
// reflects the current corpus and configuration; it may be superseded by
// the time the caller inspects it.
func (e *Engine) Tree() *tree.Tree {
	snap := e.snap.Load()
	if snap.empty {
		return nil
	}
	if snap.tree != nil {
		return snap.tree
	}
	sn, err := e.lazySnapshot()
	if err != nil || sn == nil {
		return nil
	}
	return sn.tree
}

// Analyze runs the analytic cost model (Eq. 2) under the engine's event
// distributions. The model is defined over the live corpus, so a tombstoned
// or stale automaton is coalesced first.
func (e *Engine) Analyze() (selectivity.Analysis, error) {
	e.mu.Lock()
	snap := e.snap.Load()
	if snap.empty {
		e.mu.Unlock()
		return selectivity.Analysis{}, ErrNoProfiles
	}
	if snap.tree == nil || snap.tree.HasDead() || e.edits > 0 {
		if err := e.rebuildLocked(); err != nil {
			e.mu.Unlock()
			return selectivity.Analysis{}, err
		}
		snap = e.snap.Load()
	}
	t := snap.tree
	ed := e.eventDists()
	e.mu.Unlock()
	return selectivity.Analyze(t, ed), nil
}

// AggStats summarizes the aggregation layer's shape. Enabled is false on an
// unaggregated filter, where the other fields are zero.
type AggStats struct {
	// Enabled reports whether canonical aggregation is active.
	Enabled bool
	// Subscriptions is the concrete subscription count.
	Subscriptions int
	// Nodes is the canonical node count — the real index size driver.
	Nodes int
	// Roots is the number of nodes the automaton actually indexes.
	Roots int
	// MaxDepth is the longest covering chain, in nodes (max across shards
	// for a sharded filter).
	MaxDepth int
}

// Ratio returns profiles-per-canonical-node — the aggregation compression
// factor (0 when empty or disabled).
func (s AggStats) Ratio() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Subscriptions) / float64(s.Nodes)
}

// AggStats reports the aggregation layer's shape.
func (e *Engine) AggStats() AggStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg == nil {
		return AggStats{}
	}
	st := e.agg.Stats()
	return AggStats{
		Enabled:       true,
		Subscriptions: st.Subscriptions,
		Nodes:         st.Nodes,
		Roots:         st.Roots,
		MaxDepth:      st.MaxDepth,
	}
}

// Account returns the live operation accounting summary.
func (e *Engine) Account() stats.Summary { return e.account.Summary() }

// ResetAccount clears operation accounting.
func (e *Engine) ResetAccount() { e.account.Reset() }
