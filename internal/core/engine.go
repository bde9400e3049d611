// Package core assembles the paper's primary contribution: the
// distribution-dependent tree filter (§4). An Engine owns the profile
// corpus, builds the profile-tree automaton, applies the configured
// selectivity measures — value measures V1–V3 and attribute measures A1–A3 —
// and filters events while accounting operations.
//
// The corpus has one index: the covering poset of canonical structures
// (internal/agg). Subscriptions intern onto canonical nodes, covered nodes
// hang beneath their coverers, the automaton indexes the poset's roots, and
// a match expands the roots it reached into subscription ids. Match cost
// grows with distinct predicate structure, not with subscriber count.
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
	// Search selects the within-node strategy (default tree.DefaultSearch;
	// tree.SearchLinear is the paper's scan).
	Search tree.Search
	// EventDists is P_e per schema attribute. Nil means uniform; the
	// adaptive component replaces it with live histogram snapshots.
	EventDists []dist.Dist
	// ProfileDists is P_p per schema attribute. Nil means the empirical
	// profile distribution derived from the corpus itself.
	ProfileDists []dist.Dist
	// Aggregate selects nothing: canonical subscription aggregation
	// (internal/agg) is the engine's only index, so the field is accepted
	// and ignored. It stays for the callers that still set it.
	Aggregate bool
}

// Errors returned by the engine.
var (
	ErrDuplicateProfile = errors.New("core: duplicate profile id")
	ErrUnknownProfile   = errors.New("core: unknown profile id")
	ErrNoProfiles       = errors.New("core: no profiles registered")
)

// snapshot is one immutable published state of the engine's index. Matches
// load the snapshot pointer once and traverse it without any lock: successor
// snapshots share untouched nodes with their predecessor, and no published
// tree is ever mutated. Three states exist:
//
//   - empty: no profiles are registered; matching is a lock-free no-op.
//   - stale (tree == nil, empty == false): profiles exist but the automaton
//     must be (re)built — the next reader builds it lazily under e.mu, so
//     bulk registration before the first publish stays cheap.
//   - built (tree != nil): ready to traverse.
type snapshot struct {
	// tree is the automaton over the poset's roots.
	tree  *tree.Tree
	empty bool
	// expand is the frozen poset image matched roots are expanded through,
	// and t2n maps each tree slot (dense index) to its poset node. t2n is
	// append-only across successor snapshots — writes land past every
	// predecessor's length — so snapshots share its backing array like the
	// tree shares nodes.
	expand *agg.Snapshot
	t2n    []int32
}

// match filters one event through a built snapshot, appending the matched
// subscription ids to dst: the tree matches canonical roots and the poset
// image expands them into concrete ids, its descent evaluations charged to
// the event like tree comparisons.
//
//genas:hotpath
func (s *snapshot) match(vals []float64, dst []predicate.ID) ([]predicate.ID, int) {
	matched, ops := s.tree.Match(vals)
	dst, descents := s.expand.Expand(vals, matched, s.t2n, s.tree, dst)
	return dst, ops + descents
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
	account stats.OpAccount

	// agg is the index: the covering poset holds every subscription — one
	// SubRef on its canonical node — and the automaton indexes the poset's
	// roots only. t2n is the write side of snapshot.t2n; nodeTree maps a
	// poset node index back to its tree slot (-1: not indexed) for
	// demotions. Both are valid only while snap.tree != nil.
	agg      *agg.Poset
	t2n      []int32
	nodeTree []int32
	// edits counts the index edits since the last full rebuild: a root
	// indexed, a slot tombstoned, or a structure created or emptied beneath
	// a coverer (the automaton is untouched, but the poset's node table grew
	// or gained a hole). Once it reaches coalesceThreshold the churn op that
	// spent the budget rebuilds, restoring the canonical structure and
	// clearing tombstones and holes. A subscriber joining or leaving an
	// existing structure changes neither and is not an edit.
	edits int
	// vo is the value order applied at the last rebuild, reused by
	// incremental inserts (recomputing empirical measures per insert would
	// rescan the corpus; drift between rebuilds is bounded by coalescing).
	vo tree.ValueOrder
}

// coalesceThreshold returns the edit budget before the next churn operation
// pays a full rebuild: proportional to the index so large engines don't
// rebuild constantly, floored so small ones don't rebuild on every edit.
func (e *Engine) coalesceThreshold() int {
	// Two edits per canonical node before paying a full rebuild: successor
	// trees fragment slowly (each insert adds at most a few cuts per level)
	// and tombstones only cost a bitmap test at translation, so rebuilding
	// once per index-sized batch of edits trades a small match-path drift
	// for keeping the rebuild entirely off the steady churn path. The
	// automaton's size driver is the canonical node count, not the
	// subscriber count, so the budget scales with that.
	return max(2*e.agg.NodeCount(), 128)
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
		cfg.Search = tree.DefaultSearch
	}
	e := &Engine{schema: s, cfg: cfg, agg: agg.NewPoset(s)}
	e.snap.Store(&snapshot{empty: true})
	return e
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// AddProfile registers a profile: the subscription joins its canonical node
// in the poset. While no automaton is live the node is only interned — the
// lazy build on the next match links the poset in one pass. Otherwise the
// automaton changes only when a new structure enters as a root (indexed) or
// demotes existing roots beneath it (tombstoned — they stay reachable
// through the new root's expansion edges), in a successor snapshot sharing
// the untouched node graph.
func (e *Engine) AddProfile(p *predicate.Profile) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.agg.Has(p.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateProfile, p.ID)
	}
	snap := e.snap.Load()
	if snap.tree != nil {
		e.patchLocked(snap, e.agg.Add(p))
		return nil
	}
	e.agg.Intern(p)
	if snap.empty {
		e.snap.Store(&snapshot{})
	}
	return nil
}

// RemoveProfile unregisters a profile by id. Dropping a member usually
// leaves the automaton untouched; when a canonical node loses its last
// member it detaches eagerly — its tree slot is tombstoned if it was a root
// (O(1); the next coalescing rebuild compacts tombstones), and formerly
// covered nodes promoted by the detach are indexed, so a covered
// subscription resurfaces the moment its last coverer leaves.
func (e *Engine) RemoveProfile(id predicate.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.agg.Remove(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProfile, id)
	}
	if e.agg.SubCount() == 0 {
		e.resetLocked()
	} else if snap := e.snap.Load(); snap.tree != nil {
		e.patchLocked(snap, d)
	}
	// Otherwise the snapshot is stale already; the next build reads the poset.
	return nil
}

// patchLocked applies one churn op's root-set change to the live automaton
// and publishes the successor. Every churn op republishes the frozen
// expansion image, even when the tree is untouched, so in-flight matches
// keep expanding against the state they matched under.
func (e *Engine) patchLocked(snap *snapshot, d agg.Delta) {
	if n := len(d.Left) + len(d.Joined); n > 0 {
		e.edits += n
	} else if d.Nodes != 0 {
		e.edits++
	}
	if e.edits >= e.coalesceThreshold() {
		// Build errors (e.g. an A3 ordering failure) must not fail the
		// churn operation — the poset update already happened — so the
		// error surfaces on the next match, from the stale snapshot a
		// failed rebuild leaves.
		_ = e.rebuildLocked()
		return
	}
	t := snap.tree
	for _, ni := range d.Left {
		if int(ni) >= len(e.nodeTree) || e.nodeTree[ni] < 0 {
			e.snap.Store(&snapshot{}) // defensive: force a lazy rebuild
			return
		}
		t = t.WithoutProfile(int(e.nodeTree[ni]))
		e.nodeTree[ni] = -1
	}
	for _, r := range d.Joined {
		var ti int
		t, ti = t.WithProfile(r.Rep, e.vo)
		if ti != len(e.t2n) {
			e.snap.Store(&snapshot{}) // defensive: slot table out of step
			return
		}
		e.t2n = append(e.t2n, r.Idx)
		for int(r.Idx) >= len(e.nodeTree) {
			e.nodeTree = append(e.nodeTree, -1)
		}
		e.nodeTree[r.Idx] = int32(ti)
	}
	e.snap.Store(&snapshot{tree: t, expand: e.agg.Freeze(), t2n: e.t2n})
}

// resetLocked publishes the empty state. Going empty is the natural point
// to drop the holes and edge fragments churn left in the poset.
func (e *Engine) resetLocked() {
	e.snap.Store(&snapshot{empty: true})
	e.agg = agg.NewPoset(e.schema)
	e.t2n, e.nodeTree = nil, nil
	e.edits = 0
}

// ProfileCount returns the number of registered profiles (concrete
// subscriptions, not canonical nodes).
func (e *Engine) ProfileCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.SubCount()
}

// Profiles returns the registered profiles. The originals are not retained
// — one SubRef per subscriber is the memory the index costs — so each entry
// is synthesized from its canonical node: the id and priority are the
// subscriber's, the predicate column is the node's representative (an
// equivalent constraint, spelled the way the structure's first subscriber
// spelled it).
func (e *Engine) Profiles() []*predicate.Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.Profiles()
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

// empirical is Measure V2 estimated from the corpus when no profile
// distribution is configured. It ranks over the subscriptions, not over the
// roots the automaton indexes: a region's demand is its subscribers and
// their priorities (the user-centric weighting of §4.3), however many of
// them share a structure or hang beneath a coverer.
func (e *Engine) empirical(desc bool) tree.ValueOrder {
	return selectivity.V2Empirical(e.schema, e.agg.Profiles(), desc)
}

// valueOrder materializes the configured value measure, with the configured
// P_e as the weight of the weighted search (none configured: none, which the
// tree reads as uniform).
func (e *Engine) valueOrder() tree.ValueOrder {
	vo := e.rankOrder()
	if e.cfg.EventDists != nil {
		vo.Mass = selectivity.V1(e.cfg.EventDists, true).Mass
	}
	return vo
}

// rankOrder is the configured value measure's ranking.
func (e *Engine) rankOrder() tree.ValueOrder {
	ed := e.eventDists()
	pd := e.cfg.ProfileDists
	switch e.cfg.ValueMeasure {
	case ValueNaturalDesc:
		return selectivity.NaturalDesc()
	case ValueEvent:
		return selectivity.V1(ed, true)
	case ValueEventAsc:
		return selectivity.V1(ed, false)
	case ValueProfile, ValueProfileAsc:
		desc := e.cfg.ValueMeasure == ValueProfile
		if pd == nil {
			return e.empirical(desc)
		}
		return selectivity.V2(pd, desc)
	case ValueCombined, ValueCombinedAsc:
		desc := e.cfg.ValueMeasure == ValueCombined
		if pd == nil {
			emp := e.empirical(desc)
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

// attrOrder computes the configured attribute order over roots, the corpus
// the automaton indexes. (A covered structure references no region and
// leaves no attribute unspecified that its coverer does not, so the A1/A2
// statistics of the roots are those of every subscription.)
func (e *Engine) attrOrder(roots []*predicate.Profile) ([]int, error) {
	switch e.cfg.AttrOrdering {
	case AttrA1, AttrA1Asc:
		st := selectivity.AttributeStats(e.schema, roots, nil)
		return selectivity.OrderAttributes(st, selectivity.MeasureA1, e.cfg.AttrOrdering == AttrA1), nil
	case AttrA2, AttrA2Asc:
		st := selectivity.AttributeStats(e.schema, roots, e.eventDists())
		return selectivity.OrderAttributes(st, selectivity.MeasureA2, e.cfg.AttrOrdering == AttrA2), nil
	case AttrA3:
		order, _, err := selectivity.OrderAttributesA3(
			e.schema, roots, e.eventDists(), e.valueOrder(), e.cfg.Search)
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

// rebuildLocked builds a fresh index from the poset and publishes it: the
// poset compacts (linking what was only interned, clearing churn holes and
// redundant edges), the automaton is rebuilt over the canonical roots only,
// and the slot↔node tables are derived fresh. Compacting renumbers the
// nodes, which orphans the slot tables a live snapshot was patched through,
// so a failed build leaves the engine stale, never patchable. Callers hold
// e.mu.
func (e *Engine) rebuildLocked() (err error) {
	if e.agg.SubCount() == 0 {
		e.resetLocked()
		return ErrNoProfiles
	}
	defer func() {
		if err != nil {
			e.snap.Store(&snapshot{})
		}
	}()
	e.agg.Compact()
	roots := e.agg.RootList()
	corpus := make([]*predicate.Profile, len(roots))
	t2n := make([]int32, len(roots))
	nodeTree := make([]int32, e.agg.NodeCount())
	for i := range nodeTree {
		nodeTree[i] = -1
	}
	for i, r := range roots {
		corpus[i] = r.Rep
		t2n[i] = r.Idx
		nodeTree[r.Idx] = int32(i)
	}
	order, err := e.attrOrder(corpus)
	if err != nil {
		return err
	}
	vo := e.valueOrder()
	t, err := tree.Build(e.schema, corpus,
		tree.WithAttributeOrder(order), tree.WithSearch(e.cfg.Search), tree.WithValueOrder(vo))
	if err != nil {
		return err
	}
	e.vo = vo
	e.t2n = t2n
	e.nodeTree = nodeTree
	e.edits = 0
	e.snap.Store(&snapshot{tree: t, expand: e.agg.Freeze(), t2n: t2n})
	return nil
}

// Reorder re-applies the value ordering on the existing structure (cheap
// restructuring after a distribution update) to the nodes testing one of
// attrs — none given: to every node — and reports how many nodes it re-sorted
// and how many it only path-copied; the rest of the automaton is shared with
// the predecessor. The reordered automaton is published as a successor
// snapshot; in-flight matches finish on the old order.
func (e *Engine) Reorder(attrs ...int) (resorted, copied int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.tree == nil {
		return 0, 0, e.rebuildLocked()
	}
	e.vo = e.valueOrder()
	t, resorted, copied := snap.tree.Reordered(e.vo, attrs...)
	e.snap.Store(&snapshot{tree: t, expand: snap.expand, t2n: snap.t2n})
	return resorted, copied, nil
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

// SetConfig replaces the measure/search configuration. A built automaton
// stays published while its structure still holds — the value measure and the
// distributions only order values inside nodes, which the next Reorder
// re-applies — and is invalidated, for the next match to rebuild, when the
// attribute ordering or the search changed or the ordering is derived from the
// distributions (A2, A3).
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
	structural := cfg.AttrOrdering != e.cfg.AttrOrdering || cfg.Search != e.cfg.Search ||
		cfg.AttrOrdering == AttrA2 || cfg.AttrOrdering == AttrA2Asc || cfg.AttrOrdering == AttrA3
	e.cfg = cfg
	if snap := e.snap.Load(); structural && !snap.empty {
		e.snap.Store(&snapshot{})
	}
}

// current returns the engine's snapshot with a pending lazy build resolved:
// built or empty, never stale. The stale case (re)builds the index under the
// writer mutex, unless a concurrent writer already did. Matching needs the
// whole snapshot, not just the tree: the expansion image and slot table
// published alongside it must come from the same build.
func (e *Engine) current() (*snapshot, error) {
	if snap := e.snap.Load(); snap.empty || snap.tree != nil {
		return snap, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if snap := e.snap.Load(); snap.empty || snap.tree != nil {
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

// MatchAny reports whether the event matches at least one registered
// profile — what a link filter asks — without building the id list: a tree
// slot is live exactly while its canonical node has a subscriber, so the first
// live matched root answers, tombstones and the empty state handled as Match
// handles them. The probe is not counted in the operation accounting.
//
//genas:hotpath
func (e *Engine) MatchAny(vals []float64) (bool, error) {
	snap, err := e.current()
	if err != nil || snap.empty {
		return false, err
	}
	return snap.tree.MatchAny(vals), nil
}

// matchIDs is Match without operation accounting, appending matched ids to
// dst: the sharded engine merges per-shard results into one buffer and
// accounts once per event at the top level. empty reports that the engine
// holds no profiles (which matches nothing and does not count as a filtered
// event).
//
//genas:hotpath
func (e *Engine) matchIDs(vals []float64, dst []predicate.ID) (ids []predicate.ID, ops int, empty bool, err error) {
	snap, err := e.current()
	if err != nil {
		return dst, 0, false, err
	}
	if snap.empty {
		return dst, 0, true, nil
	}
	ids, ops = snap.match(vals, dst)
	return ids, ops, false, nil
}

// Tree exposes the current automaton (nil until first built). A stale
// snapshot (pending lazy rebuild) is resolved first, so the returned tree
// reflects the current corpus and configuration; it may be superseded by
// the time the caller inspects it. It indexes the poset's roots: its
// profiles are canonical representatives, not subscriptions.
func (e *Engine) Tree() *tree.Tree {
	snap, err := e.current()
	if err != nil {
		return nil
	}
	return snap.tree
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

// AggStats summarizes the shape of the index: subscriptions, canonical nodes,
// the roots the automaton indexes and the longest covering chain (for a
// sharded filter the counts add and the depth is the worst shard's).
type AggStats = agg.Stats

// AggStats reports the shape of the index.
func (e *Engine) AggStats() AggStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.Stats()
}

// Account returns the live operation accounting summary.
func (e *Engine) Account() stats.Summary { return e.account.Summary() }

// ResetAccount clears operation accounting.
func (e *Engine) ResetAccount() { e.account.Reset() }
