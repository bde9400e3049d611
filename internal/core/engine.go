// Package core assembles the paper's primary contribution: the
// distribution-dependent tree filter (§4). An Engine owns the profile
// corpus, builds the profile-tree automaton, weighs every node's probe tree
// by the event distribution (Measure V1), orders the levels by the configured
// attribute measure (A1–A3) and filters events while accounting operations.
//
// The corpus has one index: the covering poset of canonical structures
// (internal/agg). Subscriptions intern onto canonical nodes, covered nodes
// hang beneath their coverers, the automata index the poset's roots, and a
// match expands the roots it reached into the subscriptions themselves (the
// members the caller registered). Match cost grows with distinct predicate
// structure, not with subscriber count. An engine may split its roots over n
// automata (NewSharded) to keep each one small; it still has one poset, one
// writer lock and one published snapshot.
//
// The automata are built once, on the first match, and churn edits them in
// place: no subscribe or unsubscribe rebuilds. The index stays proportional
// to the live structures by its own bounds: the poset reuses the node index
// a removed structure frees, and an automaton whose line of edits is worn is
// swapped for its copy into a fresh line (tree.Tree.Worn, Copied).
//
// The engine "evaluates first those event-values and attributes that have
// the highest selectivity": attributes with high selectivity move to the top
// levels of the tree and, inside every node, the values events hit most sit
// nearest the root of the node's probe tree (§4.1).
package core

import (
	"errors"
	"fmt"
	"runtime"
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

// AttrOrdering selects the attribute (level) ordering.
type AttrOrdering int

// Attribute orderings. AttrNatural keeps schema order; AttrA1/AttrA2/AttrA3
// apply the corresponding selectivity measure descending (most selective at
// the root).
const (
	AttrNatural AttrOrdering = iota + 1
	AttrA1
	AttrA2
	AttrA3
)

// String names the ordering.
func (a AttrOrdering) String() string {
	switch a {
	case AttrNatural:
		return "natural"
	case AttrA1:
		return "A1-desc"
	case AttrA2:
		return "A2-desc"
	case AttrA3:
		return "A3"
	default:
		return fmt.Sprintf("AttrOrdering(%d)", int(a))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// AttrOrdering selects the level order (default natural).
	AttrOrdering AttrOrdering
	// EventDists is P_e per schema attribute, the weights of every node's
	// probe tree. Nil means uniform; the adaptive component replaces it with
	// live histogram snapshots.
	EventDists []dist.Dist
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
//   - stale (parts == nil, empty == false): profiles exist but the automata
//     must be (re)built — the next reader builds them lazily under e.mu, so
//     bulk registration before the first publish stays cheap.
//   - built (parts != nil): ready to traverse.
//
// A built snapshot is the first of the n elements of one slice, parts, and
// element i holds automaton i: the tree over the poset roots whose node
// index is i mod n (the automaton that matches nothing while that share has
// no root) and t2n, which maps each of its slots to its poset node. The
// header fields live on the first element only, so a churn op publishes one
// object for any n. Each t2n is append-only across successor snapshots —
// writes land past every predecessor's length — so snapshots share its
// backing array like the tree shares nodes, until a line copy renumbers the
// automaton's slots and derives a fresh one.
type snapshot struct {
	tree *tree.Tree
	t2n  []int32

	parts []snapshot
	empty bool
	// expand is the frozen poset image matched roots are expanded through.
	expand agg.Snapshot
}

// successor returns a built snapshot over expand holding old's automata, for
// the caller to edit before publishing: nil old gives n without automata.
func (e *Engine) successor(old *snapshot, expand agg.Snapshot) *snapshot {
	parts := make([]snapshot, e.n)
	if old != nil {
		for i, p := range old.parts {
			parts[i].tree, parts[i].t2n = p.tree, p.t2n
		}
	}
	parts[0].parts, parts[0].expand = parts, expand
	return &parts[0]
}

// match filters one event through a built snapshot, appending the matched
// members to dst: every automaton seeds one expansion walk over the poset
// image with the roots it matched, and the walk expands them into concrete
// members, its descent evaluations charged to the event like tree
// comparisons.
//
//genas:hotpath
func (s *snapshot) match(vals []float64, dst []Member) ([]Member, int) {
	w := s.expand.Walk()
	for i := range s.parts {
		w.Seed(vals, s.parts[i].tree, s.parts[i].t2n)
	}
	return w.Collect(vals, dst)
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
	n       int // automata per snapshot

	// agg is the index: the covering poset holds every subscription — one
	// member on its canonical node — and the automata index the poset's
	// roots only. nodeTree maps a poset node index back to its slot in
	// automaton idx mod n (-1: not indexed) for demotions; it is valid only
	// while the snapshot is built.
	agg      *agg.Poset
	nodeTree []int32
	// copies counts the worn automata churn swapped for their copies.
	copies int
}

// NewEngine creates an engine over schema s with one automaton.
func NewEngine(s *schema.Schema, cfg Config) *Engine { return NewSharded(s, cfg, 1) }

// Sharded is the engine of NewSharded: there is one engine type.
type Sharded = Engine

// ResolveShards normalizes a user-facing shard count: n ≤ 0 selects
// GOMAXPROCS, anything else passes through. Every layer that accepts
// "0 = pick for me" (the genas facade, the genasd flag) resolves through
// this one function; broker.Options keeps 0 as its zero value (one
// automaton).
func ResolveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NewSharded creates an engine over schema s whose roots split over n
// automata (n ≤ 0 selects GOMAXPROCS): automaton i indexes the poset roots
// whose node index is i mod n, and every match walks them all into one
// expansion. The match set is the one-automaton engine's; the automata are
// smaller, and an edit touches only the automata its roots fall in.
func NewSharded(s *schema.Schema, cfg Config, n int) *Engine {
	if cfg.AttrOrdering == 0 {
		cfg.AttrOrdering = AttrNatural
	}
	e := &Engine{schema: s, cfg: cfg, n: ResolveShards(n), agg: agg.NewPoset(s)}
	e.snap.Store(&snapshot{empty: true})
	return e
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// AddProfile registers the bare profile p (see Add).
func (e *Engine) AddProfile(p *predicate.Profile) error { return e.Add(agg.Bare(p)) }

// Add registers a member under its profile's id: the subscription joins its
// canonical node in the poset. While no automaton is live the node is only
// interned — the lazy build on the next match links the poset in one pass.
// Otherwise the automata change only when a new structure enters as a root
// (indexed) or demotes existing roots beneath it (removed from their
// automata — they stay reachable through the new root's expansion edges), in
// a successor snapshot sharing the untouched node graph.
func (e *Engine) Add(m Member) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id := m.Profile().ID; e.agg.Has(id) {
		return fmt.Errorf("%w: %s", ErrDuplicateProfile, id)
	}
	snap := e.snap.Load()
	if snap.parts != nil {
		e.patchLocked(snap, e.agg.Join(m))
		return nil
	}
	e.agg.Intern(m)
	if snap.empty {
		e.snap.Store(&snapshot{})
	}
	return nil
}

// RemoveProfile unregisters a profile by id (see Remove).
func (e *Engine) RemoveProfile(id predicate.ID) error {
	_, err := e.Remove(id)
	return err
}

// Remove unregisters the member registered under id and returns it. Dropping
// a member usually leaves the automata untouched; when a canonical node
// loses its last member it detaches eagerly — its tree slot is removed from
// its automaton if it was a root, and formerly covered nodes promoted by the
// detach are indexed, so a covered subscription resurfaces the moment its
// last coverer leaves.
func (e *Engine) Remove(id predicate.ID) (Member, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, d := e.agg.Take(id)
	if m == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProfile, id)
	}
	if e.agg.SubCount() == 0 {
		e.resetLocked()
	} else if snap := e.snap.Load(); snap.parts != nil {
		e.patchLocked(snap, d)
	}
	// Otherwise the snapshot is stale already; the next build reads the poset.
	return m, nil
}

// patchLocked applies one churn op's root-set change to the live automata
// and publishes the successor. A root leaves and joins automaton idx mod n,
// which every share holds. An automaton whose line is worn is swapped for
// its copy, and its slot tables re-derived. Every churn op republishes the
// frozen expansion image, even when no tree is touched, so in-flight matches
// keep expanding against the state they matched under. No churn op rebuilds.
func (e *Engine) patchLocked(snap *snapshot, d agg.Delta) {
	next := e.successor(snap, e.agg.Image())
	for _, ni := range d.Left {
		p := &next.parts[int(ni)%e.n]
		if int(ni) >= len(e.nodeTree) || e.nodeTree[ni] < 0 {
			e.snap.Store(&snapshot{}) // defensive: force a lazy rebuild
			return
		}
		p.tree = p.tree.WithoutProfile(int(e.nodeTree[ni]))
		e.nodeTree[ni] = -1
	}
	for _, r := range d.Joined {
		p, ti := &next.parts[int(r.Idx)%e.n], 0
		if p.tree, ti = p.tree.WithProfile(r.Rep, p.tree.ValueOrder()); ti != len(p.t2n) {
			e.snap.Store(&snapshot{}) // defensive: slot table out of step
			return
		}
		p.t2n = append(p.t2n, r.Idx)
		e.point(r.Idx, ti)
	}
	for i := range next.parts {
		e.renew(&next.parts[i])
	}
	e.snap.Store(next)
}

// renew swaps automaton p for its copy into a fresh line when its line is
// worn, and re-derives its slot table.
func (e *Engine) renew(p *snapshot) {
	if !p.tree.Worn() {
		return
	}
	t, old := p.tree.Copied()
	t2n := make([]int32, len(old))
	for j, o := range old {
		t2n[j] = p.t2n[o]
	}
	p.tree = t
	e.slots(p, t2n)
	e.copies++
}

// slots makes t2n automaton p's slot table, its slot j indexing poset node
// t2n[j], and points those nodes' nodeTree entries back at their slots.
func (e *Engine) slots(p *snapshot, t2n []int32) {
	p.t2n = t2n
	for j, ni := range t2n {
		e.point(ni, j)
	}
}

// point records node ni at slot of its automaton, growing nodeTree over the
// poset's table as far as ni.
func (e *Engine) point(ni int32, slot int) {
	for int(ni) >= len(e.nodeTree) {
		e.nodeTree = append(e.nodeTree, -1)
	}
	e.nodeTree[ni] = int32(slot)
}

// resetLocked publishes the empty state. Going empty drops the poset's
// table, the holes removals left included.
func (e *Engine) resetLocked() {
	e.snap.Store(&snapshot{empty: true})
	e.agg = agg.NewPoset(e.schema)
	e.nodeTree = nil
}

// Members returns the registered members in node order, each as its
// subscriber registered it: its own spelling, id and priority, not the
// canonical node's representative (the structure's first spelling).
func (e *Engine) Members() []Member {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.Members()
}

// AnyRoot reports whether f holds for the representative of some poset
// root (agg.Poset.AnyRoot). f runs under the writer lock and must not call
// the engine.
func (e *Engine) AnyRoot(f func(*predicate.Profile) bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.AnyRoot(f)
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

// valueOrder is the weights the probe trees are laid out for: the configured
// P_e (Measure V1), or none, which the tree reads as uniform.
func (e *Engine) valueOrder() tree.ValueOrder {
	if e.cfg.EventDists == nil {
		return tree.NaturalOrder()
	}
	return selectivity.V1(e.cfg.EventDists)
}

// attrOrder computes the configured attribute order over roots, the corpus
// the automata index. (A covered structure references no region and leaves
// no attribute unspecified that its coverer does not, so the A1/A2
// statistics of the roots are those of every subscription.)
func (e *Engine) attrOrder(roots []*predicate.Profile) ([]int, error) {
	switch e.cfg.AttrOrdering {
	case AttrA1:
		st := selectivity.AttributeStats(e.schema, roots, nil)
		return selectivity.OrderAttributes(st, selectivity.MeasureA1, true), nil
	case AttrA2:
		st := selectivity.AttributeStats(e.schema, roots, e.eventDists())
		return selectivity.OrderAttributes(st, selectivity.MeasureA2, true), nil
	case AttrA3:
		order, _, err := selectivity.OrderAttributesA3(e.schema, roots, e.eventDists(), e.valueOrder())
		return order, err
	default:
		order := make([]int, e.schema.N())
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
}

// Rebuild reconstructs the automata with the current configuration. It is
// the expensive half of restructuring; Reorder is the cheap half.
func (e *Engine) Rebuild() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked()
}

// rebuildLocked builds a fresh index from the poset and publishes it: the
// roots split by node index over the automata, each share — an empty one
// too — is built under the attribute order computed over all roots, and the
// slot↔node tables are derived fresh. Reading the roots links a bulk load,
// which renumbers the nodes and orphans the slot tables a live snapshot was
// patched through, so a failed build leaves the engine stale, never
// patchable. The lazy first build, SetConfig's invalidation and Rebuild come
// here; no churn op or read does. Callers hold e.mu.
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
	roots := e.agg.RootList()
	corpus := make([]*predicate.Profile, len(roots))
	shares, t2n := make([][]*predicate.Profile, e.n), make([][]int32, e.n)
	for i, r := range roots {
		corpus[i] = r.Rep
		s := int(r.Idx) % e.n
		shares[s], t2n[s] = append(shares[s], r.Rep), append(t2n[s], r.Idx)
	}
	order, err := e.attrOrder(corpus)
	if err != nil {
		return err
	}
	next := e.successor(nil, e.agg.Image())
	e.nodeTree = e.nodeTree[:0]
	vo := e.valueOrder()
	for i, share := range shares {
		if next.parts[i].tree, err = tree.Build(e.schema, share, tree.WithAttributeOrder(order), tree.WithValueOrder(vo)); err != nil {
			return err
		}
		e.slots(&next.parts[i], t2n[i])
	}
	e.snap.Store(next)
	return nil
}

// Reorder re-lays the probe trees of the existing structure under the current
// distributions (cheap restructuring after a distribution update) at the
// narrow nodes testing one of attrs — none given: at every narrow node; a
// wide node's directory reads no weights — and reports how many nodes it
// re-laid and how many it only path-copied, summed over the automata; the
// rest of each automaton is shared with the predecessor. A reorder above the
// last level adds its copies to the automaton's line, so an automaton whose
// line it wore is swapped for its copy, as churn does. The reordered
// automata are published as a successor snapshot, and nothing is published
// where no automaton changed; in-flight matches finish on the old layout.
func (e *Engine) Reorder(attrs ...int) (resorted, copied int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.snap.Load()
	if snap.parts == nil {
		return 0, 0, e.rebuildLocked()
	}
	next, vo, changed := e.successor(snap, snap.expand), e.valueOrder(), false
	for i := range next.parts {
		var r, c int
		next.parts[i].tree, r, c = next.parts[i].tree.Reordered(vo, attrs...)
		resorted, copied = resorted+r, copied+c
		e.renew(&next.parts[i])
		changed = changed || next.parts[i].tree != snap.parts[i].tree
	}
	if changed {
		e.snap.Store(next)
	}
	return resorted, copied, nil
}

// Config returns a copy of the current configuration.
func (e *Engine) Config() Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg
}

// SetConfig replaces the configuration. Built automata stay published while
// their structure still holds — the distributions only weigh values inside
// nodes, which the next Reorder re-applies — and are invalidated, for the
// next match to rebuild, when the attribute ordering changed or is derived
// from the distributions (A2, A3).
func (e *Engine) SetConfig(cfg Config) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cfg.AttrOrdering == 0 {
		cfg.AttrOrdering = e.cfg.AttrOrdering
	}
	structural := cfg.AttrOrdering != e.cfg.AttrOrdering || cfg.AttrOrdering == AttrA2 || cfg.AttrOrdering == AttrA3
	e.cfg = cfg
	if snap := e.snap.Load(); structural && !snap.empty {
		e.snap.Store(&snapshot{})
	}
}

// current returns the engine's snapshot with a pending lazy build resolved:
// built or empty, never stale. The stale case (re)builds the index under the
// writer mutex, unless a concurrent writer already did. Matching needs the
// whole snapshot, not just the trees: the expansion image published
// alongside them must come from the same build.
func (e *Engine) current() (*snapshot, error) {
	if snap := e.snap.Load(); snap.empty || snap.parts != nil {
		return snap, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if snap := e.snap.Load(); snap.empty || snap.parts != nil {
		return snap, nil
	}
	if err := e.rebuildLocked(); err != nil {
		return nil, err
	}
	return e.snap.Load(), nil
}

var memberPool = sync.Pool{New: func() any { return new([]Member) }}

// Match filters one event, returning matched profile IDs and the operations
// spent. The traversal is lock-free: it runs against the current immutable
// snapshot, so concurrent profile churn cannot block or skew it. IDs are
// resolved against the same snapshot that produced the match. The members
// are matched into pooled scratch (memberPool), and the ids are copied out
// into one fresh slice, the caller's, nil when nothing matched.
//
//genas:hotpath
func (e *Engine) Match(vals []float64) ([]predicate.ID, int, error) {
	buf := memberPool.Get().(*[]Member)
	ms, ops, err := e.MatchAppend(vals, (*buf)[:0])
	ids := idsOf(ms)
	clear(ms)
	*buf = ms[:0]
	memberPool.Put(buf)
	return ids, ops, err
}

// idsOf returns the members' ids in one fresh slice, nil for none.
func idsOf(ms []Member) []predicate.ID {
	if len(ms) == 0 {
		return nil
	}
	ids := make([]predicate.ID, len(ms))
	for i, m := range ms {
		ids[i] = m.Profile().ID
	}
	return ids
}

// MatchAppend is Match appending the matched members to dst, which the
// caller owns: the engine keeps neither dst nor the returned slice, so a
// caller that reuses one buffer across events allocates nothing per event
// once the buffer is large enough. An empty engine returns dst as given, an
// error nil, and accounts no event.
//
//genas:hotpath
func (e *Engine) MatchAppend(vals []float64, dst []Member) ([]Member, int, error) {
	snap, err := e.current()
	if err != nil {
		return nil, 0, err
	}
	if snap.empty {
		return dst, 0, nil
	}
	ms, ops := snap.match(vals, dst)
	e.account.Record(ops)
	return ms, ops, nil
}

// MatchAny reports whether the event matches at least one registered
// profile — what a link filter asks — without building the id list: the
// automata hold a slot exactly while its canonical node has a subscriber,
// so the first matched root answers, and the empty state is handled as Match
// handles it. The probe is not counted in the operation accounting.
//
//genas:hotpath
func (e *Engine) MatchAny(vals []float64) (bool, error) {
	snap, err := e.current()
	if err != nil || snap.empty {
		return false, err
	}
	for i := range snap.parts {
		if snap.parts[i].tree.MatchAny(vals) {
			return true, nil
		}
	}
	return false, nil
}

// Tree exposes automaton 0, the whole index of a one-automaton engine (nil
// while no profile is registered). A stale snapshot (pending lazy rebuild)
// is resolved first, so the returned tree reflects the current corpus and
// configuration; it may be superseded by the time the caller inspects it. It
// indexes poset roots: its profiles are canonical representatives, not
// subscriptions, and a slot whose root left is listed but matches nothing.
func (e *Engine) Tree() *tree.Tree {
	snap, err := e.current()
	if err != nil {
		return nil
	}
	return snap.tree
}

// Analyze runs the analytic cost model (Eq. 2) under the engine's event
// distributions over the automata as published — edited ones as they are, so
// the model predicts what events pay — after resolving a pending lazy build;
// it changes nothing. Over several automata the expected operations add
// (every event walks every automaton), the match probability combines as
// 1−Π(1−pᵢ), and PerProfile holds one entry per automaton slot, in automaton
// order; a slot whose root left reads zero.
func (e *Engine) Analyze() (selectivity.Analysis, error) {
	snap, err := e.current()
	if err != nil {
		return selectivity.Analysis{}, err
	}
	if snap.empty {
		return selectivity.Analysis{}, ErrNoProfiles
	}
	e.mu.Lock()
	ed := e.eventDists()
	e.mu.Unlock()
	var out selectivity.Analysis
	miss, first := 1.0, true
	for _, p := range snap.parts {
		a := selectivity.Analyze(p.tree, ed, selectivity.Probe)
		miss *= 1 - a.MatchProb
		if first {
			out, first = a, false
			continue
		}
		out.MatchOps += a.MatchOps
		out.R0Ops += a.R0Ops
		out.TotalOps += a.TotalOps
		out.ExpMatches += a.ExpMatches
		out.MatchProb = 1 - miss
		out.PerLevelOps = addLevels(out.PerLevelOps, a.PerLevelOps)
		out.PerLevelMatch = addLevels(out.PerLevelMatch, a.PerLevelMatch)
		out.PerLevelR0 = addLevels(out.PerLevelR0, a.PerLevelR0)
		out.PerProfile = append(out.PerProfile, a.PerProfile...)
	}
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

// Member is one registered subscription (agg.Member).
type Member = agg.Member

// AggStats summarizes the shape of the index: subscriptions, canonical nodes,
// the roots the automata index and the longest covering chain.
type AggStats = agg.Stats

// AggStats reports the shape of the index.
func (e *Engine) AggStats() AggStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg.Stats()
}

// Account returns the live operation accounting summary.
func (e *Engine) Account() stats.Summary { return e.account.Summary() }
