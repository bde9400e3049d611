// Package tree implements the profile tree: the deterministic finite state
// automaton built from a profile set that the paper's filtering is based on
// (§3, following Gough & Smith [8] and Aguilera et al. [1]).
//
// The tree has height n (one level per attribute). Each level corresponds to
// one attribute after attribute reordering; edges at a node carry the
// disjoint subranges referenced by the profiles still alive on that path.
// Profiles that do not constrain the level's attribute ride along every edge
// and additionally along the complement edge "(*)" covering the unreferenced
// remainder of the domain; if no alive profile constrains the attribute the
// node has the single don't-care edge "*". For an observed event there is a
// single path to follow (edges are disjoint), ending in a leaf that lists the
// matched profiles.
//
// Equivalent states are shared: two paths whose alive profile sets coincide
// at the same level point to the same node, which keeps the automaton
// polynomial in practice even for tens of thousands of profiles.
package tree

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// Search selects the within-node search strategy (paper §4.2 implements two:
// following the edges in the defined order, and binary search on the natural
// order).
type Search int

// Search strategies. SearchLinear uses the lookup-table early-termination
// rule of Example 5; SearchLinearNoStop scans every edge (ablation);
// SearchBinary performs binary search over the naturally ordered subranges.
// SearchInterpolation and SearchHash realize the further strategies the
// paper's outlook proposes ("binary-, interpolation-, or hash-based search
// within attribute-values", §5): interpolation search probes by linear
// position estimate; hash search models an idealized per-value lookup table
// on discrete domains (one operation per node) and degrades to binary
// search on continuous domains, where hashing values is not applicable.
// SearchWeighted probes a per-node search tree balanced by P_e (weighted.go).
const (
	SearchLinear Search = iota + 1
	SearchLinearNoStop
	SearchBinary
	SearchInterpolation
	SearchHash
	SearchWeighted
)

// DefaultSearch is the strategy of every tree, engine, service and daemon
// built without naming one. SearchLinear is the paper's scan.
const DefaultSearch = SearchWeighted

// String names the strategy in experiment tables.
func (s Search) String() string {
	switch s {
	case SearchLinear:
		return "linear"
	case SearchLinearNoStop:
		return "linear-nostop"
	case SearchBinary:
		return "binary"
	case SearchInterpolation:
		return "interpolation"
	case SearchHash:
		return "hash"
	case SearchWeighted:
		return "weighted"
	default:
		return "Search(" + strconv.Itoa(int(s)) + ")"
	}
}

// Errors returned by tree construction.
var (
	ErrNoProfiles = errors.New("tree: no profiles")
	ErrBadOrder   = errors.New("tree: attribute order is not a permutation")
)

// EdgeKind discriminates edge flavors.
type EdgeKind int

// Edge kinds. A subrange edge tests one interval; the complement edge "(*)"
// covers every unreferenced region for don't-care profiles; the star edge "*"
// is the sole edge of a node whose alive profiles all leave the attribute
// unspecified.
const (
	EdgeSubrange EdgeKind = iota + 1
	EdgeComplement
	EdgeStar
)

// Edge is one labeled transition of the automaton.
//
// Frozen: once the tree is published through the engine's epoch pointer,
// match goroutines read edges lock-free; every mutation must happen in a
// //genas:builder construction site before publication (snapfreeze
// enforces this).
//
//genas:frozen
type Edge struct {
	Kind EdgeKind
	// Iv is the subrange of a EdgeSubrange edge (unused for the others).
	Iv schema.Interval
	// Profiles are the dense indices of profiles continuing through the
	// edge (constraining profiles plus riders for subrange edges). On a leaf
	// edge (Child == nil) this doubles as the match set — a separate Leaf
	// field would hold the identical slice while widening every edge the
	// churn path has to copy by a quarter.
	Profiles []int
	// Child is the next level's node; nil at the leaf level, where Profiles
	// is the match set.
	Child *Node
}

// Leaf returns the match set of a leaf-level edge.
func (e *Edge) Leaf() []int { return e.Profiles }

// bucket is one piece of the domain partition at a node, in natural order.
// Buckets cover the entire domain: subrange edges, complement pieces (mapped
// to the complement edge) and D₀ gaps (edge == -1). Frozen after
// publication, like the nodes that hold them.
//
//genas:frozen
type bucket struct {
	iv   schema.Interval
	edge int // index into Node.edges, or -1 for a D₀ gap
	// orderPos is the bucket's 1-based position in the defined order; the
	// lookup table of §4.2 ("the table contains a position for each
	// element").
	orderPos int
}

// Node is one automaton state.
//
// Frozen: published snapshots are read lock-free under the epoch/RCU
// scheme; the incremental transforms clone instead of mutating. Writes are
// restricted to //genas:builder functions.
//
//genas:frozen
type Node struct {
	// Level is the 0-based tree level; Attr the schema attribute tested.
	Level int
	Attr  int
	edges []Edge
	// buckets is the natural-order partition of the whole domain.
	buckets []bucket
	// scan lists edge indices in defined (scan) order; under SearchWeighted
	// it is the probe tree over the subrange edges, in preorder.
	scan []int
	// orderPos[i] is the defined-order position of edges[i] (the scans only).
	orderPos []int
	// nSubrange counts the leading subrange edges (edges[:nSubrange] are in
	// natural ascending order; a complement or star edge follows, if any).
	nSubrange int
	// extra lists profiles matched by every event reaching this node
	// (incremental inserts place a profile here when all levels from this
	// one down are don't-care for it, instead of rewriting every leaf of
	// the subtree). Build never sets it; a coalescing rebuild folds the
	// indices back into the leaf sets.
	extra []int
	// discrete marks integer/categorical attribute domains, where hash
	// search can index individual values.
	discrete bool
}

// Edges exposes the node's edges (shared slice; callers must not mutate).
func (n *Node) Edges() []Edge { return n.edges }

// graphMeta holds the per-level node lists and size statistics of one node
// graph. It hangs off the Tree behind a pointer so that trees sharing a
// graph (WithoutProfile tombstone successors) share the meta, and so that
// incremental successors (WithProfile) can defer the full-graph walk until
// Levels or Stats is actually consulted — the churn path never pays it.
type graphMeta struct {
	once   sync.Once
	levels [][]*Node // unique (shared) nodes per level
	nodes  int
	edges  int
	shared int // extra references to shared nodes (memoization hits)
}

// fill computes the meta by walking the node graph (lazy counterpart of the
// builder's incremental bookkeeping).
func (m *graphMeta) fill(root *Node, height int) {
	m.levels = make([][]*Node, height)
	m.nodes, m.edges, m.shared = 0, 0, 0
	seen := make(map[*Node]bool, 64)
	stack := make([]*Node, 0, 64)
	stack = append(stack, root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			m.shared++
			continue
		}
		seen[n] = true
		m.nodes++
		m.edges += len(n.edges)
		m.levels[n.Level] = append(m.levels[n.Level], n)
		for i := range n.edges {
			if c := n.edges[i].Child; c != nil {
				stack = append(stack, c)
			}
		}
	}
}

// Tree is the profile tree plus its search configuration.
type Tree struct {
	schema    *schema.Schema
	profiles  []*predicate.Profile
	attrOrder []int // attrOrder[level] = schema attribute index
	root      *Node
	strategy  Search
	// dead marks tombstoned profile indices: WithoutProfile does not touch
	// the node graph, it only records the index here, and match translation
	// skips dead indices. A coalescing rebuild clears the tombstones.
	dead      []bool
	deadCount int

	meta *graphMeta
}

// ensureMeta returns the graph meta, computing it on first use. Safe under
// concurrent readers of a published tree (sync.Once).
func (t *Tree) ensureMeta() *graphMeta {
	m := t.meta
	m.once.Do(func() { m.fill(t.root, t.schema.N()) })
	return m
}

// Option configures tree construction.
type Option func(*config)

type config struct {
	attrOrder []int
	strategy  Search
	vo        ValueOrder
}

// WithAttributeOrder builds the tree with the given attribute order:
// order[level] is the schema attribute tested at that level.
func WithAttributeOrder(order []int) Option {
	return func(c *config) { c.attrOrder = append([]int(nil), order...) }
}

// WithSearch selects the within-node search strategy (default DefaultSearch).
func WithSearch(s Search) Option {
	return func(c *config) { c.strategy = s }
}

// WithValueOrder lays every node out under vo as it is built (default
// NaturalOrder), which saves the second pass of an ApplyValueOrder.
func WithValueOrder(vo ValueOrder) Option {
	return func(c *config) { c.vo = vo }
}

// Build constructs the profile tree for the given profiles.
func Build(s *schema.Schema, profiles []*predicate.Profile, opts ...Option) (*Tree, error) {
	if len(profiles) == 0 {
		return nil, ErrNoProfiles
	}
	cfg := config{strategy: DefaultSearch, vo: NaturalOrder()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.attrOrder == nil {
		cfg.attrOrder = make([]int, s.N())
		for i := range cfg.attrOrder {
			cfg.attrOrder[i] = i
		}
	}
	if !isPermutation(cfg.attrOrder, s.N()) {
		return nil, fmt.Errorf("%w: %v", ErrBadOrder, cfg.attrOrder)
	}

	t := &Tree{
		schema:    s,
		profiles:  profiles,
		attrOrder: cfg.attrOrder,
		strategy:  cfg.strategy,
		meta:      &graphMeta{levels: make([][]*Node, s.N())},
	}

	// Every interval endpoint is ranked once per attribute; the constraint
	// table and its intervals, one block each, live only until then.
	b := builder{t: t, vo: cfg.vo, ix: make([]*subrange.Index, s.N()), memo: make(map[uint64]state), a: make([]arena, s.N())}
	for level := range b.a {
		b.a[level].grow = true
	}
	cons := make([]subrange.Constraint, len(profiles))
	var ivs []schema.Interval
	for attr := range b.ix {
		dom := s.At(attr).Domain
		ivs = ivs[:0]
		for pi, p := range profiles {
			cons[pi] = subrange.Constraint{Profile: pi, DontCare: !p.Constrains(attr)}
			if !cons[pi].DontCare {
				from := len(ivs)
				ivs = p.Pred(attr).AppendIntervals(ivs, dom)
				cons[pi].Intervals = ivs[from:]
			}
		}
		b.ix[attr] = subrange.NewIndex(dom, cons)
	}

	all := make([]int, len(profiles))
	for i := range profiles {
		all[i] = i
	}
	t.root = b.build(all, 0)
	// The builder tracked the meta incrementally; consume the lazy fill.
	t.meta.once.Do(func() {})
	return t, nil
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, a := range order {
		if a < 0 || a >= n || seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

// builder carries one Build: the rank index of every attribute, the sweep
// that decomposes each state on it, the memo that keeps equivalent states
// shared, and the arenas everything the tree retains is carved from.
type builder struct {
	t    *Tree
	vo   ValueOrder
	ix   []*subrange.Index // by schema attribute
	sw   subrange.Sweep
	memo map[uint64]state
	// edges, bks and set assemble one node; it is committed to the arena
	// before the build descends, so one set of buffers serves every level.
	edges []Edge
	bks   []bucket
	set   []int
	sc    orderScratch
	// a holds one arena per level. Reordered and WithProfile replace a tree
	// level by level, and a chunk lives as long as anything in it: were the
	// levels interleaved, the last level's shared edges would pin every node
	// and bucket a whole reorder had replaced.
	a []arena
}

// state is a memoised alive set: the profile set stored by the first edge
// that carried it into level (the whole corpus at the root), and the node
// built for it — none yet while its parent is being assembled, and never for
// a leaf's match set, whose level is the tree's height.
type state struct {
	level int
	n     *Node
	alive []int
}

// find probes the memo, keyed by a hash of level and alive set, for the state
// of alive at level: a candidate is verified against the set it stores, and a
// key taken by another state passes the probe on to the next one. It returns
// the state, or failing that the free key to memoise it under.
func (b *builder) find(alive []int, level int) (st state, h uint64, ok bool) {
	h = uint64(level + 1)
	for _, pi := range alive {
		h = (h ^ uint64(pi)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	for st, ok = b.memo[h]; ok; st, ok = b.memo[h] {
		if st.level == level && slices.Equal(st.alive, alive) {
			return st, h, true
		}
		h++
	}
	return state{}, h, false
}

// carry returns what an edge into level stores for the profile set it
// carries: the memoised copy of the set — equal sets are stored once, in a's
// storage — and the node already built for it, if there is one.
func (b *builder) carry(set []int, level int, a *arena) ([]int, *Node) {
	st, h, ok := b.find(set, level)
	if !ok {
		st = state{level: level, alive: a.intSlice(set)}
		b.memo[h] = st
	} else if st.n != nil {
		b.t.meta.shared++
	}
	return st.alive, st.n
}

// build returns the node for the alive profile set at the given level: the
// one built for it before, when two edges of one node carry one set and the
// first one's descent got there, or else a new one.
//
//genas:builder
func (b *builder) build(alive []int, level int) *Node {
	t := b.t
	st, h, _ := b.find(alive, level)
	if st.n != nil {
		t.meta.shared++
		return st.n
	}
	attr := t.attrOrder[level]
	dom := t.schema.At(attr).Domain
	a := &b.a[level]
	n := a.node()
	*n = Node{Level: level, Attr: attr, discrete: dom.Kind() != schema.KindNumeric}
	b.memo[h] = state{level, n, alive}

	// One sweep yields the pieces in natural order: a covered piece is a
	// subrange edge on which the don't-care profiles ride along, an uncovered
	// one a gap.
	b.sw.Reset(b.ix[attr], alive)
	edges, bks := b.edges[:0], b.bks[:0]
	for b.sw.Next() {
		if len(b.sw.Active) == 0 {
			bks = append(bks, bucket{iv: b.sw.Iv, edge: -1})
			continue
		}
		e := Edge{Kind: EdgeSubrange, Iv: b.sw.Iv}
		b.set = appendUnion(b.set[:0], b.sw.Active, b.sw.Star)
		e.Profiles, e.Child = b.carry(b.set, level+1, a)
		bks = append(bks, bucket{iv: b.sw.Iv, edge: len(edges)})
		edges = append(edges, e)
	}
	n.nSubrange = len(edges)
	// The riders own the gaps: through the complement edge (*), or through the
	// star edge of a pure don't-care node. Without riders a gap is D₀.
	if len(b.sw.Star) > 0 && len(bks) > len(edges) {
		e := Edge{Kind: EdgeComplement}
		if len(edges) == 0 {
			e.Kind, e.Iv = EdgeStar, dom.Interval()
		}
		e.Profiles, e.Child = b.carry(b.sw.Star, level+1, a)
		for i := range bks {
			if bks[i].edge < 0 {
				bks[i].edge = len(edges)
			}
		}
		edges = append(edges, e)
	}
	n.edges, n.buckets = a.edgeSlice(edges), a.bucketSlice(bks)
	b.edges, b.bks = edges, bks

	for i := range n.edges {
		if e := &n.edges[i]; e.Child == nil && level < t.schema.N()-1 {
			e.Child = b.build(e.Profiles, level+1)
		}
	}
	n.applyOrder(b.vo, t.strategy, &b.sc, a)
	t.meta.nodes++
	t.meta.edges += len(n.edges)
	t.meta.levels[level] = append(t.meta.levels[level], n)
	return n
}

// appendUnion appends the merge of two sorted, disjoint dense-index sets: an
// edge's constraining profiles and the riders.
func appendUnion(dst, x, y []int) []int {
	for len(x) > 0 && len(y) > 0 {
		if x[0] < y[0] {
			dst, x = append(dst, x[0]), x[1:]
		} else {
			dst, y = append(dst, y[0]), y[1:]
		}
	}
	return append(append(dst, x...), y...)
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Schema returns the tree's schema.
func (t *Tree) Schema() *schema.Schema { return t.schema }

// Profiles returns the dense-indexed profile slice (shared; do not mutate).
// Trees produced by WithoutProfile keep removed profiles in place as
// tombstones — check Dead before translating a matched index.
func (t *Tree) Profiles() []*predicate.Profile { return t.profiles }

// Dead reports whether dense index pi is tombstoned (removed via
// WithoutProfile without a rebuild). Matched indices for dead profiles must
// be skipped during translation.
func (t *Tree) Dead(pi int) bool { return pi < len(t.dead) && t.dead[pi] }

// HasDead reports whether any tombstones exist, so the hot translation loop
// can skip the per-index check in the common tombstone-free case.
func (t *Tree) HasDead() bool { return t.deadCount > 0 }

// LiveCount returns the number of non-tombstoned profiles.
func (t *Tree) LiveCount() int { return len(t.profiles) - t.deadCount }

// AttrOrder returns a copy of the attribute order.
func (t *Tree) AttrOrder() []int { return append([]int(nil), t.attrOrder...) }

// Strategy returns the within-node search strategy.
func (t *Tree) Strategy() Search { return t.strategy }

// WithStrategy returns a successor tree searching with s, every node cloned and
// laid out for it under vo; the receiver, which may be published, is untouched.
func (t *Tree) WithStrategy(s Search, vo ValueOrder) *Tree {
	c := *t
	c.strategy = s
	nt, _, _ := c.Reordered(vo)
	return nt
}

// Levels returns the unique nodes per level (shared slices; do not mutate).
// On incremental successor trees the lists are computed lazily on first use.
func (t *Tree) Levels() [][]*Node { return t.ensureMeta().levels }

// Stats summarizes the automaton size.
type Stats struct {
	Nodes, Edges, SharedHits int
	Height                   int
	ProfileCount             int
}

// Stats returns automaton size statistics.
func (t *Tree) Stats() Stats {
	m := t.ensureMeta()
	return Stats{
		Nodes:        m.nodes,
		Edges:        m.edges,
		SharedHits:   m.shared,
		Height:       t.schema.N(),
		ProfileCount: len(t.profiles),
	}
}

// Dump renders the tree in a Fig. 1-like indented form for debugging and the
// paper-example tests.
func (t *Tree) Dump() string {
	var b strings.Builder
	seen := make(map[*Node]bool)
	t.dumpNode(&b, t.root, 0, seen)
	return b.String()
}

func (t *Tree) dumpNode(b *strings.Builder, n *Node, depth int, seen map[*Node]bool) {
	indent := strings.Repeat("  ", depth)
	name := t.schema.At(n.Attr).Name
	if seen[n] {
		fmt.Fprintf(b, "%s%s <shared>\n", indent, name)
		return
	}
	seen[n] = true
	fmt.Fprintf(b, "%s%s\n", indent, name)
	for i := range n.edges {
		ei := i // the probe tree of SearchWeighted is no scan order: natural order
		if t.strategy != SearchWeighted {
			ei = n.scan[i]
		}
		e := &n.edges[ei]
		label := e.Iv.String()
		switch e.Kind {
		case EdgeComplement:
			label = "(*)"
		case EdgeStar:
			label = "*"
		}
		if e.Child != nil {
			fmt.Fprintf(b, "%s  %s ->\n", indent, label)
			t.dumpNode(b, e.Child, depth+2, seen)
			continue
		}
		ids := make([]string, len(e.Leaf()))
		for i, pi := range e.Leaf() {
			ids[i] = string(t.profiles[pi].ID)
		}
		fmt.Fprintf(b, "%s  %s -> {%s}\n", indent, label, strings.Join(ids, ","))
	}
}
