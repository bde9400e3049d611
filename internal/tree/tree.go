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
// matched profiles. Those edges are all a node stores of its partition of the
// domain, and the leaf sets all the tree stores of who is alive where: the
// pieces between the edges are derived (Pieces), and the lookup table of the
// paper's ordered scan exists only in trees built for a scan.
//
// Equivalent states are shared: two paths whose alive profile sets coincide
// at the same level point to the same node, which keeps the automaton
// polynomial in practice even for tens of thousands of profiles.
package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

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
	ErrTooWide    = errors.New("tree: more attributes than a node's level counts")
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

// Edge is one labeled transition of the automaton. Its kind is its place in
// the node (Node.Kind): the subrange edges come first, in natural order, and a
// complement or star edge trails them.
//
// Frozen: once the tree is published through the engine's epoch pointer,
// match goroutines read edges lock-free; every mutation must happen in a
// //genas:builder construction site before publication (snapfreeze
// enforces this).
//
//genas:frozen
type Edge struct {
	// Iv is the subrange of a subrange edge. On the trailing edge it is the
	// whole domain, of which that edge holds what the subranges leave.
	Iv schema.Interval
	// Child is the next level's node; nil at the leaf level.
	Child *Node
	// leaf is the match set of a leaf-level edge: the dense indices of the
	// profiles an event arriving here matches, stored once per distinct set.
	// An interior edge carries no set — the profiles alive below it are the
	// union of the leaf sets it leads to.
	leaf *[]int
}

// Leaf returns the match set of a leaf-level edge (nil on an interior one).
func (e *Edge) Leaf() []int {
	if e.leaf == nil {
		return nil
	}
	return *e.leaf
}

// bucket is one entry of a scan's lookup table: a piece of the node's domain
// partition, in natural order. Buckets cover the entire domain: subrange edges,
// complement pieces (mapped to the complement edge) and D₀ gaps (edge == -1).
// Frozen after publication, like the nodes that hold them.
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

// lookup is the table the scan strategies consult (§4.2): the node's partition
// stored piece by piece with its defined-order positions, and the position of
// every edge. SearchWeighted probes the edges themselves and has no table.
//
//genas:frozen
type lookup struct {
	buckets  []bucket
	orderPos []int32 // by edge
	// discrete marks integer/categorical attribute domains, where hash
	// search can index individual values.
	discrete bool
}

// Node is one automaton state. Its edges are the only stored form of its
// partition of the domain: the pieces between them are derived (Pieces).
//
// Frozen: published snapshots are read lock-free under the epoch/RCU
// scheme; the incremental transforms clone instead of mutating. Writes are
// restricted to //genas:builder functions.
//
//genas:frozen
type Node struct {
	edges []Edge
	// scan lists edge indices in defined (scan) order; under SearchWeighted
	// it is the probe tree over the subrange edges, in preorder.
	scan []int32
	// extra lists profiles matched by every event reaching this node
	// (incremental inserts place a profile here when all levels from this
	// one down are don't-care for it, instead of rewriting every leaf of
	// the subtree). Build never sets it; a coalescing rebuild folds the
	// indices back into the leaf sets.
	extra []int
	// tab is the scans' lookup table; nil under SearchWeighted.
	tab *lookup
	// Level is the 0-based tree level; Attr the schema attribute tested.
	Level, Attr int16
	// nSubrange counts the leading subrange edges (edges[:nSubrange] are in
	// natural ascending order; a complement or star edge follows, if any).
	nSubrange int32
}

// Edges exposes the node's edges (shared slice; callers must not mutate).
func (n *Node) Edges() []Edge { return n.edges }

// Extra exposes the profiles parked at the node by incremental inserts: every
// event reaching it matches them (shared slice; callers must not mutate).
func (n *Node) Extra() []int { return n.extra }

// Kind returns the flavor of edge i.
func (n *Node) Kind(i int) EdgeKind {
	switch {
	case i < int(n.nSubrange):
		return EdgeSubrange
	case n.nSubrange == 0:
		return EdgeStar
	}
	return EdgeComplement
}

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
	if s.N() > math.MaxInt16 {
		return nil, fmt.Errorf("%w: %d", ErrTooWide, s.N())
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
	b := builder{t: t, vo: cfg.vo, ix: make([]*subrange.Index, s.N()), memo: make(map[uint64]state),
		a: make([]arena, s.N()), pend: make([][][]int, s.N()), own: arena{grow: true}}
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
	// edges and set assemble one node; it is committed to the arena before
	// the build descends, so one set of buffers serves every level.
	edges []Edge
	set   []int
	sc    orderScratch
	// pend[level] holds, for the node being built at level, the alive set each
	// of its edges carries until the edge's child is built from it.
	pend [][][]int
	// a holds one arena per level. Reordered and WithProfile replace a tree
	// level by level, and a chunk lives as long as anything in it: were the
	// levels interleaved, the last level's shared edges would pin every node
	// a whole reorder had replaced.
	a []arena
	// own stores the alive sets of the interior states: the memo's keys, which
	// no edge keeps, so they die with the build.
	own arena
}

// state is a memoised alive set: the set as the first edge carrying it into
// level wrote it down (the whole corpus at the root), and what was made of
// it — the node built for it, none yet while its parent is being assembled,
// or, at the tree's height, the leaf match set the tree stores once.
type state struct {
	level int
	n     *Node
	alive []int
	leaf  *[]int
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

// carry points e, an edge into level, at what the profile set it carries
// leads to — the node already built for it, if there is one, or the leaf match
// set in a's storage — and returns the memoised copy of the set.
//
//genas:builder
func (b *builder) carry(set []int, level int, e *Edge, a *arena) []int {
	st, h, ok := b.find(set, level)
	if !ok {
		st = state{level: level}
		if level == b.t.schema.N() {
			st.leaf = a.leafSet(a.intSlice(set))
			st.alive = *st.leaf
		} else {
			st.alive = b.own.intSlice(set)
		}
		b.memo[h] = st
	} else if st.n != nil {
		b.t.meta.shared++
	}
	e.Child, e.leaf = st.n, st.leaf
	return st.alive
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
	*n = Node{Level: int16(level), Attr: int16(attr)}
	b.memo[h] = state{level: level, n: n, alive: alive}

	// One sweep yields the pieces in natural order: a covered piece is a
	// subrange edge on which the don't-care profiles ride along, an uncovered
	// one a gap, which no edge stores.
	b.sw.Reset(b.ix[attr], alive)
	edges, pend, gaps := b.edges[:0], b.pend[level][:0], false
	for b.sw.Next() {
		if len(b.sw.Active) == 0 {
			gaps = true
			continue
		}
		e := Edge{Iv: b.sw.Iv}
		b.set = appendUnion(b.set[:0], b.sw.Active, b.sw.Star)
		pend = append(pend, b.carry(b.set, level+1, &e, a))
		edges = append(edges, e)
	}
	n.nSubrange = int32(len(edges))
	// The riders own the gaps: through the complement edge (*), or through the
	// star edge of a pure don't-care node. Without riders a gap is D₀.
	if len(b.sw.Star) > 0 && gaps {
		e := Edge{Iv: dom.Interval()}
		pend = append(pend, b.carry(b.sw.Star, level+1, &e, a))
		edges = append(edges, e)
	}
	n.edges = a.edgeSlice(edges)
	b.edges, b.pend[level] = edges, pend

	for i := range n.edges {
		if e := &n.edges[i]; e.Child == nil && level < t.schema.N()-1 {
			e.Child = b.build(pend[i], level+1)
		}
	}
	n.applyOrder(dom, b.vo, t.strategy, &b.sc, a)
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
	// Bytes is the storage the automaton retains: nodes, edges, layouts (probe
	// trees or scan orders and lookup tables), parked profiles and each
	// distinct leaf set. What successor nodes share is counted per node.
	Bytes int
}

// Stats returns automaton size statistics.
func (t *Tree) Stats() Stats {
	m := t.ensureMeta()
	st := Stats{
		Nodes:        m.nodes,
		Edges:        m.edges,
		SharedHits:   m.shared,
		Height:       t.schema.N(),
		ProfileCount: len(t.profiles),
	}
	sets := make(map[*[]int]struct{})
	for _, level := range m.levels {
		for _, n := range level {
			st.Bytes += int(unsafe.Sizeof(*n)) + len(n.edges)*int(unsafe.Sizeof(Edge{})) + 4*len(n.scan) + 8*len(n.extra)
			if n.tab != nil {
				st.Bytes += int(unsafe.Sizeof(*n.tab)) + len(n.tab.buckets)*int(unsafe.Sizeof(bucket{})) + 4*len(n.tab.orderPos)
			}
			for i := range n.edges {
				if leaf := n.edges[i].leaf; leaf != nil {
					sets[leaf] = struct{}{}
				}
			}
		}
	}
	for leaf := range sets {
		st.Bytes += int(unsafe.Sizeof(*leaf)) + 8*len(*leaf)
	}
	return st
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
	name := t.schema.At(int(n.Attr)).Name
	if seen[n] {
		fmt.Fprintf(b, "%s%s <shared>\n", indent, name)
		return
	}
	seen[n] = true
	fmt.Fprintf(b, "%s%s\n", indent, name)
	for i := range n.edges {
		ei := i // the probe tree of SearchWeighted is no scan order: natural order
		if t.strategy != SearchWeighted {
			ei = int(n.scan[i])
		}
		e := &n.edges[ei]
		label := e.Iv.String()
		switch n.Kind(ei) {
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
