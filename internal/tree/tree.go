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
	"sort"
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
	// cons holds canonical constraints per attribute and profile. Build
	// fills it and keeps it: the incremental transforms (WithProfile)
	// consult it for every profile riding through a split bucket.
	cons [][]subrange.Constraint
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

// Build constructs the profile tree for the given profiles.
func Build(s *schema.Schema, profiles []*predicate.Profile, opts ...Option) (*Tree, error) {
	if len(profiles) == 0 {
		return nil, ErrNoProfiles
	}
	cfg := config{strategy: DefaultSearch}
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

	// Canonical intervals are cached per (profile, attribute): the builder
	// consults them at every node of the shared automaton.
	t.cons = make([][]subrange.Constraint, s.N())
	for attr := 0; attr < s.N(); attr++ {
		dom := s.At(attr).Domain
		t.cons[attr] = make([]subrange.Constraint, len(profiles))
		for pi, p := range profiles {
			if !p.Constrains(attr) {
				t.cons[attr][pi] = subrange.Constraint{Profile: pi, DontCare: true}
				continue
			}
			t.cons[attr][pi] = subrange.Constraint{
				Profile:   pi,
				Intervals: p.Pred(attr).Intervals(dom),
			}
		}
	}

	all := make([]int, len(profiles))
	for i := range profiles {
		all[i] = i
	}
	memo := make(map[string]*Node)
	t.root = t.build(all, 0, memo)
	// The builder tracked the meta incrementally; consume the lazy fill.
	t.meta.once.Do(func() {})
	t.applyNaturalOrder()
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

// build returns the (possibly shared) node for the alive profile set at the
// given level.
//
//genas:builder
func (t *Tree) build(alive []int, level int, memo map[string]*Node) *Node {
	key := strconv.Itoa(level) + "|" + subrange.Key(alive)
	if n, ok := memo[key]; ok {
		t.meta.shared++
		return n
	}

	attr := t.attrOrder[level]
	dom := t.schema.At(attr).Domain
	dec := subrange.DecomposeIndexed(dom, t.cons[attr], alive)

	n := &Node{
		Level:    level,
		Attr:     attr,
		discrete: dom.Kind() != schema.KindNumeric,
	}
	last := level == t.schema.N()-1

	// Subrange edges in natural order; don't-care profiles ride along.
	for _, sr := range dec.Subranges {
		profs := unionSorted(sr.Profiles, dec.Star)
		e := Edge{Kind: EdgeSubrange, Iv: sr.Iv, Profiles: profs}
		t.descend(&e, profs, level, last, memo)
		n.edges = append(n.edges, e)
	}
	n.nSubrange = len(n.edges)

	switch {
	case len(dec.Subranges) == 0 && len(dec.Star) > 0:
		// Pure don't-care node: single star edge over the whole domain.
		e := Edge{Kind: EdgeStar, Iv: dom.Interval(), Profiles: dec.Star}
		t.descend(&e, dec.Star, level, last, memo)
		n.edges = append(n.edges, e)
		n.buckets = []bucket{{iv: dom.Interval(), edge: len(n.edges) - 1}}
	case len(dec.Star) > 0 && len(dec.Gaps) > 0:
		// Complement edge (*) for the riders across every gap piece.
		e := Edge{Kind: EdgeComplement, Profiles: dec.Star}
		t.descend(&e, dec.Star, level, last, memo)
		n.edges = append(n.edges, e)
		n.buckets = mergeBuckets(dec, len(n.edges)-1)
	default:
		// Gaps (if any) are D₀: non-match regions.
		n.buckets = mergeBuckets(dec, -1)
	}

	t.meta.nodes++
	t.meta.edges += len(n.edges)
	t.meta.levels[level] = append(t.meta.levels[level], n)
	memo[key] = n
	return n
}

// descend fills the edge target: a child node, or nothing at the leaf level
// (a leaf edge's Profiles already is its match set).
//
//genas:builder
func (t *Tree) descend(e *Edge, alive []int, level int, last bool, memo map[string]*Node) {
	if last {
		return
	}
	e.Child = t.build(alive, level+1, memo)
}

// mergeBuckets builds the natural-order domain partition from the
// decomposition. complementEdge is the edge index for gap pieces (−1 = D₀).
//
//genas:builder
func mergeBuckets(dec subrange.Decomposition, complementEdge int) []bucket {
	type piece struct {
		iv   schema.Interval
		edge int
	}
	pieces := make([]piece, 0, len(dec.Subranges)+len(dec.Gaps))
	for i, sr := range dec.Subranges {
		pieces = append(pieces, piece{iv: sr.Iv, edge: i})
	}
	for _, g := range dec.Gaps {
		pieces = append(pieces, piece{iv: g, edge: complementEdge})
	}
	sort.Slice(pieces, func(i, j int) bool {
		if pieces[i].iv.Lo != pieces[j].iv.Lo {
			return pieces[i].iv.Lo < pieces[j].iv.Lo
		}
		// A point interval sorts before the open interval starting there.
		return pieces[i].iv.Hi < pieces[j].iv.Hi
	})
	out := make([]bucket, len(pieces))
	for i, p := range pieces {
		out[i] = bucket{iv: p.iv, edge: p.edge}
	}
	return out
}

// unionSorted merges two sorted int slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
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
