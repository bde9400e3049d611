// Package tree implements the profile tree: the deterministic finite state
// automaton built from a profile set that the paper's filtering is based on
// (§3, following Gough & Smith [8] and Aguilera et al. [1]).
//
// The tree has height n (one level per attribute). Each level corresponds to
// one attribute after attribute reordering; edges at a node carry the
// disjoint subranges referenced by the profiles still alive on that path.
// A profile that constrains no level from a node down — a rider — matches
// every event reaching that node, so the node parks it (Node.Extra) and no
// edge below carries it. Profiles that do not constrain the level's attribute
// but constrain a deeper one ride along every edge and additionally along the
// complement edge "(*)" covering the unreferenced remainder of the domain; if
// no alive profile constrains the attribute the node has the single don't-care
// edge "*". For an observed event there is a single path to follow (edges are
// disjoint), collecting the parked profiles of every node it passes and ending
// in a leaf that lists the other matched profiles. Those edges are all a node
// stores of its partition of the domain, and the parked and leaf sets all the
// tree stores of who is alive where: the pieces between the edges are derived
// (Pieces). Build and the incremental insert (WithProfile) park alike.
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
	"strings"
	"sync"
	"unsafe"

	"genas/internal/par"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// Errors returned by tree construction.
var (
	ErrBadOrder = errors.New("tree: attribute order is not a permutation")
	ErrTooWide  = errors.New("tree: more attributes than a node's level counts")
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
	// union of the parked and leaf sets it leads to.
	leaf *[]int
}

// Leaf returns the match set of a leaf-level edge (nil on an interior one).
func (e *Edge) Leaf() []int {
	if e.leaf == nil {
		return nil
	}
	return *e.leaf
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
	// layout is the probe tree over the subrange edges, in preorder
	// (weighted.go).
	layout []int32
	// extra lists the profiles parked here, matched by every event reaching
	// this node: those that constrain no level from this one down. Build and
	// the incremental insert alike park a profile in the first node it reaches
	// below its last constrained level, instead of carrying it into every leaf
	// of the subtree.
	extra []int
	// Level is the 0-based tree level; Attr the schema attribute tested.
	Level, Attr int16
	// nSubrange counts the leading subrange edges (edges[:nSubrange] are in
	// natural ascending order; a complement or star edge follows, if any).
	nSubrange int32
}

// Edges exposes the node's edges (shared slice; callers must not mutate).
func (n *Node) Edges() []Edge { return n.edges }

// Extra exposes the profiles parked at the node: every event reaching it
// matches them (shared slice; callers must not mutate).
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
// graph (the successor of an edit that changed no node) share the meta, and
// so that incremental successors (WithProfile, WithoutProfile) can defer the
// full-graph walk until Levels or Stats is actually consulted — the churn
// path never pays it.
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

// Tree is the profile tree.
type Tree struct {
	schema    *schema.Schema
	profiles  []*predicate.Profile
	attrOrder []int // attrOrder[level] = schema attribute index
	root      *Node
	// vo is the weights the probe trees were laid out for: Build's and
	// Reordered's, handed down by edits, which lay out what they re-cut
	// under it.
	vo ValueOrder

	// gone lists the dense indices WithoutProfile took out since the profile
	// array started, in a Build or a Copied: the array's indices no set
	// holds any more. Like profiles, it is shared along a line, whose head
	// owns the tail.
	gone []int

	meta *graphMeta
	// line is the line of edits this tree belongs to: nil on a Build, whose
	// first successor starts a line with a fresh arena.
	line *lineage
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
	vo        ValueOrder
}

// WithAttributeOrder builds the tree with the given attribute order:
// order[level] is the schema attribute tested at that level.
func WithAttributeOrder(order []int) Option {
	return func(c *config) { c.attrOrder = append([]int(nil), order...) }
}

// WithValueOrder lays every node out under vo as it is built (default
// NaturalOrder: uniform weights).
func WithValueOrder(vo ValueOrder) Option {
	return func(c *config) { c.vo = vo }
}

// Build constructs the profile tree for the given profiles. Of no profiles
// it builds the automaton that matches nothing: a root without edges, which
// is also what WithoutProfile of a tree's last profile leaves.
func Build(s *schema.Schema, profiles []*predicate.Profile, opts ...Option) (*Tree, error) {
	cfg := config{vo: NaturalOrder()}
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
		vo:        cfg.vo,
		meta:      &graphMeta{levels: make([][]*Node, s.N())},
	}

	// Every interval endpoint is ranked once per attribute, the attributes at
	// once; a constraint table and its intervals live only until then.
	b := builder{t: t, ix: make([]*subrange.Index, s.N()), memo: make(map[uint64]state), a: make([]arena, s.N())}
	par.For(par.Workers(s.N()*len(profiles), rankGrain), s.N(), 1, func(_, attr int) {
		dom := s.At(attr).Domain
		cons := make([]subrange.Constraint, len(profiles))
		var ivs []schema.Interval
		for pi, p := range profiles {
			cons[pi] = subrange.Constraint{Profile: pi, DontCare: !p.Constrains(attr)}
			if !cons[pi].DontCare {
				from := len(ivs)
				ivs = p.Pred(attr).AppendIntervals(ivs, dom)
				cons[pi].Intervals = ivs[from:]
			}
		}
		b.ix[attr] = subrange.NewIndex(dom, cons)
	})

	b.deepest = make([]int, len(profiles))
	all := make([]int, len(profiles))
	for i, p := range profiles {
		all[i], b.deepest[i] = i, -1
		for level, attr := range cfg.attrOrder {
			if p.Constrains(attr) {
				b.deepest[i] = level
			}
		}
	}
	t.root = b.build(all)
	layOut(s, cfg.vo, t.meta.levels...)
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

// builder carries one Build: the rank index of every attribute, the memo
// that keeps equivalent states shared, and the arenas everything the tree
// retains is carved from.
type builder struct {
	t    *Tree
	ix   []*subrange.Index // by schema attribute
	memo map[uint64]state
	// deepest[pi] is the deepest level profile pi constrains, −1 for none.
	deepest []int
	// sw holds one sweeper per worker of the current batch; edges assembles
	// one node's edges in the commit.
	sw    []sweeper
	edges []Edge
	// a holds one arena per level. Reordered and WithProfile replace a tree
	// level by level, and a chunk lives as long as anything in it: were the
	// levels interleaved, the last level's shared edges would pin every node
	// a whole reorder had replaced.
	a []arena
	// own stores the alive sets of the interior states: the memo's keys, which
	// no edge keeps, so they die with the build.
	own arena
}

// Build's parallel stages run inline below these sizes: the profiles times
// the attributes to rank, and the weight of a frontier batch to sweep, where
// a state of a alive profiles weighs a², the most its edges can carry. A
// batch ends once it weighs batchWeight, which bounds the sweepers' buffers.
const (
	rankGrain   = 4096
	sweepGrain  = 1 << 13
	batchWeight = 1 << 18
)

// state is a memoised alive set: the set as the first edge carrying it into
// level wrote it down, and what was made of it — the node built for it or, at
// the tree's height, the leaf match set the tree stores once.
type state struct {
	level int
	n     *Node
	alive []int
	leaf  *[]int
}

// pending is a frontier state: its node, allocated but not yet assembled, and
// its alive profile set.
type pending struct {
	n     *Node
	alive []int
}

// build assembles the automaton level by level from the root, whose alive set
// is all. Workers sweep a batch of the frontier into their own buffers, then
// one commit takes the batch in frontier order: it interns each child set in
// the memo, allocates the nodes of the new states — the next frontier, in the
// order a depth-first build would reach them — and copies the edges and sets
// into the level's arena. So sharing, the level lists and the arenas are
// those of a build that descends one state at a time.
//
//genas:builder
func (b *builder) build(all []int) *Node {
	root := b.a[0].node()
	*root = Node{Attr: int16(b.t.attrOrder[0])}
	front, next := []pending{{root, all}}, []pending(nil)
	var res []swept
	for level := range b.a {
		for from := 0; from < len(front); {
			to, weight := from, 0
			for ; to < len(front) && weight < batchWeight; to++ {
				weight += len(front[to].alive) * len(front[to].alive)
			}
			batch, w := front[from:to], par.Workers(weight, sweepGrain)
			for len(b.sw) < w {
				b.sw = append(b.sw, sweeper{})
			}
			for i := range b.sw[:w] {
				b.sw[i].ints, b.sw[i].cuts = b.sw[i].ints[:0], b.sw[i].cuts[:0]
			}
			res = slices.Grow(res[:0], len(batch))[:len(batch)]
			par.For(w, len(batch), 1, func(w, i int) { res[i] = b.sw[w].sweep(b, batch[i].alive, level, w) })
			for i, p := range batch {
				next = b.commit(p.n, level, res[i], next)
			}
			from = to
		}
		front, next = next, front[:0]
	}
	return root
}

// sweeper is one worker's scratch: it decomposes the states it claims and
// keeps, back to back, what the commit copies out.
type sweeper struct {
	sw   subrange.Sweep
	rest []int
	ints []int // parked profiles and edge sets
	cuts []cut
}

// cut is one edge a sweep found: its interval, and its profile set in the
// sweeper's ints with the set's memo hash.
type cut struct {
	iv     schema.Interval
	h      uint64
	lo, hi int
}

// swept locates one state's sweep: the sweeper, its parked profiles in the
// sweeper's ints, its edges in the cuts, and how many lead the subrange edges.
type swept struct {
	w, park, parked, from, to, nSubrange int
}

// sweep decomposes the state of alive at level. A rider, a profile that
// constrains no level from this one down, matches every event reaching the
// node: it is parked there once instead of riding every edge and every path
// below. One sweep over the rest yields the pieces in natural order: a covered
// piece is a subrange edge on which the don't-care profiles ride along, an
// uncovered one a gap, which no edge stores. The don't-care profiles own the
// gaps: through the complement edge (*), or through the star edge of a pure
// don't-care node. Without them a gap is D₀.
func (sw *sweeper) sweep(b *builder, alive []int, level, w int) swept {
	r := swept{w: w, park: len(sw.ints)}
	rest := alive
	if slices.ContainsFunc(alive, func(pi int) bool { return b.deepest[pi] < level }) {
		rest = sw.rest[:0]
		for _, pi := range alive {
			if b.deepest[pi] < level {
				sw.ints = append(sw.ints, pi)
			} else {
				rest = append(rest, pi)
			}
		}
		sw.rest = rest
	}
	r.parked, r.from = len(sw.ints), len(sw.cuts)

	attr := b.t.attrOrder[level]
	sw.sw.Reset(b.ix[attr], rest)
	gaps := false
	for sw.sw.Next() {
		if len(sw.sw.Active) == 0 {
			gaps = true
			continue
		}
		sw.cut(sw.sw.Iv, level+1, sw.sw.Active, sw.sw.Star)
	}
	r.nSubrange = len(sw.cuts) - r.from
	if len(sw.sw.Star) > 0 && gaps {
		sw.cut(b.t.schema.At(attr).Domain.Interval(), level+1, sw.sw.Star, nil)
	}
	r.to = len(sw.cuts)
	return r
}

// cut records the edge over iv carrying the union of x and y into level, and
// the set's memo key: a hash of level and set.
func (sw *sweeper) cut(iv schema.Interval, level int, x, y []int) {
	lo, h := len(sw.ints), uint64(level+1)
	sw.ints = appendUnion(sw.ints, x, y)
	for _, pi := range sw.ints[lo:] {
		h = (h ^ uint64(pi)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	sw.cuts = append(sw.cuts, cut{iv: iv, h: h, lo: lo, hi: len(sw.ints)})
}

// commit assembles n, the state at level, from its sweep r in the level's
// arena: its parked profiles, and an edge per cut pointing at what the cut's
// set leads to. A set seen before at the next level leads to its state; a new
// one is memoised — at the tree's height as a leaf match set the tree stores
// once, above it as a new node, appended to the next frontier. n's probe tree
// gets its storage, which layOut fills.
//
//genas:builder
func (b *builder) commit(n *Node, level int, r swept, next []pending) []pending {
	sw, a, t := &b.sw[r.w], &b.a[level], b.t
	if r.parked > r.park {
		n.extra = a.intSlice(sw.ints[r.park:r.parked])
	}
	edges := b.edges[:0]
	for _, c := range sw.cuts[r.from:r.to] {
		set, h, child := sw.ints[c.lo:c.hi], c.h, level+1
		st, ok := b.memo[h]
		for ; ok && (st.level != child || !slices.Equal(st.alive, set)); st, ok = b.memo[h] {
			h++ // a key taken by another state passes the probe on
		}
		switch {
		case ok && st.n != nil:
			t.meta.shared++
		case ok:
		case child == t.schema.N():
			st.level, st.leaf = child, a.leafSet(a.intSlice(set))
			st.alive = *st.leaf
			b.memo[h] = st
		default:
			st = state{level: child, n: b.a[child].node(), alive: b.own.intSlice(set)}
			*st.n = Node{Level: int16(child), Attr: int16(t.attrOrder[child])}
			b.memo[h] = st
			next = append(next, pending{st.n, st.alive})
		}
		edges = append(edges, Edge{Iv: c.iv, Child: st.n, leaf: st.leaf})
	}
	n.nSubrange = int32(r.nSubrange)
	n.edges = a.edgeSlice(edges)
	n.layout = a.layout(r.nSubrange)
	b.edges = edges
	t.meta.nodes++
	t.meta.edges += len(n.edges)
	t.meta.levels[level] = append(t.meta.levels[level], n)
	return next
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
// An index WithoutProfile removed keeps its profile here, and no parked or
// leaf set lists it: every index a match returns is live.
func (t *Tree) Profiles() []*predicate.Profile { return t.profiles }

// ValueOrder returns the weights the tree's probe trees were laid out for.
func (t *Tree) ValueOrder() ValueOrder { return t.vo }

// AttrOrder returns a copy of the attribute order.
func (t *Tree) AttrOrder() []int { return append([]int(nil), t.attrOrder...) }

// Levels returns the unique nodes per level (shared slices; do not mutate).
// On incremental successor trees the lists are computed lazily on first use.
func (t *Tree) Levels() [][]*Node { return t.ensureMeta().levels }

// Stats summarizes the automaton size.
type Stats struct {
	Nodes, Edges, SharedHits int
	Height                   int
	Profiles                 int
	// Bytes is the storage the automaton retains: nodes, edges, probe trees,
	// parked profiles and each distinct leaf set. What successor nodes share
	// is counted per node.
	Bytes int
}

// Stats returns automaton size statistics.
func (t *Tree) Stats() Stats {
	m := t.ensureMeta()
	st := Stats{
		Nodes:      m.nodes,
		Edges:      m.edges,
		SharedHits: m.shared,
		Height:     t.schema.N(),
		Profiles:   len(t.profiles),
	}
	sets := make(map[*[]int]struct{})
	for _, level := range m.levels {
		for _, n := range level {
			st.Bytes += int(unsafe.Sizeof(*n)) + len(n.edges)*int(unsafe.Sizeof(Edge{})) + 4*len(n.layout) + 8*len(n.extra)
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
// paper-example tests. A node's parked profiles follow its attribute's name.
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
	if len(n.extra) > 0 {
		fmt.Fprintf(b, "%s%s parked %s\n", indent, name, t.idSet(n.extra))
	} else {
		fmt.Fprintf(b, "%s%s\n", indent, name)
	}
	for i := range n.edges {
		e := &n.edges[i]
		label := e.Iv.String()
		switch n.Kind(i) {
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
		fmt.Fprintf(b, "%s  %s -> %s\n", indent, label, t.idSet(e.Leaf()))
	}
}

// idSet renders a set of dense indices as their profiles' ids.
func (t *Tree) idSet(ps []int) string {
	ids := make([]string, len(ps))
	for i, pi := range ps {
		ids[i] = string(t.profiles[pi].ID)
	}
	return "{" + strings.Join(ids, ",") + "}"
}
