// Incremental maintenance of the profile tree: insert one profile by merging
// its one-profile automaton into the automaton states the profile can reach
// (the "corridor"), remove one by running the same merge backwards, and
// re-apply a value order by cloning the nodes it re-lays so concurrent readers
// of the original tree never observe a half-laid node.
//
// All three operations are persistent: the receiver tree is never mutated,
// the successor shares every node the change does not touch. That is what
// lets the engine publish trees through an atomic snapshot pointer and keep
// the match path lock-free — a reader traversing the old tree races nothing.
//
// An insert is the union of two automata over one level order: the tree and
// the chain, the new profile alone with one node per level. A merged node's
// partition is the overlay of its two nodes', and each piece leads to the
// merge of what it leads to on either side, or to one side's node or match set
// as it is where the other has nothing. Correctness rests on one observation:
// the new profile only refines the domain partition at each node (its
// intervals add cuts, never remove them), so every new piece either lies
// inside the new profile's region — where the profile joins the edge and the
// child is merged — or outside it, where the old edge and the old child are
// reused verbatim. Shared states stay shared because the merge is memoized by
// old-node identity: a tree node meets only the chain's node of its level, so
// alive' = alive ∪ {np} is a function of the old state alone.
//
// A removal walks the same corridor with the profile's chain and takes it out
// of the sets in its region (alive' = alive ∖ {np}); each copied node then
// rejoins the pieces whose states became equal.
//
// An edit walks and lays out only what it changes in a node it copies. Where
// the chain's node has subrange edges only, the profile's region is a span of
// the domain: old's edges below and above it are copied in bulk, and only the
// pieces across it are walked. The copy's probe tree is old's, in which only
// the smallest subtree covering the keys the edit changed is laid out afresh
// under the tree's weights, so an edited automaton probes about as cheaply as
// the one Build lays out. Successors are generally not the canonical tree
// Build would produce (distinct nodes may hold equal states), but their match
// sets are identical, which the oracle equivalence tests pin, and their graph
// stays within a small factor of a Build's, so nothing rebuilds them. What a
// line of edits accumulates, the copies its chunks pin and the removed dense
// indices, goes when the line is Worn and its head Copied.

package tree

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// WithProfile returns a successor tree containing p in addition to the
// receiver's profiles, plus p's dense index in the successor. The receiver
// is unchanged and keeps working; untouched subtrees are shared between the
// two. The successor is the merge of the receiver with p's one-profile
// automaton, memoized by the receiver's nodes. It records vo and lays out
// under it the nodes p alone continues and, in each node p's intervals
// re-cut, the smallest subtree of the probe tree covering the changed keys;
// the nodes p rides through keep their probe trees.
func (t *Tree) WithProfile(p *predicate.Profile, vo ValueOrder) (*Tree, int) {
	np := len(t.profiles)
	return t.edit(p, np, vo, false), np
}

// WithoutProfile returns a successor tree without dense index pi: the merge
// of WithProfile run backwards, which takes pi out of every parked and leaf
// set along its paths and rejoins the pieces it leaves with equal states. In
// a node whose subrange edges changed, the smallest subtree of the probe tree
// covering the changed keys is laid out afresh under the weights the receiver
// records; every other node keeps its probe tree. Removing an index no set
// holds changes no match set.
// The index stays taken: Profiles still lists pi's profile, which no set
// lists any more.
func (t *Tree) WithoutProfile(pi int) *Tree {
	return t.edit(t.profiles[pi], pi, t.vo, true)
}

// edit derives the successor that adds p at index pi, or with drop set takes
// it out, laying out what it re-cuts under vo. A successor of the newest tree
// of its line carves from the line's arena and appends to the line's profile
// array; a successor of any other tree — a second successor of one tree, or
// the first of a Build — starts a line of its own.
func (t *Tree) edit(p *predicate.Profile, pi int, vo ValueOrder, drop bool) *Tree {
	nt := &Tree{schema: t.schema, attrOrder: t.attrOrder, profiles: t.profiles, gone: t.gone, vo: vo}
	if !t.handOver(nt) {
		// t heads no line: past their lengths the arrays may be another tree's.
		nt.line = &lineage{a: arena{line: true}, base: t.Stats().Bytes}
		nt.line.head.Store(nt)
		nt.profiles, nt.gone = slices.Clip(nt.profiles), slices.Clip(nt.gone)
	}
	// The head owns the arrays past every predecessor's length.
	if drop {
		nt.gone = append(nt.gone, pi)
	} else {
		nt.profiles = append(nt.profiles, p)
	}

	m := mergerPool.Get().(*merger)
	defer mergerPool.Put(m)
	m.t, m.np, m.a, m.drop, m.vo = nt, pi, &nt.line.a, drop, vo
	if n := nt.schema.N(); len(m.edges) < n {
		m.edges = make([][]Edge, n)
	}
	// An unsatisfiable profile can never match: the automaton is unchanged
	// and the whole node graph is shared. Its index still exists (it appears
	// in no set).
	nt.root, nt.meta = t.root, t.meta
	if chain := m.chain(p, vo); chain != nil {
		if nt.root = m.merge(t.root, chain); nt.root == nil {
			nt.root = &Node{Attr: int16(t.attrOrder[0])} // the last profile left
		}
		if nt.root != t.root {
			nt.meta = &graphMeta{} // filled lazily on the first Levels/Stats call
		}
	}
	// The successor owns its line's arena and the merge state now; scratch
	// buffers keep their capacity for the next edit, but no edge, which would
	// keep its line's chunks alive past the line's copy.
	m.t, m.a, m.vo = nil, nil, ValueOrder{}
	clear(m.memo)
	for _, buf := range m.edges {
		clear(buf[:cap(buf)])
	}
	return nt
}

// lineage is what a line of successor trees hands down: the arena their
// edits carve from, the tails of the profile and gone arrays past the newest
// tree's lengths, and base, the bytes of the tree the line started from.
// Only the line's head, its newest tree, carves from the arena or appends to
// the arrays; every successor takes the line over from its head.
type lineage struct {
	head atomic.Pointer[Tree]
	a    arena
	base int
}

// lineFactor bounds a line's arena at that many times the bytes the line
// started from: a churn-mixed-shaped tree then copies itself once in some
// 1 100 edits, each copy taking about half a Build's time.
const lineFactor = 16

// Worn reports, in O(1), whether t heads a line due for a copy: its arena
// holds lineFactor times the bytes it started from, or more than half of t's
// dense indices are gone.
func (t *Tree) Worn() bool {
	return t.line != nil && (t.line.a.bytes() > lineFactor*t.line.base || 2*len(t.gone) > len(t.profiles))
}

// Copied returns t copied into a fresh line, and old, t's dense index of
// each of the copy's: every node t reaches with its probe tree as laid out,
// the live indices renumbered in order. The copy shares no chunk with t's
// line, and probes in t's comparisons.
func (t *Tree) Copied() (nt *Tree, old []int) {
	c := copier{deepest: len(t.attrOrder), memo: make(map[*Node]*Node), renum: make([]int, len(t.profiles)), sets: make(map[*[]int]*[]int)}
	for _, pi := range t.gone {
		c.renum[pi] = -1
	}
	nt = &Tree{schema: t.schema, attrOrder: t.attrOrder, vo: t.vo, meta: &graphMeta{}, line: &lineage{a: arena{line: true}}}
	for pi, p := range t.profiles {
		if c.renum[pi] >= 0 {
			c.renum[pi] = len(old)
			old, nt.profiles = append(old, pi), append(nt.profiles, p)
		}
	}
	c.a = &nt.line.a
	nt.root = c.clone(t.root)
	nt.line.base = c.a.bytes()
	nt.line.head.Store(nt)
	return nt, old
}

// handOver makes nt the head of t's line when t heads it, and reports
// whether it did; otherwise nt has no line. A tree that is not its line's
// head has a successor already, so a second successor of one tree never
// writes into storage its sibling owns.
func (t *Tree) handOver(nt *Tree) bool {
	if l := t.line; l != nil && l.head.CompareAndSwap(t, nt) {
		nt.line = l
		return true
	}
	nt.line = nil
	return false
}

// mergerPool recycles the memo map and scratch buffers across edits: steady
// churn then allocates almost nothing beyond the successor's Tree and graph
// meta.
var mergerPool = sync.Pool{New: func() any { return &merger{memo: make(map[*Node]*Node, 256)} }}

// Reordered returns a successor tree with vo applied to the nodes that test
// one of attrs (none given: to every node). It does not mutate the receiver,
// and it costs what is reordered: nodes down to the deepest level testing such
// an attribute are path-copied, those testing one get a fresh layout, and
// everything below — like every profile and leaf set — is shared, so readers
// of the old tree keep consistent probe trees. It reports the nodes re-laid
// and the nodes copied only to re-point their children.
func (t *Tree) Reordered(vo ValueOrder, attrs ...int) (nt *Tree, resorted, copied int) {
	r := copier{sel: make([]bool, len(t.attrOrder)), memo: make(map[*Node]*Node), a: &arena{}}
	for _, a := range attrs {
		r.sel[a] = true
	}
	for level, a := range t.attrOrder {
		if len(attrs) == 0 {
			r.sel[a] = true
		}
		if r.sel[a] {
			r.deepest = level
		}
	}
	c := *t
	c.vo = vo
	t.handOver(&c)
	c.root = r.clone(t.root)
	c.meta = &graphMeta{} // same graph shape, but fresh nodes: recompute lazily
	layOut(t.schema, vo, r.relay)
	return &c, len(r.relay), r.copied
}

// copier is one walk copying a tree's nodes down to level deepest into a,
// each state once. Reordered's re-lays the nodes testing a selected attribute
// and counts the rest; Copied's keeps every probe tree and renumbers every
// set through renum, each distinct leaf set once.
type copier struct {
	deepest int
	memo    map[*Node]*Node
	a       *arena
	sel     []bool
	relay   []*Node
	copied  int
	renum   []int
	sets    map[*[]int]*[]int
}

//genas:builder
func (c *copier) clone(old *Node) *Node {
	if int(old.Level) > c.deepest {
		return old
	}
	if n, ok := c.memo[old]; ok {
		return n
	}
	n := c.a.node()
	*n = *old
	if int(old.Level) < c.deepest {
		n.edges = c.a.edgeSlice(old.edges)
		for i := range n.edges {
			switch e := &n.edges[i]; {
			case e.Child != nil:
				e.Child = c.clone(e.Child)
			case e.leaf != nil:
				if c.sets[e.leaf] == nil {
					c.sets[e.leaf] = c.a.leafSet(c.renumbered(*e.leaf))
				}
				e.leaf = c.sets[e.leaf]
			}
		}
	}
	switch {
	case c.renum != nil:
		n.layout = c.a.layout(len(old.layout))
		copy(n.layout, old.layout)
		if len(old.extra) > 0 {
			n.extra = c.renumbered(old.extra)
		}
	case c.sel[old.Attr]:
		n.layout = c.a.layout(int(n.nSubrange))
		c.relay = append(c.relay, n)
	default:
		c.copied++
	}
	c.memo[old] = n
	return n
}

// renumbered returns set s renumbered, in arena storage (and sorted: the
// renumbering keeps the live indices' order).
func (c *copier) renumbered(s []int) []int {
	out := c.a.ints.take(len(s), intChunk, c.a.line)
	for i, pi := range s {
		out[i] = c.renum[pi]
	}
	return out
}

// arena chunk-allocates the objects of one build or one line of inserts. A
// corridor merge creates hundreds of small, identically shaped objects
// (nodes, edge lists, layouts, match sets), a build tens of thousands;
// allocating each individually made malloc fixed costs and the resulting GC
// assist rate the dominant term of both. A chunk lives as long as anything in
// it; the unused tail of the last chunk of each kind is the only overhead.
type arena struct {
	nodes   slab[Node]
	edges   slab[Edge]
	ints    slab[int]   // match sets
	sets    slab[[]int] // their handles
	layouts slab[int32] // probe trees
	// line marks the arena a line of inserts carves from, whose chunks start
	// at the fixed sizes below; a build's start from nothing.
	line bool
}

// Chunks grow with what the arena has handed out. A build's chunk is a
// thirty-second of what its slab holds, up to maxChunk elements: a tree of a
// dozen nodes pays for no chunk, the tail of a large one stays a percent or
// two, and the chunk count is logarithmic up to maxChunk. A line's chunk is
// an eighth, and at least the fixed size of its kind: one insert copies
// dozens of nodes and thousands of edges, so a young line's chunks each hold
// a part of an insert and an old line's each hold many inserts, and an
// insert mallocs a chunk once in several. A chunk lives while any copy in it
// does, so one that holds many inserts can pin copies later inserts
// superseded, until the line is worn and its head's copy into a fresh line
// lets the old one go.
const (
	nodeChunk = 64
	edgeChunk = 128
	intChunk  = 256
	setChunk  = 32
	maxChunk  = 1 << 15
)

// slab hands out runs of one chunked element type.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	held int // elements in all chunks so far
}

// take returns n fresh elements, refilling when fewer are left with a chunk
// of what the slab's growth asks for: on a line, at least d.
//
//genas:builder
func (s *slab[T]) take(n, d int, line bool) []T {
	if len(s.free) < n {
		grown := min(s.held/32, maxChunk)
		if line {
			grown = max(d, min(s.held/8, maxChunk))
		}
		// Grow rounds the chunk up to what its size class holds anyway.
		s.free = slices.Grow([]T(nil), max(n, grown))
		s.free = s.free[:cap(s.free)]
		s.held += len(s.free)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// bytes returns the bytes the arena's chunks hold.
func (a *arena) bytes() int {
	return a.nodes.held*int(unsafe.Sizeof(Node{})) + a.edges.held*int(unsafe.Sizeof(Edge{})) + 8*a.ints.held + 24*a.sets.held + 4*a.layouts.held
}

//genas:builder
func (a *arena) node() *Node { return &a.nodes.take(1, nodeChunk, a.line)[0] }

// edgeSlice commits a scratch-built edge list to arena storage.
//
//genas:builder
func (a *arena) edgeSlice(src []Edge) []Edge {
	out := a.edges.take(len(src), edgeChunk, a.line)
	copy(out, src)
	return out
}

// layout returns n zeroed layout entries of arena storage.
func (a *arena) layout(n int) []int32 { return a.layouts.take(n, intChunk, a.line) }

// intSlice commits a scratch-built int list to arena storage.
func (a *arena) intSlice(src []int) []int {
	out := a.ints.take(len(src), intChunk, a.line)
	copy(out, src)
	return out
}

// leafSet returns the handle under which leaf edges share the match set.
func (a *arena) leafSet(set []int) *[]int {
	h := &a.sets.take(1, setChunk, a.line)[0]
	*h = set
	return h
}

// merger carries one edit: the successor tree under construction, the
// profile's dense index, whether the edit drops it, the weights it lays out
// under, and the memo that keeps shared states shared.
type merger struct {
	t    *Tree
	np   int
	drop bool
	vo   ValueOrder
	// memo maps old nodes to their merges with the chain node of their level,
	// nil where a drop leaves the state empty (alive' = alive ∪ {np}, or
	// alive ∖ {np}, is a function of the old state alone, so old-node
	// identity is a sound key).
	memo map[*Node]*Node
	// ivs is the scratch of the chain's intervals on one attribute.
	ivs []schema.Interval
	// edges[level] is the scratch edge list of the node under construction
	// at that level, committed to the arena once complete. Recursion makes
	// one shared buffer unsafe (a nested merge at a deeper level would
	// clobber the caller's), but at most one node is under construction per
	// level, so indexing by level is.
	edges [][]Edge
	// sc is the scratch of the layouts: the chain's and the re-laid subtrees'.
	sc orderScratch
	// a is the successor's line's arena, which every object the successor
	// retains is carved from.
	a *arena
}

// chain builds the new profile's one-profile automaton in the successor's
// arena and returns its root, or nil when the profile is unsatisfiable on
// some attribute. Below the deepest level the profile constrains, the chain
// ends in the node that parks it, as Build would: every event reaching that
// node matches it. Above, each level has one node, laid out under vo, whose
// edges are the profile's intervals on the level's attribute — snapped to the
// canonical piece form, touching ones joined, so that a merged partition stays
// as coarse as a fresh decomposition's — or the star edge where the profile
// leaves the attribute free. Every edge leads to the next level's node, or at
// the leaf level carries the match set {np}.
//
//genas:builder
func (m *merger) chain(p *predicate.Profile, vo ValueOrder) *Node {
	t, last := m.t, -1
	for level, attr := range t.attrOrder {
		if p.Constrains(attr) {
			last = level
		}
	}
	var next *Node
	var leaf *[]int
	one := m.a.ints.take(1, intChunk, m.a.line) // the chain's match set {np}
	one[0] = m.np
	if last+1 < t.schema.N() {
		next = m.a.node()
		*next = Node{Level: int16(last + 1), Attr: int16(t.attrOrder[last+1]), extra: one}
	} else {
		leaf = m.a.leafSet(one)
	}
	for level := last; level >= 0; level-- {
		attr := t.attrOrder[level]
		dom := t.schema.At(attr).Domain
		n := m.a.node()
		*n = Node{Level: int16(level), Attr: int16(attr)}
		buf := m.edges[level][:0]
		if !p.Constrains(attr) {
			buf = append(buf, Edge{Iv: dom.Interval(), Child: next, leaf: leaf})
		} else {
			discrete := dom.Kind() != schema.KindNumeric
			m.ivs = p.Pred(attr).AppendIntervals(m.ivs[:0], dom)
			for _, iv := range m.ivs {
				iv, ok := subrange.Snap(iv, discrete)
				switch k := len(buf); {
				case !ok:
				case k > 0 && piecesTouch(buf[k-1].Iv, iv, discrete):
					buf[k-1].Iv.Hi, buf[k-1].Iv.HiOpen = iv.Hi, iv.HiOpen
				default:
					buf = append(buf, Edge{Iv: iv, Child: next, leaf: leaf})
				}
			}
			if len(buf) == 0 {
				return nil
			}
			n.nSubrange = int32(len(buf))
		}
		m.edges[level] = buf
		n.edges = m.a.edgeSlice(buf)
		n.layout = m.a.layout(int(n.nSubrange))
		n.applyOrder(dom, vo, &m.sc)
		next, leaf = n, nil
	}
	return next
}

// merge returns the merge of old, a node of the receiver tree, with b, the
// chain's node of its level: in drop mode old itself where it does not hold
// the profile, nil where the profile was all it held. A merged node keeps
// old's probe tree where its subrange edges are old's, and otherwise gets
// old's with the changed part re-laid (relay).
//
//genas:builder
func (m *merger) merge(old, b *Node) *Node {
	if n, ok := m.memo[old]; ok {
		return n
	}
	n := *old
	if len(b.extra) > 0 {
		// b parks the profile: every remaining level is don't-care for it,
		// so it matches every event that reaches this node. It is parked in
		// (or taken from) the extra set and the whole subtree is shared —
		// the dominant cost of editing a profile that constrains only early
		// attributes collapses to one node copy.
		n.extra = m.set(old.extra)
	} else {
		m.overlay(&n, old, b)
	}
	var out *Node
	switch {
	case m.drop && len(n.extra) == 0 && len(n.edges) == 0:
	case m.drop && len(n.extra) == len(old.extra) && n.nSubrange == old.nSubrange && slices.Equal(n.edges, old.edges):
		out = old
	default:
		out = m.a.node()
		*out = n
		if len(b.extra) == 0 {
			out.edges = m.a.edgeSlice(n.edges)
			out.layout = m.relay(old, out)
		}
	}
	m.memo[old] = out
	return out
}

// overlay lays n's edges out, in the level's scratch, as the overlay of old's
// and b's partitions, walked in natural order piece against piece. A piece
// that is a subrange edge on either side becomes a subrange edge of n; pieces
// that are gaps on both sides go to n's one trailing edge, the merge of the
// two sides' gap owners — a node's gaps have one owner, so these pieces always
// agree — and stay D₀ where neither side owns its gaps. old's parked profiles
// ride along unchanged: they still match every event reaching n.
//
// Where b has subrange edges only, its region is the span from its first edge
// to its last, and b is a gap on either side of it: old's edges entirely
// below the region are n's as they are, copied in one append, and so are
// those entirely above it once the walk has passed it. Where b is a star node
// every piece is walked.
//
// In drop mode the pieces rejoin as they come: one whose state emptied, or
// that now leads where the trailing edge leads, becomes a gap, and one that
// continues the last edge into an equal state extends it. States compare by
// pointer, and structurally where the drop made either side afresh. Old
// edges never rejoin one another by pointer, but a fresh edge may rejoin the
// old ones after it, so past the region the walk goes on while the last edge
// is fresh.
//
//genas:builder
func (m *merger) overlay(n, old, b *Node) {
	level := int(old.Level)
	dom := m.t.schema.At(int(old.Attr)).Domain
	discrete := dom.Kind() != schema.KindNumeric
	buf := m.edges[level][:0]
	ga, gb := edgeAt(old, int(old.nSubrange)), edgeAt(b, int(b.nSubrange))
	var tr Edge // drop mode: the trailing edge, made first to fold pieces into
	trFresh, lastFresh := false, false
	if m.drop && ga != nil {
		tr = m.edge(dom.Interval(), ga, gb)
		trFresh = tr != *ga
	}
	olds := old.edges[:old.nSubrange]
	pa, pb := old.pieces(dom), b.pieces(dom)
	above := len(olds) // the first old edge entirely above b's region
	if b.nSubrange > 0 {
		lo, hi := b.edges[0].Iv, b.edges[b.nSubrange-1].Iv
		below := sort.Search(len(olds), func(i int) bool { return !ivBefore(olds[i].Iv, lo) })
		above = below + sort.Search(len(olds)-below, func(i int) bool { return ivBefore(hi, olds[below+i].Iv) })
		buf = append(buf, olds[:below]...)
		pa.at = 2 * below // the gap below the first edge the walk takes
	}
	more := pa.Next() && pb.Next()
	if more && pb.Edge < 0 && ivBefore(pb.Iv, pa.Iv) { // b's gap below its region ends where the walk starts
		more = pb.Next()
	}
	for more {
		if pa.Edge >= above && pa.Edge < len(olds) && !lastFresh {
			buf = append(buf, olds[pa.Edge:]...)
			break
		}
		if ea := edgeAt(old, pa.Edge); pa.Edge >= 0 && pa.Edge < len(olds) || pb.Edge >= 0 && pb.Edge < int(b.nSubrange) {
			e := m.edge(pa.Iv.Intersect(pb.Iv), ea, edgeAt(b, pb.Edge))
			fresh, k := ea != nil && (e.Child != ea.Child || e.leaf != ea.leaf), len(buf)
			switch {
			case !m.drop:
				buf = append(buf, e)
			case e.Child == nil && e.leaf == nil || sameState(e, tr, fresh || trFresh):
			case k > 0 && piecesTouch(buf[k-1].Iv, e.Iv, discrete) && sameState(buf[k-1], e, fresh || lastFresh):
				buf[k-1].Iv.Hi, buf[k-1].Iv.HiOpen = e.Iv.Hi, e.Iv.HiOpen
				lastFresh = lastFresh || fresh
			default:
				buf, lastFresh = append(buf, e), fresh
			}
		}
		switch {
		case endsBelow(pa.Iv, pb.Iv):
			more = pa.Next()
		case endsBelow(pb.Iv, pa.Iv):
			more = pb.Next()
		default:
			more = pa.Next() && pb.Next()
		}
	}
	// A piece no subrange edge holds — a gap on both sides, or one a drop
	// made — leaves a hole, which the trailing edge takes.
	n.nSubrange = int32(len(buf))
	switch {
	case m.drop && (tr.Child != nil || tr.leaf != nil) && !tiles(buf, dom.Interval(), discrete):
		buf = append(buf, tr)
	case !m.drop && (ga != nil || gb != nil) && !tiles(buf, dom.Interval(), discrete):
		buf = append(buf, m.edge(dom.Interval(), ga, gb))
	}
	m.edges[level] = buf
	n.edges = buf
}

// relay returns the probe tree of n, old's merge: old's own where their
// subrange edges are the same, else old's with the smallest subtree covering
// the changed keys laid out afresh under the edit's weights — found by
// walking down from the root, the empty slot between two old keys where the
// edit only adds keys — and every key above it shifted by the change in
// count. Only the re-laid keys and the gaps around them are weighed.
//
//genas:builder
func (m *merger) relay(old, n *Node) []int32 {
	oe, ne := old.edges[:old.nSubrange], n.edges[:n.nSubrange]
	same, p, s := min(len(oe), len(ne)), 0, 0 // the common prefix and suffix
	for p < same && oe[p].Iv == ne[p].Iv {
		p++
	}
	for s < same-p && oe[len(oe)-1-s].Iv == ne[len(ne)-1-s].Iv {
		s++
	}
	if len(oe) == len(ne) && p+s == len(oe) {
		return old.layout
	}
	last := len(oe) - 1 - s // the last changed old key, p−1 where none is
	pos, lo, hi := 0, 0, len(oe)-1
	for lo <= hi {
		r := int(old.layout[pos])
		if last < r {
			pos, hi = pos+1, r-1
		} else if p > r {
			pos, lo = pos+1+r-lo, r+1
		} else {
			break
		}
	}
	d := len(ne) - len(oe)
	out := shifted(m.a.layout(len(ne))[:0], old.layout[:pos], hi, d)
	if lo <= hi+d {
		m.sc.weigh(n, m.t.schema.At(int(n.Attr)).Domain, m.vo, lo, hi+d)
		out = m.sc.lay(out, lo, hi+d+1)
	}
	return shifted(out, old.layout[pos+hi-lo+1:], hi, d)
}

// shifted appends keys, those above hi moved by d.
func shifted(out, keys []int32, hi, d int) []int32 {
	for _, k := range keys {
		if int(k) > hi {
			k += int32(d)
		}
		out = append(out, k)
	}
	return out
}

// edge returns the merged edge over iv of old's edge ea and the chain's edge
// eb, either nil where its side has nothing there. Where both have one, it
// carries at the leaf level the edited match set, and above it the merge of
// their children; otherwise an insert shares one side's child or match set
// as it is, and a drop keeps old's or, where old has nothing, nothing.
//
//genas:builder
func (m *merger) edge(iv schema.Interval, ea, eb *Edge) Edge {
	switch {
	case ea == nil && m.drop:
		return Edge{Iv: iv}
	case ea == nil:
		return Edge{Iv: iv, Child: eb.Child, leaf: eb.leaf}
	case eb == nil:
		return Edge{Iv: iv, Child: ea.Child, leaf: ea.leaf}
	case ea.Child == nil:
		switch s := m.set(*ea.leaf); len(s) {
		case len(*ea.leaf):
			return Edge{Iv: iv, leaf: ea.leaf}
		case 0:
			return Edge{Iv: iv}
		default:
			return Edge{Iv: iv, leaf: m.a.leafSet(s)}
		}
	}
	return Edge{Iv: iv, Child: m.merge(ea.Child, eb.Child)}
}

// set returns the sorted dense-index set s, in arena storage, with the
// profile added — its index is the successor's largest, so the union is a
// copy plus one trailing element — or in drop mode taken out: s itself where
// s does not hold it.
func (m *merger) set(s []int) []int {
	if !m.drop {
		out := m.a.ints.take(len(s)+1, intChunk, m.a.line)
		out[copy(out, s)] = m.np
		return out
	}
	i, ok := slices.BinarySearch(s, m.np)
	if !ok {
		return s
	}
	out := m.a.ints.take(len(s)-1, intChunk, m.a.line)
	copy(out[copy(out, s[:i]):], s[i+1:])
	return out
}

// sameState reports whether edges a and b lead to the same state: the same
// node or match set or, when deep, equal ones, compared down to the first
// shared pointer.
func sameState(a, b Edge, deep bool) bool {
	switch {
	case a.Child == b.Child && a.leaf == b.leaf:
		return true
	case !deep || a.Child == nil && a.leaf == nil || b.Child == nil && b.leaf == nil:
		return false
	case a.Child == nil:
		return slices.Equal(*a.leaf, *b.leaf)
	}
	x, y := a.Child, b.Child
	if x.nSubrange != y.nSubrange || len(x.edges) != len(y.edges) || !slices.Equal(x.extra, y.extra) {
		return false
	}
	for i := range x.edges {
		if x.edges[i].Iv != y.edges[i].Iv || !sameState(x.edges[i], y.edges[i], true) {
			return false
		}
	}
	return true
}

// tiles reports whether edges, in natural order, cover dom without a hole.
func tiles(edges []Edge, dom schema.Interval, discrete bool) bool {
	if len(edges) == 0 || edges[0].Iv.Lo != dom.Lo || edges[0].Iv.LoOpen {
		return false
	}
	for i := 1; i < len(edges); i++ {
		if !piecesTouch(edges[i-1].Iv, edges[i].Iv, discrete) {
			return false
		}
	}
	last := edges[len(edges)-1].Iv
	return last.Hi == dom.Hi && !last.HiOpen
}

// edgeAt returns n's edge i, or nil for −1 (a D₀ gap) and past the last.
func edgeAt(n *Node, i int) *Edge {
	if i < 0 || i >= len(n.edges) {
		return nil
	}
	return &n.edges[i]
}

// ivBefore reports whether a lies entirely below b on the natural axis.
func ivBefore(a, b schema.Interval) bool {
	return a.Hi < b.Lo || (a.Hi == b.Lo && (a.HiOpen || b.LoOpen))
}

// endsBelow reports whether a ends below b's end on the natural axis.
func endsBelow(a, b schema.Interval) bool {
	return a.Hi < b.Hi || (a.Hi == b.Hi && a.HiOpen && !b.HiOpen)
}

// piecesTouch reports whether b directly continues a with no domain value
// between them (the merge rule of the decomposition sweep).
func piecesTouch(a, b schema.Interval, discrete bool) bool {
	if discrete {
		return b.Lo == a.Hi+1 || b.Lo == a.Hi
	}
	return a.Hi == b.Lo && (!a.HiOpen || !b.LoOpen)
}
