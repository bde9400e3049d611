// Package tree implements the profile tree: the deterministic finite state
// automaton built from a profile set that the paper's filtering is based on
// (§3, following Gough & Smith [8] and Aguilera et al. [1]).
//
// The tree has height n (one level per attribute). Each level corresponds to
// one attribute after attribute reordering; edges at a node carry the
// disjoint subranges referenced by the profiles still alive on that path.
// A profile that constrains no level from a node down — a rider — matches
// every event reaching that node, so the node parks it (View.Extra) and no
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
//
// The automaton holds no pointers (slab.go): a tree keeps its 24-byte node
// records, its 24-byte edge records, the int32 runs of its layouts (probe
// trees and directories), parked sets and match sets, and the match-set table in four slabs, each
// one index space across the levels, and a node is its index in the node
// slab. An edge leads to the next level's node by index or, at the leaf
// level, to an entry of the match-set table.
package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

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

// Edge is one labeled transition of the automaton: a 24-byte record in the
// tree's edge slab. Its kind is its place in the node (View.Kind): the
// subrange edges come first, in natural order, and a complement or star edge
// trails them.
//
// Frozen: once the tree is published through the engine's epoch pointer,
// match goroutines read edges lock-free; every mutation must happen in a
// //genas:builder construction site before publication (snapfreeze
// enforces this).
//
//genas:frozen
type Edge struct {
	// Lo and Hi bound the edge's interval (Iv): a subrange edge's subrange,
	// or on the trailing edge the whole domain, of which that edge holds what
	// the subranges leave.
	Lo, Hi float64
	// To is what the edge leads to: at an interior level the next level's
	// node, at the leaf level the entry of the leaf-set table (Tree.Leaf)
	// holding the dense indices of the profiles an event arriving here
	// matches, stored once per distinct set. An interior edge carries no set
	// — the profiles alive below it are the union of the parked and leaf sets
	// it leads to.
	To   int32
	open uint8 // openLo | openHi
}

// The open bits of an edge's interval.
const (
	openLo = 1 << iota
	openHi
)

// none is the target of an edge that leads nowhere: only a removal's scratch
// holds one, for a piece whose state it emptied.
const none = -1

// edgeOver returns the edge over iv leading to to.
//
//genas:builder
func edgeOver(iv Interval, to int32) Edge {
	e := Edge{Lo: iv.Lo, Hi: iv.Hi, To: to}
	if iv.LoOpen {
		e.open |= openLo
	}
	if iv.HiOpen {
		e.open |= openHi
	}
	return e
}

// Iv returns the edge's interval.
func (e *Edge) Iv() Interval {
	return Interval{Lo: e.Lo, Hi: e.Hi, LoOpen: e.open&openLo != 0, HiOpen: e.open&openHi != 0}
}

// setHi moves the edge's upper bound to iv's.
//
//genas:builder
func (e *Edge) setHi(iv Interval) {
	e.Hi, e.open = iv.Hi, e.open&^openHi
	if iv.HiOpen {
		e.open |= openHi
	}
}

// after reports whether the edge lies entirely above v, before entirely below.
func (e *Edge) after(v float64) bool  { return e.Lo > v || e.Lo == v && e.open&openLo != 0 }
func (e *Edge) before(v float64) bool { return e.Hi < v || e.Hi == v && e.open&openHi != 0 }

// Node is one automaton state: a 24-byte record in the tree's node slab,
// locating its runs in the other slabs. Its edges are the only stored
// form of its partition of the domain: the pieces between them are derived
// (Pieces).
//
// Frozen: published snapshots are read lock-free under the epoch/RCU
// scheme; the incremental transforms copy instead of mutating. Writes are
// restricted to //genas:builder functions.
//
//genas:frozen
type Node struct {
	// edges is the node's first edge in the edge slab, nSub of them
	// subrange edges in natural ascending order, a complement or star edge
	// following them where trail is set.
	edges int32
	// layout is the first word of the node's layout in the int slab,
	// layoutLen(nSub) words: the probe tree over the subrange edges in
	// preorder (weighted.go), or on a wide node (interpMin) its directory
	// (search.go).
	layout int32
	// parked is the first of the nParked profiles parked here in the int
	// slab, matched by every event reaching this node: those that
	// constrain no level from this one down. Build and the incremental insert
	// alike park a profile in the first node it reaches below its last
	// constrained level, instead of carrying it into every leaf of the
	// subtree.
	parked, nParked int32
	nSub            int32
	// attr is the schema attribute tested.
	attr  int16
	trail bool
}

// View is one node read out of its tree's slabs: where it is, what it tests,
// and its runs, which are the tree's storage (callers must not mutate them).
type View struct {
	// Level is the 0-based tree level, ID the node's index in the node slab;
	// Attr the schema attribute tested.
	Level, Attr int16
	ID          int32
	edges       []Edge
	layout      []int32
	extra       []int32
	nSubrange   int32
}

// Edges exposes the node's edges.
func (n View) Edges() []Edge { return n.edges }

// Extra exposes the profiles parked at the node: every event reaching it
// matches them.
func (n View) Extra() []int32 { return n.extra }

// Kind returns the flavor of edge i.
func (n View) Kind(i int) EdgeKind {
	switch {
	case i < int(n.nSubrange):
		return EdgeSubrange
	case n.nSubrange == 0:
		return EdgeStar
	}
	return EdgeComplement
}

// nodeAt names a node by level and id.
type nodeAt struct {
	l  int
	id int32
}

// Node returns node id, which level l holds, read out of the tree's slabs.
func (t *Tree) Node(l int, id int32) View {
	s := &t.st
	r := s.nodes.at(id)
	return View{
		Level: int16(l), Attr: r.attr, ID: id, nSubrange: r.nSub,
		edges:  r.edgeRun(s),
		layout: s.ints.run(r.layout, layoutLen(r.nSub)),
		extra:  s.ints.run(r.parked, int(r.nParked)),
	}
}

// Leaf returns the match set of a leaf-level edge's table entry.
func (t *Tree) Leaf(id int32) []int32 {
	sp := t.st.sets.at(id)
	return t.st.ints.run(sp.off, int(sp.n))
}

// Slots bounds the node ids: a table indexed by node id needs this many
// entries.
func (t *Tree) Slots() int { return t.st.nodes.slots() }

// size is what a walk of a tree found: its nodes, edges, int32s (probe
// trees, parked and leaf sets) and leaf-set entries, each once, and the
// repeated references to a node already visited (memoization hits).
type size struct{ nodes, edges, ints, sets, shared int }

// walk visits depth first, first edge first, every node t reaches and every
// leaf set, each once, marking what it visits −1 in seen, indexed by node id,
// and in sets, by leaf-set entry: 0 is unvisited. It returns what it found
// and, where levels is not nil, appends each level's ids to levels[level] in
// first-reach order.
func (t *Tree) walk(seen, sets []int32, levels [][]int32) (n size) {
	n.visit(t, 0, t.root, seen, sets, levels)
	return n
}

// visit is walk from node id of level l on, adding to n.
func (n *size) visit(t *Tree, l int, id int32, seen, sets []int32, levels [][]int32) {
	if seen[id] != 0 {
		n.shared++
		return
	}
	seen[id] = -1
	if levels != nil {
		levels[l] = append(levels[l], id)
	}
	o := t.Node(l, id)
	n.nodes, n.edges, n.ints = n.nodes+1, n.edges+len(o.edges), n.ints+len(o.layout)+len(o.extra)
	for i := range o.edges {
		switch to := o.edges[i].To; {
		case l+1 < len(t.attrOrder):
			n.visit(t, l+1, to, seen, sets, levels)
		case sets[to] == 0:
			sets[to] = -1
			n.ints, n.sets = n.ints+len(t.Leaf(to)), n.sets+1
		}
	}
}

// Tree is the profile tree.
type Tree struct {
	schema    *schema.Schema
	profiles  []*predicate.Profile
	attrOrder []int // attrOrder[level] = schema attribute index
	root      int32
	// st holds the records of every level.
	st store
	// vo is the weights the probe trees were laid out for: Build's and
	// Reordered's, handed down by edits, which lay out what they re-cut
	// under it.
	vo ValueOrder

	// gone lists the dense indices WithoutProfile took out since the profile
	// array started, in a Build or a Copied: the array's indices no set
	// holds any more. Like profiles, it is shared along a line, whose head
	// owns the tail.
	gone []int

	// line is the line of edits this tree belongs to: a Build or a Copied
	// starts one.
	line *lineage
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

	// The tree heads a line of its own, whose head appends to the profile
	// array: the caller's array is never written.
	t := &Tree{
		schema:    s,
		profiles:  slices.Clip(profiles),
		attrOrder: cfg.attrOrder,
		vo:        cfg.vo,
		line:      &lineage{},
	}
	t.line.head.Store(t)

	// Every interval endpoint is ranked once per attribute, the attributes at
	// once; a constraint table and its intervals live only until then.
	b := builder{t: t, ix: make([]*subrange.Index, s.N()), memo: make(map[uint64]state)}
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
	b.build(all)
	t.layOut(cfg.vo, b.laid)
	t.seal()
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
// that keeps equivalent states shared, and every node carved with its level,
// which layOut lays out.
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
	laid  []nodeAt
	// own stores the alive sets of the states: the memo's keys, which no
	// record keeps, so they die with the build.
	own []int
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
// level wrote it down, and what was made of it — the level's node, carved
// when the set is first found, or, at the tree's height, the entry of the
// match set the tree stores once.
type state struct {
	level int
	to    int32
	alive []int
}

// build assembles the automaton level by level from the root, whose alive set
// is all. Workers sweep a batch of the frontier into their own buffers, then
// one commit takes the batch in frontier order: it interns each child set in
// the memo, carves the nodes of the new states — the next frontier, in the
// order a depth-first build would reach them — and writes the committed
// node's record. So sharing and the node numbering are those of a build that
// descends one state at a time.
//
//genas:builder
func (b *builder) build(all []int) {
	root := state{alive: all}
	root.to, _ = b.t.newNode()
	b.t.root, b.laid = root.to, []nodeAt{{0, root.to}}
	front, next := []state{root}, []state(nil)
	var res []swept
	for level := range b.t.attrOrder {
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
			for i := range batch {
				next = b.commit(level, batch[i].to, res[i], next)
			}
			from = to
		}
		front, next = next, front[:0]
	}
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

// commit writes node id of the level, the state its sweep r describes: its
// parked profiles, and an edge per cut leading to what the cut's set leads
// to. A set seen before at the next level leads to its state; a new one is
// memoised — at the tree's height as a match set the tree stores once, above
// it as a node of the next level, carved now and appended to the next
// frontier. The node's layout gets its storage, which layOut fills.
//
//genas:builder
func (b *builder) commit(level int, id int32, r swept, next []state) []state {
	sw, t := &b.sw[r.w], b.t
	n := Node{attr: int16(t.attrOrder[level]), nSub: int32(r.nSubrange), trail: r.to-r.from > r.nSubrange}
	if r.parked > r.park {
		var run []int32
		n.parked, run = t.newInts(r.parked - r.park)
		n.nParked = int32(copyInt32(run, sw.ints[r.park:r.parked]))
	}
	edges := b.edges[:0]
	for _, c := range sw.cuts[r.from:r.to] {
		set, h, child := sw.ints[c.lo:c.hi], c.h, level+1
		st, ok := b.memo[h]
		for ; ok && (st.level != child || !slices.Equal(st.alive, set)); st, ok = b.memo[h] {
			h++ // a key taken by another state passes the probe on
		}
		switch {
		case ok:
		case child == t.schema.N():
			var run []int32
			st = state{level: child, alive: b.keep(set)}
			st.to, run = t.newLeaf(len(set))
			copyInt32(run, set)
			b.memo[h] = st
		default:
			st = state{level: child, alive: b.keep(set)}
			st.to, _ = t.newNode()
			b.memo[h] = st
			b.laid = append(b.laid, nodeAt{child, st.to})
			next = append(next, st)
		}
		edges = append(edges, edgeOver(c.iv, st.to))
	}
	n.edges = t.newEdges(edges)
	n.layout, _ = t.newInts(layoutLen(int32(r.nSubrange)))
	*t.st.nodes.at(id) = n
	b.edges = edges
	return next
}

// keep copies an alive set into the builder's own storage.
func (b *builder) keep(set []int) []int {
	if cap(b.own)-len(b.own) < len(set) {
		b.own = make([]int, 0, max(len(set), 2*cap(b.own), 1024))
	}
	b.own = append(b.own, set...)
	return b.own[len(b.own)-len(set) : len(b.own) : len(b.own)]
}

// copyInt32 copies a set of dense indices into dst as the tree stores them
// and returns their count.
func copyInt32(dst []int32, set []int) int {
	for i, pi := range set {
		dst[i] = int32(pi)
	}
	return len(set)
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
func (t *Tree) Root() View { return t.Node(0, t.root) }

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

// Levels returns the ids of the reachable nodes per level, each level's in
// the order a depth-first walk, first edge first, reaches them: a fresh list
// per call.
func (t *Tree) Levels() [][]int32 {
	levels := make([][]int32, len(t.attrOrder))
	t.walk(make([]int32, t.Slots()), make([]int32, t.st.sets.slots()), levels)
	return levels
}

// Stats summarizes the automaton size.
type Stats struct {
	Nodes, Edges, SharedHits int
	Height                   int
	// Profiles counts the profiles the tree holds: the dense indices
	// WithoutProfile took out do not count.
	Profiles int
	// Bytes is the storage the automaton retains: node records, edge
	// records, layouts, parked profiles and each distinct leaf set with
	// its table entry. What successor nodes share is counted per node.
	Bytes int
}

// Stats returns automaton size statistics, walking the automaton on every
// call.
func (t *Tree) Stats() Stats {
	n := t.walk(make([]int32, t.Slots()), make([]int32, t.st.sets.slots()), nil)
	_, live := t.renumbered()
	return Stats{
		Nodes:      n.nodes,
		Edges:      n.edges,
		SharedHits: n.shared,
		Height:     t.schema.N(),
		Profiles:   live,
		Bytes:      n.nodes*nodeBytes + n.edges*edgeBytes + 4*n.ints + n.sets*spanBytes,
	}
}

// Dump renders the tree in a Fig. 1-like indented form for debugging and the
// paper-example tests. A node's parked profiles follow its attribute's name.
func (t *Tree) Dump() string {
	var b strings.Builder
	t.dumpNode(&b, t.Root(), 0, make([]bool, t.Slots()))
	return b.String()
}

func (t *Tree) dumpNode(b *strings.Builder, n View, depth int, seen []bool) {
	indent := strings.Repeat("  ", depth)
	name := t.schema.At(int(n.Attr)).Name
	if seen[n.ID] {
		fmt.Fprintf(b, "%s%s <shared>\n", indent, name)
		return
	}
	seen[n.ID] = true
	if len(n.extra) > 0 {
		fmt.Fprintf(b, "%s%s parked %s\n", indent, name, t.idSet(n.extra))
	} else {
		fmt.Fprintf(b, "%s%s\n", indent, name)
	}
	for i := range n.edges {
		e := &n.edges[i]
		label := e.Iv().String()
		switch n.Kind(i) {
		case EdgeComplement:
			label = "(*)"
		case EdgeStar:
			label = "*"
		}
		if int(n.Level)+1 < len(t.attrOrder) {
			fmt.Fprintf(b, "%s  %s ->\n", indent, label)
			t.dumpNode(b, t.Node(int(n.Level)+1, e.To), depth+2, seen)
			continue
		}
		fmt.Fprintf(b, "%s  %s -> %s\n", indent, label, t.idSet(t.Leaf(e.To)))
	}
}

// idSet renders a set of dense indices as their profiles' ids.
func (t *Tree) idSet(ps []int32) string {
	ids := make([]string, len(ps))
	for i, pi := range ps {
		ids[i] = string(t.profiles[pi].ID)
	}
	return "{" + strings.Join(ids, ",") + "}"
}
