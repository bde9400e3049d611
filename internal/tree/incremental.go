// Incremental maintenance of the profile tree: insert one profile by merging
// its one-profile automaton into the automaton states the profile can reach
// (the "corridor"), remove one by running the same merge backwards, and
// re-apply a value order by copying the levels it re-lays so concurrent readers
// of the original tree never observe a half-laid node.
//
// All three operations are persistent: the receiver tree is never mutated.
// The successor of a tree that heads its line shares every node the change
// does not touch; a second successor of one tree is a copy in a line of its
// own, so that a line has one writer. That is what lets the engine publish
// trees through an atomic snapshot pointer and keep the match path lock-free
// — a reader traversing the old tree races nothing.
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
// pieces across it are walked. A copy keeps old's layout where its subrange
// edges are old's, and is otherwise laid out afresh: a wide one (interpMin)
// gets its directory over the edges it copied, a narrow one a probe tree
// under the tree's weights — fewer than interpMin keys — so an edited
// automaton probes as cheaply as the one Build lays out.
// Successors are generally not the canonical tree Build would produce
// (distinct nodes may hold equal states), but their match sets are identical,
// which the oracle equivalence tests pin, and their graph stays within a
// small factor of a Build's, so nothing rebuilds them. What a line of edits
// and partial reorders accumulates, the copies its chunks hold and the
// removed dense indices, goes when the line is Worn and its head Copied.

package tree

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// WithProfile returns a successor tree containing p in addition to the
// receiver's profiles, plus p's dense index in the successor. The receiver
// is unchanged and keeps working; untouched subtrees are shared between the
// two. The successor is the merge of the receiver with p's one-profile
// automaton, memoized by the receiver's nodes. It records vo and lays out
// under it the nodes p alone continues and those p's intervals re-cut; the
// nodes p rides through keep their layouts.
func (t *Tree) WithProfile(p *predicate.Profile, vo ValueOrder) (*Tree, int) {
	np := len(t.profiles)
	return t.edit(p, np, vo, false), np
}

// WithoutProfile returns a successor tree without dense index pi: the merge
// of WithProfile run backwards, which takes pi out of every parked and leaf
// set along its paths and rejoins the pieces it leaves with equal states. A
// narrow node whose subrange edges changed is laid out afresh under the
// weights the receiver records; every other node keeps its layout.
// Removing an index no set holds changes no match set.
// The index stays taken: Profiles still lists pi's profile, which no set
// lists any more.
func (t *Tree) WithoutProfile(pi int) *Tree {
	return t.edit(t.profiles[pi], pi, t.vo, true)
}

// edit derives the successor that adds p at index pi, or with drop set takes
// it out, laying out what it re-cuts under vo, in t's line or, where t heads
// none, in a copy of t (extend).
//
//genas:builder
func (t *Tree) edit(p *predicate.Profile, pi int, vo ValueOrder, drop bool) *Tree {
	r := *t
	nt := &r
	nt.vo = vo
	t.extend(nt)
	// The head owns the arrays past every predecessor's length.
	if drop {
		nt.gone = append(nt.gone, pi)
	} else {
		nt.profiles = append(nt.profiles, p)
	}

	m := mergerPool.Get().(*merger)
	defer mergerPool.Put(m)
	m.start(nt, int32(pi), vo, drop)
	// An unsatisfiable profile can never match: the automaton is unchanged
	// and the whole node graph is shared. Its index still exists (it appears
	// in no set).
	if chain, ok := m.chain(p, vo); ok {
		if nt.root = m.merge(0, nt.root, chain); nt.root == none {
			// The last profile left: the root without edges.
			var r *Node
			nt.root, r = nt.newNode()
			*r = Node{attr: int16(t.attrOrder[0])}
		}
	}
	m.end()
	return nt
}

// lineage is what a line of successor trees hands down: the tails their
// edits carve at, the tails of the profile and gone arrays past the newest
// tree's lengths, held, the bytes of the chunks its successors placed, and
// base, the bytes of the tree the line started from. Only the line's head,
// its newest tree, carves or appends to the arrays; its successor takes the
// line over, and a successor of any other tree is a copy (extend).
type lineage struct {
	head  atomic.Pointer[Tree]
	tails tails
	held  int
	base  int
}

// lineFactor bounds a line's chunks at that many times the bytes the line
// started from: a churn-mixed-shaped tree then copies itself once in some
// 1 100 edits, each copy taking about half a Build's time.
const lineFactor = 16

// Worn reports, in O(1), whether t heads a line due for a copy: its chunks
// hold lineFactor times the bytes it started from, or more than half of t's
// dense indices are gone.
func (t *Tree) Worn() bool {
	return t.line.held > lineFactor*t.line.base || 2*len(t.gone) > len(t.profiles)
}

// extend makes nt, a successor of t, the head of t's line when t heads it:
// nt then shares t's records and carves past them. Otherwise t has a
// successor already, which writes the line, and nt becomes a copy of t in a
// line of its own, so a line has one writer.
func (t *Tree) extend(nt *Tree) {
	if !t.line.head.CompareAndSwap(t, nt) {
		(&copier{t: t, nt: nt}).fresh()
	}
}

// Copied returns t copied into a fresh line, and old, t's dense index of
// each of the copy's: every node t reaches with its layout as laid out,
// the live indices renumbered in order — a copying collection of t's slabs
// into one exact chunk per slab. The copy shares no storage with t, and
// probes in t's comparisons.
func (t *Tree) Copied() (nt *Tree, old []int) {
	renum, live := t.renumbered()
	nt = &Tree{schema: t.schema, attrOrder: t.attrOrder, vo: t.vo, profiles: make([]*predicate.Profile, 0, live)}
	old = make([]int, 0, live)
	for pi, p := range t.profiles {
		if renum[pi] >= 0 {
			old, nt.profiles = append(old, pi), append(nt.profiles, p)
		}
	}
	c := copier{t: t, nt: nt, renum: renum}
	c.fresh()
	return nt, old
}

// renumbered returns each of t's dense indices' place among the live ones,
// −1 for one WithoutProfile took out, and how many are live: an index
// removed twice is gone once.
func (t *Tree) renumbered() (renum []int32, live int) {
	renum = make([]int32, len(t.profiles))
	for _, pi := range t.gone {
		renum[pi] = -1
	}
	for pi := range renum {
		if renum[pi] == 0 {
			renum[pi] = int32(live)
			live++
		}
	}
	return renum, live
}

// Reordered returns a successor tree with vo applied to the narrow nodes
// that test one of attrs (none given: every narrow node). A wide node's
// directory reads no weights, so a reorder that finds no such narrow node
// returns the receiver itself and copies nothing. Otherwise it does not
// mutate the receiver, and it costs what is reordered: the levels down to
// the deepest one holding such a node are copied, those nodes with a fresh
// layout, and everything below is shared, so readers of the old tree keep
// consistent probe trees. A reorder above the last level of a tree that
// heads its line carves its copies into that line, as an edit does. One that
// reaches the last level, or of a tree that heads no line, copies every node
// and leaf set into a fresh line, as Copied does without renumbering, so
// that the tree it replaces goes once dropped. It reports the nodes re-laid
// and the nodes copied only to re-point their children.
func (t *Tree) Reordered(vo ValueOrder, attrs ...int) (nt *Tree, resorted, copied int) {
	sel, to := make([]bool, len(t.attrOrder)), 0
	for _, a := range attrs {
		sel[a] = true
	}
	for level, a := range t.attrOrder {
		if len(attrs) == 0 {
			sel[a] = true
		}
		if sel[a] {
			to = level
		}
	}
	c := copier{t: t, sel: sel, memo: make([]int32, t.Slots())}
	if c.deepest = c.deepestNarrow(0, t.root, to); c.deepest < 0 {
		return t, 0, 0
	}
	r := *t
	r.vo = vo
	c.nt = &r
	if c.deepest < len(t.attrOrder)-1 && t.line.head.CompareAndSwap(t, &r) {
		r.root = c.clone(0, t.root)
	} else {
		c.fresh()
	}
	r.layOut(vo, c.relay)
	return &r, len(c.relay), c.copied
}

// copier is one copying walk of a tree's levels down to deepest into the
// copy's line, each state once: past the last level, the leaf sets too.
// Reordered's re-lays the narrow nodes testing a selected attribute and
// counts the rest; Copied's and extend's keep every layout, and Copied's
// renumbers every set through renum.
type copier struct {
	t, nt   *Tree
	deepest int
	// memo[id] is the copy of node id plus one, −1 once a walk before the
	// copy visited it, 0 before; sets[id] is the copy of leaf-set entry id
	// alike.
	memo, sets []int32
	sel        []bool
	relay      []nodeAt
	copied     int
	renum      []int32
}

// relays reports whether a reorder re-lays node n: a narrow node testing a
// selected attribute.
func (c *copier) relays(n *Node) bool {
	return c.sel != nil && c.sel[n.attr] && n.nSub < interpMin
}

// deepestNarrow returns the deepest level, from l down to to, that holds a
// node the reorder re-lays, reached from node id of level l, or −1: a walk
// that marks what it visits in the memo and stops once it finds one at to.
func (c *copier) deepestNarrow(l int, id int32, to int) int {
	if c.memo[id] != 0 {
		return -1
	}
	c.memo[id] = -1
	n, d := c.t.st.nodes.at(id), -1
	if c.relays(n) {
		d = l
	}
	for i, edges := 0, n.edgeRun(&c.t.st); l < to && d < to && i < len(edges); i++ {
		d = max(d, c.deepestNarrow(l+1, edges[i].To, to))
	}
	return d
}

// fresh copies every node and leaf set of t into a fresh line of nt: one
// exact chunk per slab, sized by a first walk (Tree.walk) that marks the
// memos, then sealed. nt gets its profile arrays clipped, so that its
// appends copy them.
func (c *copier) fresh() {
	nt := c.nt
	c.deepest = len(c.t.attrOrder)
	nt.profiles, nt.gone = slices.Clip(nt.profiles), slices.Clip(nt.gone)
	nt.line = &lineage{}
	nt.line.head.Store(nt)
	nt.st = store{}
	c.memo, c.sets = make([]int32, c.t.Slots()), make([]int32, c.t.st.sets.slots())
	n := c.t.walk(c.memo, c.sets, nil)
	l, lt := nt.line, &nt.line.tails
	place(l, &nt.st.nodes, &lt.nodes, make([]Node, n.nodes))
	place(l, &nt.st.edges, &lt.edges, make([]Edge, n.edges))
	place(l, &nt.st.ints, &lt.ints, make([]int32, n.ints))
	place(l, &nt.st.sets, &lt.sets, make([]span, n.sets))
	if c.sel != nil {
		c.relay = make([]nodeAt, 0, n.nodes)
	}
	nt.root = c.clone(0, c.t.root)
	nt.seal()
}

// clone returns the copy of node id of level l, making it on first sight:
// its id is its place in a depth-first walk.
//
//genas:builder
func (c *copier) clone(l int, id int32) int32 {
	if l > c.deepest {
		return id
	}
	if v := c.memo[id]; v > 0 {
		return v - 1
	}
	nt, o, rec := c.nt, c.t.Node(l, id), *c.t.st.nodes.at(id)
	nid, out := nt.newNode()
	c.memo[id] = nid + 1
	rec.edges = nt.newEdges(o.edges)
	for i := 0; l < c.deepest && i < len(o.edges); i++ {
		// The copy's edge, by index: the walk below carves further records.
		e := nt.st.edges.at(rec.edges + int32(i))
		if l+1 < len(c.t.attrOrder) {
			e.To = c.clone(l+1, e.To)
		} else {
			e.To = c.leaf(e.To)
		}
	}
	var ints []int32
	rec.parked, ints = nt.newInts(len(o.extra))
	c.renumber(ints, o.extra)
	rec.layout, ints = nt.newInts(len(o.layout))
	if c.relays(&rec) {
		c.relay = append(c.relay, nodeAt{l, nid})
	} else {
		copy(ints, o.layout)
		c.copied++
	}
	*out = rec
	return nid
}

// leaf returns the copy of leaf-set entry id, renumbered.
func (c *copier) leaf(id int32) int32 {
	if v := c.sets[id]; v > 0 {
		return v - 1
	}
	set := c.t.Leaf(id)
	i, run := c.nt.newLeaf(len(set))
	c.renumber(run, set)
	c.sets[id] = i + 1
	return i
}

// renumber copies set s into dst renumbered (and sorted: the renumbering
// keeps the live indices' order), or as it is without a renumbering.
func (c *copier) renumber(dst, s []int32) {
	if c.renum == nil {
		copy(dst, s)
		return
	}
	for i, pi := range s {
		dst[i] = c.renum[pi]
	}
}

// mergerPool recycles the memo and scratch buffers across edits: steady
// churn then allocates almost nothing beyond the successor's Tree.
var mergerPool = sync.Pool{New: func() any { return &merger{} }}

// merger carries one edit: the successor tree under construction, whose line
// it carves its records from, the profile's dense index, whether the edit
// drops it, the weights it lays out under, and the memo that keeps shared
// states shared.
type merger struct {
	t    *Tree
	np   int32
	drop bool
	vo   ValueOrder
	// memo[id] is the merge of node id with the chain node of its level plus
	// two, none+2 where a drop leaves the state empty, 0 before it is made
	// (alive' = alive ∪ {np}, or alive ∖ {np}, is a function of the old state
	// alone, so old-node identity is a sound key). touched lists the entries
	// one edit set.
	memo    []int32
	touched []int32
	// ivs is the scratch of the chain's intervals on one attribute, set that
	// of one edited parked or leaf set.
	ivs []schema.Interval
	set []int32
	// edges[level] is the scratch edge list of the node under construction
	// at that level, committed to the line once complete. Recursion makes
	// one shared buffer unsafe (a nested merge at a deeper level would
	// clobber the caller's), but at most one node is under construction per
	// level, so indexing by level is.
	edges [][]Edge
	// sc is the scratch of the layouts: the chain's and the re-laid nodes'.
	sc orderScratch
}

// start readies the merger for the edit into nt, whose nodes before the
// edit lie below its slots.
func (m *merger) start(nt *Tree, np int32, vo ValueOrder, drop bool) {
	m.t, m.np, m.vo, m.drop = nt, np, vo, drop
	if n := len(nt.attrOrder); len(m.edges) < n {
		m.edges = make([][]Edge, n)
	}
	if s := nt.Slots(); len(m.memo) < s {
		m.memo = make([]int32, 2*s) // headroom for the line's growth
	}
}

// end lets go of the successor and clears the memo entries the edit set;
// the scratch buffers keep their capacity for the next edit.
func (m *merger) end() {
	for _, id := range m.touched {
		m.memo[id] = 0
	}
	m.t, m.vo, m.touched = nil, ValueOrder{}, m.touched[:0]
}

// chain builds the new profile's one-profile automaton in the successor's
// line and returns its root, or false when the profile is unsatisfiable on
// some attribute. Below the deepest level the profile constrains, the chain
// ends in the node that parks it, as Build would: every event reaching that
// node matches it. Above, each level has one node, laid out under vo, whose
// edges are the profile's intervals on the level's attribute — snapped to the
// canonical piece form, touching ones joined, so that a merged partition stays
// as coarse as a fresh decomposition's — or the star edge where the profile
// leaves the attribute free. Every edge leads to the next level's node, or at
// the leaf level to the match set {np}.
//
//genas:builder
func (m *merger) chain(p *predicate.Profile, vo ValueOrder) (int32, bool) {
	t, last := m.t, -1
	for level, attr := range t.attrOrder {
		if p.Constrains(attr) {
			last = level
		}
	}
	var next int32
	if l := last + 1; l < len(t.attrOrder) {
		off, one := t.newInts(1)
		one[0] = m.np
		var n *Node
		next, n = t.newNode()
		*n = Node{attr: int16(t.attrOrder[l]), parked: off, nParked: 1}
	} else {
		var one []int32
		next, one = t.newLeaf(1)
		one[0] = m.np
	}
	for level := last; level >= 0; level-- {
		attr := t.attrOrder[level]
		dom := t.schema.At(attr).Domain
		buf, nSub := m.edges[level][:0], 0
		if !p.Constrains(attr) {
			buf = append(buf, edgeOver(dom.Interval(), next))
		} else {
			discrete := dom.Kind() != schema.KindNumeric
			m.ivs = p.Pred(attr).AppendIntervals(m.ivs[:0], dom)
			for _, iv := range m.ivs {
				iv, ok := subrange.Snap(iv, discrete)
				switch k := len(buf); {
				case !ok:
				case k > 0 && piecesTouch(buf[k-1].Iv(), iv, discrete):
					buf[k-1].setHi(iv)
				default:
					buf = append(buf, edgeOver(iv, next))
				}
			}
			if len(buf) == 0 {
				return 0, false
			}
			nSub = len(buf)
		}
		m.edges[level] = buf
		rec := Node{attr: int16(attr), nSub: int32(nSub), trail: nSub < len(buf), edges: t.newEdges(buf)}
		var layout []int32
		rec.layout, layout = t.newInts(layoutLen(int32(nSub)))
		v := View{Attr: rec.attr, edges: buf, layout: layout, nSubrange: rec.nSub}
		v.applyOrder(dom, vo, &m.sc)
		var n *Node
		next, n = t.newNode()
		*n = rec
	}
	return next, true
}

// merge returns the merge of node old of level l, a node of the receiver
// tree, with b, the chain's node of its level: in drop mode old itself where
// it does not hold the profile, none where the profile was all it held. A
// merged node keeps old's layout where its subrange edges are old's, and is
// otherwise laid out afresh (relay).
//
//genas:builder
func (m *merger) merge(l int, old, b int32) int32 {
	if v := m.memo[old]; v != 0 {
		return v - 2
	}
	t := m.t
	o, c := t.Node(l, old), t.Node(l, b)
	rec, buf, parked := *t.st.nodes.at(old), o.edges, false
	if len(c.extra) > 0 {
		// b parks the profile: every remaining level is don't-care for it,
		// so it matches every event that reaches this node. It is parked in
		// (or taken from) the parked set and the whole subtree is shared —
		// the dominant cost of editing a profile that constrains only early
		// attributes collapses to one node copy.
		var set []int32
		if set, parked = m.edited(o.extra); parked {
			var run []int32
			rec.parked, run = t.newInts(len(set))
			rec.nParked = int32(copy(run, set))
		}
	} else {
		buf, rec.nSub = m.overlay(l, &o, &c)
		rec.trail = int(rec.nSub) < len(buf)
	}
	out := old
	switch {
	case m.drop && rec.nParked == 0 && len(buf) == 0:
		out = none
	case m.drop && !parked && rec.nSub == o.nSubrange && slices.Equal(buf, o.edges):
	default:
		if len(c.extra) == 0 {
			rec.edges = t.newEdges(buf)
			rec.layout = m.relay(&o, &View{Attr: o.Attr, edges: buf, nSubrange: rec.nSub}, rec.layout)
		}
		var n *Node
		out, n = t.newNode()
		*n = rec
	}
	m.memo[old] = out + 2
	m.touched = append(m.touched, old)
	return out
}

// overlay lays out, in the level's scratch, the edges of the merge of old and
// b as the overlay of their partitions, walked in natural order piece
// against piece, and returns them and how many lead the subrange edges. A
// piece that is a subrange edge on either side becomes a subrange edge of the
// merge; pieces that are gaps on both sides go to its one trailing edge, the
// merge of the two sides' gap owners — a node's gaps have one owner, so these
// pieces always agree — and stay D₀ where neither side owns its gaps. old's
// parked profiles ride along unchanged: they still match every event
// reaching the merge.
//
// Where b has subrange edges only, its region is the span from its first edge
// to its last, and b is a gap on either side of it: old's edges entirely
// below the region are the merge's as they are, copied in one append, and so
// are those entirely above it once the walk has passed it. Where b is a star
// node every piece is walked.
//
// In drop mode the pieces rejoin as they come: one whose state emptied, or
// that now leads where the trailing edge leads, becomes a gap, and one that
// continues the last edge into an equal state extends it. States compare by
// index, and structurally where the drop made either side afresh. Old edges
// never rejoin one another by index, but a fresh edge may rejoin the old ones
// after it, so past the region the walk goes on while the last edge is fresh.
//
//genas:builder
func (m *merger) overlay(l int, old, b *View) ([]Edge, int32) {
	dom := m.t.schema.At(int(old.Attr)).Domain
	discrete := dom.Kind() != schema.KindNumeric
	buf := m.edges[l][:0]
	ga, gb := edgeAt(old, int(old.nSubrange)), edgeAt(b, int(b.nSubrange))
	tr := Edge{To: none} // drop mode: the trailing edge, made first to fold pieces into
	trFresh, lastFresh := false, false
	if m.drop && ga != nil {
		tr = m.edge(l, dom.Interval(), ga, gb)
		trFresh = tr != *ga
	}
	olds := old.edges[:old.nSubrange]
	pa, pb := old.pieces(dom), b.pieces(dom)
	above := len(olds) // the first old edge entirely above b's region
	if b.nSubrange > 0 {
		lo, hi := b.edges[0].Iv(), b.edges[b.nSubrange-1].Iv()
		below := sort.Search(len(olds), func(i int) bool { return !ivBefore(olds[i].Iv(), lo) })
		above = below + sort.Search(len(olds)-below, func(i int) bool { return ivBefore(hi, olds[below+i].Iv()) })
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
			e := m.edge(l, pa.Iv.Intersect(pb.Iv), ea, edgeAt(b, pb.Edge))
			fresh, k := ea != nil && e.To != ea.To, len(buf)
			switch {
			case !m.drop:
				buf = append(buf, e)
			case e.To == none || m.sameState(l, e, tr, fresh || trFresh):
			case k > 0 && piecesTouch(buf[k-1].Iv(), e.Iv(), discrete) && m.sameState(l, buf[k-1], e, fresh || lastFresh):
				buf[k-1].setHi(e.Iv())
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
	nSub := int32(len(buf))
	switch {
	case m.drop && tr.To != none && !tiles(buf, dom.Interval(), discrete):
		buf = append(buf, tr)
	case !m.drop && (ga != nil || gb != nil) && !tiles(buf, dom.Interval(), discrete):
		buf = append(buf, m.edge(l, dom.Interval(), ga, gb))
	}
	m.edges[l] = buf
	return buf, nSub
}

// relay returns the layout of n, old's merge: old's own, which starts at
// layout, where their subrange edges are the same, and otherwise one laid
// out afresh — on a narrow node a probe tree under the edit's weights, which
// weighs n's pieces (fewer than 2·interpMin), on a wide one its directory,
// over the edges the merge copied.
//
//genas:builder
func (m *merger) relay(old, n *View, layout int32) int32 {
	ne := n.edges[:n.nSubrange]
	if slices.EqualFunc(old.edges[:old.nSubrange], ne, func(a, b Edge) bool { return sameIv(&a, &b) }) {
		return layout
	}
	var off int32
	off, n.layout = m.t.newInts(layoutLen(n.nSubrange))
	n.applyOrder(m.t.schema.At(int(n.Attr)).Domain, m.vo, &m.sc)
	return off
}

// edge returns the merged edge over iv of old's edge ea and the chain's edge
// eb at level l, either nil where its side has nothing there. Where both have
// one, it carries at the leaf level the edited match set, and above it the
// merge of their targets; otherwise an insert shares one side's target as it
// is, and a drop keeps old's or, where old has nothing, nothing.
//
//genas:builder
func (m *merger) edge(l int, iv Interval, ea, eb *Edge) Edge {
	switch {
	case ea == nil && m.drop:
		return edgeOver(iv, none)
	case ea == nil:
		return edgeOver(iv, eb.To)
	case eb == nil:
		return edgeOver(iv, ea.To)
	case l+1 == len(m.t.attrOrder):
		switch s, changed := m.edited(m.t.Leaf(ea.To)); {
		case !changed:
			return edgeOver(iv, ea.To)
		case len(s) == 0:
			return edgeOver(iv, none)
		default:
			to, run := m.t.newLeaf(len(s))
			copy(run, s)
			return edgeOver(iv, to)
		}
	}
	return edgeOver(iv, m.merge(l+1, ea.To, eb.To))
}

// edited returns the sorted dense-index set s, in the merger's scratch, with
// the profile added — its index is the successor's largest, so the union is
// a copy plus one trailing element — or in drop mode taken out, and whether
// it changed: s itself where a drop finds no profile to take.
func (m *merger) edited(s []int32) ([]int32, bool) {
	if !m.drop {
		m.set = append(append(m.set[:0], s...), m.np)
		return m.set, true
	}
	i, ok := slices.BinarySearch(s, m.np)
	if !ok {
		return s, false
	}
	m.set = append(append(m.set[:0], s[:i]...), s[i+1:]...)
	return m.set, true
}

// sameState reports whether edges a and b of level l lead to the same state:
// the same node or match set or, when deep, equal ones, compared down to the
// first shared index.
func (m *merger) sameState(l int, a, b Edge, deep bool) bool {
	switch {
	case a.To == b.To:
		return true
	case !deep || a.To == none || b.To == none:
		return false
	}
	t := m.t
	if l+1 == len(t.attrOrder) {
		return slices.Equal(t.Leaf(a.To), t.Leaf(b.To))
	}
	x, y := t.Node(l+1, a.To), t.Node(l+1, b.To)
	if x.nSubrange != y.nSubrange || len(x.edges) != len(y.edges) || !slices.Equal(x.extra, y.extra) {
		return false
	}
	for i := range x.edges {
		if !sameIv(&x.edges[i], &y.edges[i]) || !m.sameState(l+1, x.edges[i], y.edges[i], true) {
			return false
		}
	}
	return true
}

// sameIv reports whether two edges have the same interval.
func sameIv(a, b *Edge) bool { return a.Lo == b.Lo && a.Hi == b.Hi && a.open == b.open }

// tiles reports whether edges, in natural order, cover dom without a hole.
func tiles(edges []Edge, dom schema.Interval, discrete bool) bool {
	if len(edges) == 0 || edges[0].Lo != dom.Lo || edges[0].open&openLo != 0 {
		return false
	}
	for i := 1; i < len(edges); i++ {
		if !piecesTouch(edges[i-1].Iv(), edges[i].Iv(), discrete) {
			return false
		}
	}
	last := &edges[len(edges)-1]
	return last.Hi == dom.Hi && last.open&openHi == 0
}

// edgeAt returns n's edge i, or nil for −1 (a D₀ gap) and past the last.
func edgeAt(n *View, i int) *Edge {
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
