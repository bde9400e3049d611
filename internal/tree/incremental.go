// Incremental maintenance of the profile tree: insert one profile by
// transforming only the automaton states the profile can reach (the
// "corridor"), remove one profile by tombstoning its dense index, and
// re-apply a value order by cloning the nodes it re-sorts so concurrent readers
// of the original tree never observe a half-ordered node.
//
// All three operations are persistent: the receiver tree is never mutated,
// the successor shares every node the change does not touch. That is what
// lets the engine publish trees through an atomic snapshot pointer and keep
// the match path lock-free — a reader traversing the old tree races nothing.
//
// Correctness of the insert transform rests on one observation: the new
// profile only refines the domain partition at each node (its intervals add
// cuts, never remove them), so every new piece either lies inside the new
// profile's region — where the profile joins the edge and the child is
// transformed — or outside it, where the old edge and the old child are
// reused verbatim. Shared states stay shared because the transform is
// memoized by old-node identity: alive' = alive ∪ {np} is a function of the
// old state alone. The successor is generally not the canonical tree Build
// would produce (adjacent pieces with equal profile sets are not re-merged);
// the engine coalesces with a full rebuild once accumulated edits pass its
// threshold. Match sets are identical either way, which the oracle
// equivalence tests pin.

package tree

import (
	"math"
	"slices"
	"sync"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// WithProfile returns a successor tree containing p in addition to the
// receiver's profiles, plus p's dense index in the successor. The receiver
// is unchanged and keeps working; untouched subtrees are shared between the
// two. vo is the value order applied to new and re-partitioned nodes (reused
// nodes keep the ordering they had).
//
// Callers must not ApplyValueOrder on either tree afterwards: shared nodes
// would be reordered in place under the other tree's readers. Use Reordered.
func (t *Tree) WithProfile(p *predicate.Profile, vo ValueOrder) (*Tree, int) {
	np := len(t.profiles)
	nt := &Tree{
		schema:    t.schema,
		attrOrder: t.attrOrder,
		strategy:  t.strategy,
	}
	// Extending by append may share the receiver's backing array: the write
	// lands at index np, past every predecessor's length, and predecessors
	// never read beyond their own length. The aliasing is safe as long as
	// successors are derived linearly (always from the newest tree), which
	// the engine's writer mutex guarantees; two siblings derived from one
	// parent would clobber each other's slot and are not supported.
	nt.profiles = append(t.profiles, p)
	if t.deadCount > 0 {
		nt.dead = make([]bool, np+1)
		copy(nt.dead, t.dead)
		nt.deadCount = t.deadCount
	}

	ins := inserterPool.Get().(*inserter)
	defer inserterPool.Put(ins)
	if !ins.reset(nt, p, np, vo) {
		// The profile is unsatisfiable on some attribute: it can never
		// match, so the automaton is unchanged and the whole node graph is
		// shared. The index still exists (it appears in no leaf).
		nt.root = t.root
		nt.meta = t.meta
		return nt, np
	}
	nt.root = ins.transform(t.root)
	nt.meta = &graphMeta{} // filled lazily on the first Levels/Stats call
	ins.release()
	return nt, np
}

// inserterPool recycles the memo map and scratch buffers across inserts:
// steady churn then allocates almost nothing beyond the arena chunks the
// successor tree keeps.
var inserterPool = sync.Pool{New: func() any { return new(inserter) }}

// reset prepares a (possibly recycled) inserter for one WithProfile call: p's
// canonical constraint on every attribute, exactly as Build computes it, and
// the deepest level it constrains. It reports whether p is satisfiable.
func (ins *inserter) reset(nt *Tree, p *predicate.Profile, np int, vo ValueOrder) bool {
	n := nt.schema.N()
	ins.cons, ins.ivs, ins.lastCons = ins.cons[:0], ins.ivs[:0], -1
	for attr := 0; attr < n; attr++ {
		c := subrange.Constraint{Profile: np, DontCare: !p.Constrains(attr)}
		if !c.DontCare {
			dom := nt.schema.At(attr).Domain
			from := len(ins.ivs)
			ins.ivs = p.Pred(attr).AppendIntervals(ins.ivs, dom)
			c.Intervals = ins.ivs[from:]
			sat := false
			for _, iv := range c.Intervals {
				if _, ok := subrange.Snap(iv, dom.Kind() != schema.KindNumeric); ok {
					sat = true
					break
				}
			}
			if !sat {
				return false
			}
		}
		ins.cons = append(ins.cons, c)
	}
	for level, attr := range nt.attrOrder {
		if !ins.cons[attr].DontCare {
			ins.lastCons = level
		}
	}
	ins.t = nt
	ins.np = np
	ins.npLeaf = ins.a.leafSet(ins.a.unionTail(nil, np))
	ins.vo = vo
	if ins.memo == nil {
		ins.memo = make(map[*Node]*Node, 256)
	} else {
		clear(ins.memo)
	}
	if len(ins.chains) < n {
		ins.chains = make([]*Node, n)
		ins.parts = make([][]part, n)
		ins.edgeBuf = make([][]Edge, n)
	} else {
		ins.chains = ins.chains[:n]
		for i := range ins.chains {
			ins.chains[i] = nil
		}
	}
	return true
}

// release drops the references the successor tree now owns (the arena and
// the transform state); scratch buffers keep their capacity for the next
// insert.
func (ins *inserter) release() {
	ins.t = nil
	ins.npLeaf = nil
	// Drop the chunk references: the successor tree owns them now.
	ins.a = arena{}
	clear(ins.memo)
}

// WithoutProfile returns a successor tree with dense index pi tombstoned.
// The node graph is shared whole: the dead profile keeps occupying its leaf
// sets and subranges until a coalescing rebuild, and match translation skips
// it via Dead.
func (t *Tree) WithoutProfile(pi int) *Tree {
	nt := *t
	nt.dead = make([]bool, len(t.profiles))
	copy(nt.dead, t.dead)
	if !nt.dead[pi] {
		nt.dead[pi] = true
		nt.deadCount = t.deadCount + 1
	}
	return &nt
}

// Reordered returns a successor tree with vo applied to the nodes that test
// one of attrs (none given: to every node). Unlike ApplyValueOrder it does not
// mutate the receiver, and it costs what is reordered: nodes down to the
// deepest level testing such an attribute are path-copied, those testing one
// get a fresh layout, and everything below — like every profile and leaf
// set — is shared, so readers of the old tree keep a
// consistent defined order. It reports the nodes re-sorted and the nodes
// copied only to re-point their children.
func (t *Tree) Reordered(vo ValueOrder, attrs ...int) (nt *Tree, resorted, copied int) {
	r := reorderer{s: t.schema, vo: vo, strategy: t.strategy, sel: make([]bool, len(t.attrOrder)), memo: make(map[*Node]*Node), a: arena{grow: true}}
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
	c.root = r.clone(t.root)
	c.meta = &graphMeta{} // same graph shape, but fresh nodes: recompute lazily
	return &c, r.resorted, r.copied
}

// reorderer carries one Reordered call: the selected attributes, the deepest
// level testing one, and the memo that keeps shared states shared.
type reorderer struct {
	s                *schema.Schema
	vo               ValueOrder
	strategy         Search
	sel              []bool
	deepest          int
	memo             map[*Node]*Node
	sc               orderScratch
	a                arena
	resorted, copied int
}

//genas:builder
func (r *reorderer) clone(old *Node) *Node {
	if int(old.Level) > r.deepest {
		return old
	}
	if n, ok := r.memo[old]; ok {
		return n
	}
	n := new(Node)
	*n = *old
	if int(old.Level) < r.deepest {
		n.edges = slices.Clone(old.edges)
		for i := range n.edges {
			n.edges[i].Child = r.clone(n.edges[i].Child)
		}
	}
	if r.sel[old.Attr] {
		n.applyOrder(r.s.At(int(old.Attr)).Domain, r.vo, r.strategy, &r.sc, &r.a)
		r.resorted++
	} else {
		r.copied++
	}
	r.memo[old] = n
	return n
}

// arena chunk-allocates the objects of one insert or one build. A corridor
// transform creates hundreds of small, identically shaped objects (nodes,
// edge lists, layouts, match sets), a build tens of thousands;
// allocating each individually made malloc fixed costs and the resulting GC
// assist rate the dominant term of both. Chunks are pinned by the tree exactly
// as long as individually allocated objects would be; the unused tail of the
// last chunk of each kind is the only overhead.
type arena struct {
	nodes   slab[Node]
	edges   slab[Edge]
	ints    slab[int]   // match sets
	sets    slab[[]int] // their handles
	layouts slab[int32] // probe trees, scan orders, edge positions
	// The scans' lookup tables; SearchWeighted takes nothing from these two.
	tabs    slab[lookup]
	buckets slab[bucket]
	// grow lets chunks grow with what the arena already holds (Build); an
	// insert keeps them at their small fixed size.
	grow bool
}

// Chunk sizes are deliberately small: a corridor fills dozens of chunks
// whatever their size, so the only real overhead is the partially used last
// chunk of each kind — small chunks bound that waste at a few KB while the
// malloc fixed cost stays amortized. A growing arena instead asks for a
// thirty-second of what it holds, up to maxChunk elements: a tree of a dozen nodes
// pays for no chunk, the tail of a large one stays a percent or two, and the chunk
// count is logarithmic up to maxChunk.
const (
	nodeChunk   = 64
	edgeChunk   = 128
	bucketChunk = 128
	intChunk    = 256
	setChunk    = 32
	maxChunk    = 1 << 15
)

// slab hands out runs of one chunked element type.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	held int // elements in all chunks so far
}

// take returns n fresh elements, refilling with a chunk of d, or of what the
// slab's growth asks for, when fewer are left.
//
//genas:builder
func (s *slab[T]) take(n, d int, grow bool) []T {
	if len(s.free) < n {
		if grow {
			d = min(s.held/32, maxChunk)
		}
		// Grow rounds the chunk up to what its size class holds anyway.
		s.free = slices.Grow([]T(nil), max(n, d))
		s.free = s.free[:cap(s.free)]
		s.held += len(s.free)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

//genas:builder
func (a *arena) node() *Node { return &a.nodes.take(1, nodeChunk, a.grow)[0] }

// edgeSlice commits a scratch-built edge list to arena storage.
//
//genas:builder
func (a *arena) edgeSlice(src []Edge) []Edge {
	out := a.edges.take(len(src), edgeChunk, a.grow)
	copy(out, src)
	return out
}

// table commits a scan's lookup table to arena storage: the scratch-built
// bucket list and the edges' positions (already the arena's).
//
//genas:builder
func (a *arena) table(bks []bucket, orderPos []int32, discrete bool) *lookup {
	t := &a.tabs.take(1, nodeChunk, a.grow)[0]
	*t = lookup{buckets: a.buckets.take(len(bks), bucketChunk, a.grow), orderPos: orderPos, discrete: discrete}
	copy(t.buckets, bks)
	return t
}

// layout returns n zeroed layout entries of arena storage.
func (a *arena) layout(n int) []int32 { return a.layouts.take(n, intChunk, a.grow) }

// intSlice commits a scratch-built int list to arena storage.
func (a *arena) intSlice(src []int) []int {
	out := a.ints.take(len(src), intChunk, a.grow)
	copy(out, src)
	return out
}

// leafSet returns the handle under which leaf edges share the match set.
func (a *arena) leafSet(set []int) *[]int {
	h := &a.sets.take(1, setChunk, a.grow)[0]
	*h = set
	return h
}

// unionTail appends np to a sorted dense-index set in arena storage. np is
// the largest index in the successor corpus by construction, so the union is
// a copy plus one trailing element.
func (a *arena) unionTail(src []int, np int) []int {
	out := a.ints.take(len(src)+1, intChunk, a.grow)
	copy(out, src)
	out[len(src)] = np
	return out
}

// inserter carries one WithProfile transform: the successor tree under
// construction, the new profile's dense index, and the memo tables that keep
// shared states shared.
type inserter struct {
	t  *Tree
	np int
	// cons is np's canonical constraint per schema attribute, its intervals
	// in ivs; both are scratch no successor tree refers to.
	cons []subrange.Constraint
	ivs  []schema.Interval
	// npLeaf is the one-profile match set {np}, shared by every leaf edge
	// that only the new profile reaches.
	npLeaf *[]int
	vo     ValueOrder
	// memo maps old nodes to their transformed counterparts (alive' =
	// alive ∪ {np} is a function of the old state alone, so old-node
	// identity is a sound key).
	memo map[*Node]*Node
	// chains[level] is the single-profile node testing np's constraint at
	// that level, reached where np alone covers a formerly-unreferenced
	// region.
	chains []*Node
	// lastCons is the deepest level whose attribute np constrains: below it
	// np is don't-care everywhere, so transform parks np in the node's
	// extra set and shares the entire subtree instead of rewriting every
	// leaf (−1 when np constrains nothing, i.e. it matches every event).
	lastCons int
	// scratch is the per-piece split buffer, reused across pieces.
	scratch []splitPiece
	// parts[level] is the split-result buffer of the constrain call active at
	// that level. Recursion makes one shared buffer unsafe (a nested constrain
	// at a deeper level would clobber the caller's), but at most one call is
	// active per level, so indexing by level is.
	parts [][]part
	// edgeBuf[level] is the scratch edge list of the call active at that
	// level, committed to the arena once complete.
	edgeBuf [][]Edge
	// sc is the scratch of deriveOrder and of chain's applyOrder (no recursion
	// between filling and committing it, so one is enough).
	sc orderScratch
	// a chunk-allocates every object the successor tree retains.
	a arena
}

// part is one fragment of a piece split against the new profile's intervals
// during constrain: the region, whether it lies inside the profile's
// intervals, the old edge behind it and, under a scan, the source piece's
// defined-order position.
type part struct {
	iv      schema.Interval
	in      bool
	oldEdge int
	srcPos  int
}

// transform returns the successor node for an old node the new profile
// reaches.
//
//genas:builder
func (ins *inserter) transform(old *Node) *Node {
	if n, ok := ins.memo[old]; ok {
		return n
	}
	var n *Node
	if int(old.Level) > ins.lastCons {
		// Every remaining level is don't-care for np: it matches every
		// event that reaches this node. Park it in the extra set and share
		// the whole subtree — the dominant cost of inserting a profile that
		// constrains only early attributes collapses to one node copy.
		n = ins.a.node()
		*n = *old
		n.extra = ins.a.unionTail(old.extra, ins.np)
	} else if c := &ins.cons[old.Attr]; c.DontCare {
		n = ins.dontCare(old)
	} else {
		n = ins.constrain(old, c.Intervals)
	}
	ins.memo[old] = n
	return n
}

// grown returns e's successor where the new profile joins it: at the leaf
// level its match set with np, above that the transformed child. A nil e is a
// D₀ gap, beyond which np continues alone.
//
//genas:builder
func (ins *inserter) grown(e *Edge, iv schema.Interval, level int) Edge {
	switch last := level == ins.t.schema.N()-1; {
	case e == nil && last:
		return Edge{Iv: iv, leaf: ins.npLeaf}
	case e == nil:
		return Edge{Iv: iv, Child: ins.chain(level + 1)}
	case last:
		return Edge{Iv: iv, leaf: ins.a.leafSet(ins.a.unionTail(*e.leaf, ins.np))}
	}
	return Edge{Iv: iv, Child: ins.transform(e.Child)}
}

// dontCare transforms a node whose attribute the new profile leaves
// unconstrained: np rides every existing edge, and any formerly-D₀ gap
// becomes np's complement region. When the old node had no D₀ gaps the
// partition and ordering are structurally identical, so the layout is shared
// with the old node; the probe tree over the subrange edges is in any case.
//
//genas:builder
func (ins *inserter) dontCare(old *Node) *Node {
	level := int(old.Level)
	// extra (prior inserts' parked profiles) rides along unchanged: those
	// profiles still match every event reaching the successor node.
	n := ins.a.node()
	*n = *old
	buf := ins.edgeBuf[level][:0]
	for i := range old.edges {
		buf = append(buf, ins.grown(&old.edges[i], old.edges[i].Iv, level))
	}
	dom := ins.t.schema.At(int(old.Attr)).Domain
	gap := false // a D₀ gap: it becomes np's complement region
	for p := old.pieces(dom); p.gaps < 0 && !gap && p.Next(); {
		gap = p.Edge < 0
	}
	if gap {
		buf = append(buf, ins.grown(nil, dom.Interval(), level))
	}
	ins.edgeBuf[level] = buf
	n.edges = ins.a.edgeSlice(buf)
	if gap && old.tab != nil {
		bks := append(ins.sc.bks[:0], old.tab.buckets...)
		for i := range bks {
			if bks[i].edge < 0 {
				bks[i].edge = len(buf) - 1
			}
		}
		ins.deriveOrder(n, bks, old.tab.discrete)
	}
	return n
}

// constrain transforms a node whose attribute the new profile constrains
// with intervals ivs. Pieces overlapping np's region are split against it:
// fragments inside become subrange edges carrying the old occupants plus np
// (the child transformed), fragments outside keep the old edge and child
// verbatim. Pieces disjoint from every interval — the common case, found by a
// merged walk over the two sorted sequences — pass through whole; what is left
// of the complement's pieces stays behind the one trailing edge. np alone
// covers fragments cut out of formerly-D₀ gaps, continuing into its
// single-profile chain.
//
//genas:builder
func (ins *inserter) constrain(old *Node, ivs []schema.Interval) *Node {
	level, ns := int(old.Level), int(old.nSubrange)
	dom := ins.t.schema.At(int(old.Attr)).Domain
	n := ins.a.node()
	*n = Node{Level: old.Level, Attr: old.Attr, extra: old.extra}

	// Phase 1: split the overlapping pieces without recursing
	// (transform/chain reuse ins.scratch, so recursion must wait until the
	// fragments are copied out into this level's parts buffer).
	parts := ins.parts[level][:0]
	ivi := 0
	p := old.pieces(dom)
	for p.Next() {
		pt := part{iv: p.Iv, oldEdge: p.Edge}
		if old.tab != nil {
			pt.srcPos = old.tab.buckets[p.k-1].orderPos
		}
		for ivi < len(ivs) && ivBefore(ivs[ivi], p.Iv) {
			ivi++
		}
		if ivi >= len(ivs) || ivBefore(p.Iv, ivs[ivi]) {
			// Disjoint from every remaining interval: one out-part, no
			// snapping needed (the piece is already canonical).
			parts = append(parts, pt)
			continue
		}
		ins.scratch = splitByIvs(p.Iv, ivs[ivi:], p.unit == 1, ins.scratch[:0])
		for _, pc := range ins.scratch {
			pt.iv, pt.in = pc.iv, pc.in
			parts = append(parts, pt)
		}
	}
	ins.parts[level] = parts

	// Phase 2: assemble the subrange edges in natural order. The fragments
	// left outside np on the old trailing edge's pieces stay its region.
	buf := ins.edgeBuf[level][:0]
	trailing := false
	for _, pc := range parts {
		switch {
		case pc.in && pc.oldEdge >= 0:
			buf = append(buf, ins.grown(&old.edges[pc.oldEdge], pc.iv, level))
		case pc.in:
			buf = append(buf, ins.grown(nil, pc.iv, level))
		case pc.oldEdge >= ns:
			trailing = true
		case pc.oldEdge >= 0:
			oe := &old.edges[pc.oldEdge]
			buf = append(buf, Edge{Iv: pc.iv, Child: oe.Child, leaf: oe.leaf})
		}
	}
	n.nSubrange = int32(len(buf))
	if trailing {
		buf = append(buf, old.edges[ns])
	}
	ins.edgeBuf[level] = buf
	n.edges = ins.a.edgeSlice(buf)

	bks := ins.sc.bks[:0]
	if old.tab != nil {
		// The scans' table: the parts are the successor's pieces, and each
		// inherits the defined-order position of the piece it was cut from.
		ei := 0
		for _, pc := range parts {
			b := bucket{iv: pc.iv, edge: -1, orderPos: pc.srcPos}
			switch {
			case pc.in || (pc.oldEdge >= 0 && pc.oldEdge < ns):
				b.edge, ei = ei, ei+1
			case pc.oldEdge >= ns:
				b.edge = int(n.nSubrange)
			}
			bks = append(bks, b)
		}
	}
	ins.deriveOrder(n, bks, p.unit == 1)
	return n
}

// ivBefore reports a entirely below b on the natural axis.
func ivBefore(a, b schema.Interval) bool {
	return a.Hi < b.Lo || (a.Hi == b.Lo && (a.HiOpen || b.LoOpen))
}

// deriveOrder lays out a successor node: under SearchWeighted the
// count-balanced probe tree, under a scan the lookup table bks with scan order
// and edge positions derived from the defined order of the node it was split
// from: bks[i].orderPos comes in as the position of the old bucket that
// bks[i] is a fragment of, and fragments inherit their source's rank (natural
// tiebreak within one source). The relative order of
// surviving regions is exactly the parent's, so the configured value order
// propagates through incremental inserts without re-scoring every corridor
// node (which dominated the churn path). Fresh regions cut out of the new
// profile's intervals sit where their source bucket sat — not where a full
// re-rank would put them; the coalescing rebuild restores the exact order.
//
//genas:builder
func (ins *inserter) deriveOrder(n *Node, bks []bucket, discrete bool) {
	if ins.t.strategy == SearchWeighted {
		n.scan = balanced(ins.a.layout(int(n.nSubrange))[:0], 0, int(n.nSubrange)-1)
		return
	}
	entries := ins.sc.entries[:0]
	comp := orderEntry{score: math.Inf(1), nat: len(bks), edge: -1}
	for bi, b := range bks {
		if b.edge >= int(n.nSubrange) {
			comp.score, comp.edge = min(comp.score, float64(b.orderPos)), b.edge
			continue
		}
		entries = append(entries, orderEntry{score: float64(b.orderPos), nat: bi, edge: b.edge})
	}
	if comp.edge >= 0 {
		entries = append(entries, comp)
	}
	// Insertion sort: entries arrive in natural order, which is nearly
	// sorted by (score, nat) already — under the natural value order exactly
	// sorted — so this beats the generic sort's closure dispatch.
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && (entries[j].score > e.score || (entries[j].score == e.score && entries[j].nat > e.nat)) {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
	n.tabulate(bks, entries, discrete, &ins.a)
	ins.sc.bks, ins.sc.entries = bks[:0], entries[:0]
}

// chain returns the single-profile node testing np's constraint at level,
// shared by every edge through which np alone continues.
//
//genas:builder
func (ins *inserter) chain(level int) *Node {
	if n := ins.chains[level]; n != nil {
		return n
	}
	attr := ins.t.attrOrder[level]
	dom := ins.t.schema.At(attr).Domain
	n := ins.a.node()
	*n = Node{Level: int16(level), Attr: int16(attr)}
	ins.chains[level] = n
	e := ins.grown(nil, dom.Interval(), level)
	buf := ins.edgeBuf[level][:0]
	if c := &ins.cons[attr]; c.DontCare {
		buf = append(buf, e)
	} else {
		ins.scratch = splitByIvs(e.Iv, c.Intervals, dom.Kind() != schema.KindNumeric, ins.scratch[:0])
		for _, pc := range ins.scratch {
			if pc.in {
				e.Iv = pc.iv
				buf = append(buf, e)
			}
		}
		n.nSubrange = int32(len(buf))
	}
	ins.edgeBuf[level] = buf
	n.edges = ins.a.edgeSlice(buf)
	n.applyOrder(dom, ins.vo, ins.t.strategy, &ins.sc, &ins.a)
	return n
}

// splitPiece is one fragment of a piece split against the new profile's
// intervals: in marks fragments inside the profile's region.
type splitPiece struct {
	iv schema.Interval
	in bool
}

// splitByIvs partitions b into natural-order fragments inside/outside the
// sorted disjoint interval set ivs, appending to out. Fragments are snapped
// to the canonical piece form (closed atom-aligned on discrete domains) and
// empty fragments are dropped; adjacent same-disposition fragments — which
// arise when snapping drops an atom-free splinter — are re-merged so the
// successor partition stays as coarse as a fresh decomposition's.
func splitByIvs(b schema.Interval, ivs []schema.Interval, discrete bool, out []splitPiece) []splitPiece {
	base := len(out)
	push := func(iv schema.Interval, in bool) {
		snapped, ok := subrange.Snap(iv, discrete)
		if !ok {
			return
		}
		if n := len(out); n > base && out[n-1].in == in && piecesTouch(out[n-1].iv, snapped, discrete) {
			out[n-1].iv = schema.Interval{
				Lo: out[n-1].iv.Lo, LoOpen: out[n-1].iv.LoOpen,
				Hi: snapped.Hi, HiOpen: snapped.HiOpen,
			}
			return
		}
		out = append(out, splitPiece{iv: snapped, in: in})
	}
	cur := b
	for _, c := range ivs {
		if cur.Empty() {
			break
		}
		inter := cur.Intersect(c)
		if inter.Empty() {
			continue
		}
		push(schema.Interval{Lo: cur.Lo, LoOpen: cur.LoOpen, Hi: inter.Lo, HiOpen: !inter.LoOpen}, false)
		push(inter, true)
		cur = schema.Interval{Lo: inter.Hi, LoOpen: !inter.HiOpen, Hi: cur.Hi, HiOpen: cur.HiOpen}
	}
	push(cur, false)
	return out
}

// piecesTouch reports whether b directly continues a with no domain value
// between them (the merge rule of the decomposition sweep).
func piecesTouch(a, b schema.Interval, discrete bool) bool {
	if discrete {
		return b.Lo == a.Hi+1 || b.Lo == a.Hi
	}
	return a.Hi == b.Lo && (!a.HiOpen || !b.LoOpen)
}
