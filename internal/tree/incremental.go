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
	"slices"
	"sync"

	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/subrange"
)

// WithProfile returns a successor tree containing p in addition to the
// receiver's profiles, plus p's dense index in the successor. The receiver
// is unchanged and keeps working; untouched subtrees are shared between the
// two. vo is the value order applied to new and re-bucketed nodes (reused
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
	ins.npSlice = ins.a.unionTail(nil, np)
	ins.vo = vo
	if ins.memo == nil {
		ins.memo = make(map[*Node]*Node, 256)
	} else {
		clear(ins.memo)
	}
	if len(ins.chains) < n {
		ins.chains = make([]*Node, n)
		ins.parts = make([][]part, n)
		ins.srcPos = make([][]int, n)
		ins.edgeBuf = make([][]Edge, n)
		ins.bksBuf = make([][]bucket, n)
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
	ins.npSlice = nil
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
// get fresh buckets and ordering state, and everything below — like every
// profile and leaf slice — is shared, so readers of the old tree keep a
// consistent defined order. It reports the nodes re-sorted and the nodes
// copied only to re-point their children.
func (t *Tree) Reordered(vo ValueOrder, attrs ...int) (nt *Tree, resorted, copied int) {
	r := reorderer{vo: vo, strategy: t.strategy, sel: make([]bool, len(t.attrOrder)), memo: make(map[*Node]*Node), a: arena{grow: true}}
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
	if old.Level > r.deepest {
		return old
	}
	if n, ok := r.memo[old]; ok {
		return n
	}
	n := new(Node)
	*n = *old
	if old.Level < r.deepest {
		n.edges = slices.Clone(old.edges)
		for i := range n.edges {
			n.edges[i].Child = r.clone(n.edges[i].Child)
		}
	}
	if r.sel[old.Attr] {
		n.buckets, n.scan = slices.Clone(old.buckets), nil
		n.applyOrder(r.vo, r.strategy, &r.sc, &r.a)
		r.resorted++
	} else {
		r.copied++
	}
	r.memo[old] = n
	return n
}

// arena chunk-allocates the objects of one insert or one build. A corridor
// transform creates hundreds of small, identically shaped objects (nodes,
// edge lists, bucket lists, order tables), a build tens of thousands;
// allocating each individually made malloc fixed costs and the resulting GC
// assist rate the dominant term of both. Chunks are pinned by the tree exactly
// as long as individually allocated objects would be; the unused tail of the
// last chunk of each kind is the only overhead.
type arena struct {
	nodes   slab[Node]
	edges   slab[Edge]
	buckets slab[bucket]
	ints    slab[int]
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
		d = max(n, d)
		s.free, s.held = make([]T, d), s.held+d
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

// bucketSlice commits a scratch-built bucket list to arena storage.
//
//genas:builder
func (a *arena) bucketSlice(src []bucket) []bucket {
	out := a.buckets.take(len(src), bucketChunk, a.grow)
	copy(out, src)
	return out
}

// reserve returns n zeroed ints of arena storage.
func (a *arena) reserve(n int) []int { return a.ints.take(n, intChunk, a.grow) }

// intSlice commits a scratch-built int list to arena storage.
func (a *arena) intSlice(src []int) []int {
	out := a.reserve(len(src))
	copy(out, src)
	return out
}

// unionTail appends np to a sorted dense-index set in arena storage. np is
// the largest index in the successor corpus by construction, so the union is
// a copy plus one trailing element.
func (a *arena) unionTail(src []int, np int) []int {
	out := a.reserve(len(src) + 1)
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
	// npSlice is the one-profile set {np}, shared by every edge and leaf
	// that carries only the new profile.
	npSlice []int
	vo      ValueOrder
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
	// scratch is the per-bucket split buffer, reused across buckets.
	scratch []splitPiece
	// parts[level] and srcPos[level] are the split-result and source-order
	// buffers of the constrain call active at that level. Recursion makes
	// one shared buffer unsafe (a nested constrain at a deeper level would
	// clobber the caller's), but at most one call is active per level, so
	// indexing by level is.
	parts  [][]part
	srcPos [][]int
	// edgeBuf[level]/bksBuf[level] are the scratch edge and bucket lists of
	// the call active at that level, committed to the arena once complete.
	edgeBuf [][]Edge
	bksBuf  [][]bucket
	// ord, posBuf and scanBuf are deriveOrder's scratch (no recursion
	// inside it, so shared buffers are enough).
	ord     []ordEntry
	posBuf  []int
	scanBuf []int
	compBuf []int
	sc      orderScratch // chain's applyOrder
	// a chunk-allocates every object the successor tree retains.
	a arena
}

// part is one fragment of a bucket split against the new profile's
// intervals during constrain: the region, whether it lies inside the
// profile's intervals, the old edge behind it and the source bucket's
// defined-order position.
type part struct {
	iv      schema.Interval
	in      bool
	oldEdge int
	srcPos  int
}

// ordEntry is one defined-order entry during deriveOrder.
type ordEntry struct {
	key  int // inherited source position
	nat  int // natural tiebreak: bucket index, or len(buckets) for the complement group
	edge int
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
	if old.Level > ins.lastCons {
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

// dontCare transforms a node whose attribute the new profile leaves
// unconstrained: np rides every existing edge, and any formerly-D₀ gap
// becomes np's complement region. When the old node had no D₀ gaps the
// partition and ordering are structurally identical, so buckets, scan order
// and position table are shared with the old node.
//
//genas:builder
func (ins *inserter) dontCare(old *Node) *Node {
	last := old.Level == ins.t.schema.N()-1
	// extra (prior inserts' parked profiles) rides along unchanged: those
	// profiles still match every event reaching the successor node.
	n := ins.a.node()
	*n = Node{Level: old.Level, Attr: old.Attr, discrete: old.discrete, nSubrange: old.nSubrange, extra: old.extra}
	hasGap := false
	for i := range old.buckets {
		if old.buckets[i].edge < 0 {
			hasGap = true
			break
		}
	}
	buf := ins.edgeBuf[old.Level][:0]
	for i := range old.edges {
		oe := &old.edges[i]
		ne := Edge{Kind: oe.Kind, Iv: oe.Iv}
		if last {
			ne.Profiles = ins.a.unionTail(oe.Profiles, ins.np)
		} else {
			// Interior profile sets are inherited analysis metadata (the
			// match path reads only buckets, scan order and leaf sets);
			// sharing them keeps the corridor transform O(cuts), not
			// O(riders).
			ne.Profiles = oe.Profiles
			ne.Child = ins.transform(oe.Child)
		}
		buf = append(buf, ne)
	}
	if !hasGap {
		ins.edgeBuf[old.Level] = buf
		n.edges = ins.a.edgeSlice(buf)
		n.buckets = old.buckets
		n.scan = old.scan
		n.orderPos = old.orderPos
		return n
	}
	ci := len(buf)
	ce := Edge{Kind: EdgeComplement, Profiles: ins.npSlice}
	if !last {
		ce.Child = ins.chain(old.Level + 1)
	}
	buf = append(buf, ce)
	ins.edgeBuf[old.Level] = buf
	n.edges = ins.a.edgeSlice(buf)
	bks := ins.bksBuf[old.Level][:0]
	srcPos := ins.srcPos[old.Level][:0]
	for _, b := range old.buckets {
		srcPos = append(srcPos, b.orderPos)
		if b.edge < 0 {
			b.edge = ci
		}
		bks = append(bks, b)
	}
	ins.bksBuf[old.Level] = bks
	ins.srcPos[old.Level] = srcPos
	n.buckets = ins.a.bucketSlice(bks)
	if ins.t.strategy == SearchWeighted {
		n.scan = old.scan // the subrange edges are the old ones, and so is their probe tree
	} else {
		ins.deriveOrder(n, srcPos)
	}
	return n
}

// constrain transforms a node whose attribute the new profile constrains
// with intervals ivs. Buckets overlapping np's region are split against it:
// pieces inside become subrange edges carrying the old occupants plus np
// (the child transformed), pieces outside keep the old edge, child and
// profile set verbatim. Buckets disjoint from every interval — the common
// case, found by a merged walk over the two sorted sequences — are copied
// wholesale with only the edge index remapped; complement riders collapse
// onto a single reused complement edge. np alone covers pieces cut out of
// formerly-D₀ gaps, continuing into its single-profile chain.
//
//genas:builder
func (ins *inserter) constrain(old *Node, ivs []schema.Interval) *Node {
	last := old.Level == ins.t.schema.N()-1
	n := ins.a.node()
	*n = Node{Level: old.Level, Attr: old.Attr, discrete: old.discrete, extra: old.extra}

	// Phase 1: split the overlapping buckets without recursing
	// (transform/chain reuse ins.scratch, so recursion must wait until the
	// pieces are copied out into this level's parts buffer).
	parts := ins.parts[old.Level][:0]
	ivi := 0
	for bi := range old.buckets {
		b := &old.buckets[bi]
		for ivi < len(ivs) && ivBefore(ivs[ivi], b.iv) {
			ivi++
		}
		if ivi >= len(ivs) || ivBefore(b.iv, ivs[ivi]) {
			// Disjoint from every remaining interval: one out-part, no
			// snapping needed (the bucket is already canonical).
			parts = append(parts, part{iv: b.iv, in: false, oldEdge: b.edge, srcPos: b.orderPos})
			continue
		}
		ins.scratch = splitByIvs(b.iv, ivs[ivi:], old.discrete, ins.scratch[:0])
		for _, pc := range ins.scratch {
			parts = append(parts, part{iv: pc.iv, in: pc.in, oldEdge: b.edge, srcPos: b.orderPos})
		}
	}
	ins.parts[old.Level] = parts

	// Phase 2: assemble edges and buckets in natural order. pending marks
	// bucket entries routed to the complement edge, which is appended after
	// the (naturally ordered) subrange edges.
	const pending = -2
	bks := ins.bksBuf[old.Level][:0]
	srcPos := ins.srcPos[old.Level][:0]
	buf := ins.edgeBuf[old.Level][:0]
	compEdge := -1 // old complement/star edge index behind the pending pieces
	for _, pc := range parts {
		if !pc.in {
			switch {
			case pc.oldEdge >= 0 && old.edges[pc.oldEdge].Kind == EdgeSubrange:
				oe := &old.edges[pc.oldEdge]
				bks = append(bks, bucket{iv: pc.iv, edge: len(buf)})
				buf = append(buf, Edge{
					Kind: EdgeSubrange, Iv: pc.iv,
					Profiles: oe.Profiles, Child: oe.Child,
				})
			case pc.oldEdge >= 0:
				compEdge = pc.oldEdge
				bks = append(bks, bucket{iv: pc.iv, edge: pending})
			default:
				bks = append(bks, bucket{iv: pc.iv, edge: -1})
			}
			srcPos = append(srcPos, pc.srcPos)
			continue
		}
		var ne Edge
		if pc.oldEdge >= 0 {
			oe := &old.edges[pc.oldEdge]
			ne = Edge{Kind: EdgeSubrange, Iv: pc.iv}
			if last {
				ne.Profiles = ins.a.unionTail(oe.Profiles, ins.np)
			} else {
				ne.Profiles = oe.Profiles // inherited metadata; see dontCare
				ne.Child = ins.transform(oe.Child)
			}
		} else {
			ne = Edge{Kind: EdgeSubrange, Iv: pc.iv, Profiles: ins.npSlice}
			if !last {
				ne.Child = ins.chain(old.Level + 1)
			}
		}
		bks = append(bks, bucket{iv: pc.iv, edge: len(buf)})
		srcPos = append(srcPos, pc.srcPos)
		buf = append(buf, ne)
	}
	n.nSubrange = len(buf)
	if compEdge >= 0 {
		oe := &old.edges[compEdge]
		ci := len(buf)
		buf = append(buf, Edge{
			Kind: EdgeComplement, Profiles: oe.Profiles, Child: oe.Child,
		})
		for i := range bks {
			if bks[i].edge == pending {
				bks[i].edge = ci
			}
		}
	}
	ins.edgeBuf[old.Level] = buf
	ins.bksBuf[old.Level] = bks
	ins.srcPos[old.Level] = srcPos
	n.edges = ins.a.edgeSlice(buf)
	n.buckets = ins.a.bucketSlice(bks)
	ins.deriveOrder(n, srcPos)
	return n
}

// ivBefore reports a entirely below b on the natural axis.
func ivBefore(a, b schema.Interval) bool {
	return a.Hi < b.Lo || (a.Hi == b.Lo && (a.HiOpen || b.LoOpen))
}

// deriveOrder rebuilds scan/orderPos of a successor node from the defined
// order of the node it was split from: srcPos[i] is the position of the old
// bucket that n.buckets[i] is a fragment of, and fragments inherit their
// source's rank (natural tiebreak within one source). The relative order of
// surviving regions is exactly the parent's, so the configured value order
// propagates through incremental inserts without re-scoring every corridor
// node (which dominated the churn path). Fresh regions cut out of the new
// profile's intervals sit where their source bucket sat — not where a full
// re-rank would put them; the coalescing rebuild restores the exact order.
//
//genas:builder
func (ins *inserter) deriveOrder(n *Node, srcPos []int) {
	if ins.t.strategy == SearchWeighted {
		ins.scanBuf = balanced(ins.scanBuf[:0], 0, n.nSubrange-1)
		n.scan = ins.a.intSlice(ins.scanBuf)
		return
	}
	entries := ins.ord[:0]
	compBuckets := ins.compBuf[:0]
	compEdge := -1
	compKey := int(^uint(0) >> 1)
	for bi := range n.buckets {
		b := &n.buckets[bi]
		if b.edge >= 0 && n.edges[b.edge].Kind != EdgeSubrange {
			compBuckets = append(compBuckets, bi)
			compEdge = b.edge
			if srcPos[bi] < compKey {
				compKey = srcPos[bi]
			}
			continue
		}
		entries = append(entries, ordEntry{key: srcPos[bi], nat: bi, edge: b.edge})
	}
	if compEdge >= 0 {
		entries = append(entries, ordEntry{key: compKey, nat: len(n.buckets), edge: compEdge})
	}
	// Insertion sort: entries arrive in natural order, which is nearly
	// sorted by (key, nat) already — under the natural value order exactly
	// sorted — so this beats the generic sort's closure dispatch.
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && (entries[j].key > e.key || (entries[j].key == e.key && entries[j].nat > e.nat)) {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
	pos := ins.posBuf[:0]
	for range n.edges {
		pos = append(pos, 0)
	}
	scan := ins.scanBuf[:0]
	for p, e := range entries {
		if e.nat < len(n.buckets) {
			n.buckets[e.nat].orderPos = p + 1
		} else {
			for _, bi := range compBuckets {
				n.buckets[bi].orderPos = p + 1
			}
		}
		if e.edge >= 0 {
			pos[e.edge] = p + 1
			scan = append(scan, e.edge)
		}
	}
	ins.posBuf = pos
	ins.scanBuf = scan
	ins.compBuf = compBuckets[:0]
	ins.ord = entries[:0]
	n.orderPos = ins.a.intSlice(pos)
	n.scan = ins.a.intSlice(scan)
}

// chain returns the single-profile node testing np's constraint at level,
// shared by every edge through which np alone continues.
//
//genas:builder
func (ins *inserter) chain(level int) *Node {
	if n := ins.chains[level]; n != nil {
		return n
	}
	t := ins.t
	attr := t.attrOrder[level]
	dom := t.schema.At(attr).Domain
	last := level == t.schema.N()-1
	n := &Node{Level: level, Attr: attr, discrete: dom.Kind() != schema.KindNumeric}
	if c := &ins.cons[attr]; c.DontCare {
		e := Edge{Kind: EdgeStar, Iv: dom.Interval(), Profiles: ins.npSlice}
		if !last {
			e.Child = ins.chain(level + 1)
		}
		n.edges = []Edge{e}
		n.buckets = []bucket{{iv: dom.Interval(), edge: 0}}
	} else {
		pieces := splitByIvs(dom.Interval(), c.Intervals, n.discrete, nil)
		for _, pc := range pieces {
			if !pc.in {
				n.buckets = append(n.buckets, bucket{iv: pc.iv, edge: -1})
				continue
			}
			e := Edge{Kind: EdgeSubrange, Iv: pc.iv, Profiles: ins.npSlice}
			if !last {
				e.Child = ins.chain(level + 1)
			}
			n.buckets = append(n.buckets, bucket{iv: pc.iv, edge: len(n.edges)})
			n.edges = append(n.edges, e)
		}
		n.nSubrange = len(n.edges)
	}
	n.applyOrder(ins.vo, t.strategy, &ins.sc, &ins.a)
	ins.chains[level] = n
	return n
}

// splitPiece is one fragment of a bucket split against the new profile's
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
