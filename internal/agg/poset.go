package agg

import (
	"slices"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// SubRef is one concrete subscription attached to a canonical node: the
// subscriber's id plus the per-subscription priority applied at expansion
// time. This is all the aggregation layer keeps per subscriber — the
// predicate structure lives once, on the node.
type SubRef struct {
	ID       predicate.ID
	Priority float64
}

// node is one canonical conjunction in the poset. A linked node with no
// parents is a root: one of the structures the tree indexes.
type node struct {
	idx  int32
	mark uint32 // per-operation scratch, guarded by the owner's writer mutex
	form []span
	// rep is the canonical representative profile the tree indexes (for
	// roots) and the expansion walk evaluates (for inner nodes). It has no
	// id; its predicate column is shared with the first member.
	rep *predicate.Profile
	// subs is append-only: frozen snapshots alias the backing array, so
	// removal copies (COW) instead of truncating in place. subs and kids are
	// written through Poset.setSubs, edge and dropKid only: those mark the
	// node dirty, without which the next Snapshot keeps its old record.
	subs    []SubRef
	kids    []*node
	parents []*node
	next    *node // intern-table chain: the next node whose form hashes alike
}

// NodeRef pairs a node index with its representative profile — the engine's
// handle for indexing a root into the tree.
type NodeRef struct {
	Idx int32
	Rep *predicate.Profile
}

// Delta is what one Add or Remove changed, in the terms the engine applies to
// its automaton. Most calls change nothing: a subscriber joining or leaving
// an existing structure. A structure entering or leaving beneath a coverer
// changes the node table but leaves both lists empty.
type Delta struct {
	// Nodes is the change in the canonical node count: +1 when Add created a
	// structure, -1 when Remove emptied one. An emptied node leaves a hole in
	// the node table that only Compact reclaims, so the engine charges these
	// to the budget that buys its next rebuild.
	Nodes int
	// Joined lists the nodes that became roots: a new uncovered structure,
	// or the formerly-covered nodes promoted when their last coverer
	// detached. The engine indexes their representatives.
	Joined []NodeRef
	// Left lists the nodes that stopped being roots: roots demoted beneath a
	// wider new structure (they remain reachable through its expansion
	// edges), or a root that lost its last member. The engine tombstones
	// their tree slots.
	Left []int32
}

// Stats summarizes the poset shape for observability.
type Stats struct {
	// Subscriptions is the concrete member count across all nodes.
	Subscriptions int
	// Nodes is the live canonical node count (the index's real size driver).
	Nodes int
	// Roots is the number of nodes the tree actually indexes.
	Roots int
	// MaxDepth is the node count of the longest root→leaf covering chain
	// (1 when no node covers another).
	MaxDepth int
}

// Ratio returns subscriptions per canonical node — the aggregation compression
// factor (0 when empty).
func (s Stats) Ratio() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Subscriptions) / float64(s.Nodes)
}

// Poset is the canonical interning + covering structure. It is not
// goroutine-safe: every method is a write-side operation the owning engine
// serializes on its mutex, except the frozen Snapshot handed to readers.
type Poset struct {
	sch *schema.Schema
	// nodes is append-only between Compact calls; removed nodes leave nil
	// holes so published snapshots' indices stay stable. keys is aligned
	// with it.
	nodes []*node
	keys  []linkKey
	// byForm interns nodes by the hash of their form; hash is hashForm
	// except in the test that forces collisions.
	byForm map[uint64]*node
	hash   func([]span) uint64
	bySub  map[predicate.ID]*node
	subCnt int
	live   int // non-nil entries of nodes
	roots  int
	gen    uint32 // current value of node.mark
	// unlinked is set while some node was interned without being placed in
	// the order (Intern): edges and roots are then stale, and whoever reads
	// the order next pays one Compact for all of them.
	unlinked bool

	// img is the chunk table of the last Snapshot and dirty lists the nodes
	// whose members or kids changed since: Freeze re-records only those.
	img   [][]SnapNode
	dirty []int32

	form         []span  // attach's scratch
	above, below []*node // link's scratch
}

// NewPoset creates an empty poset over schema s.
func NewPoset(s *schema.Schema) *Poset {
	return &Poset{
		sch:    s,
		byForm: make(map[uint64]*node),
		hash:   hashForm,
		bySub:  make(map[predicate.ID]*node),
	}
}

// Has reports whether subscription id is registered.
func (po *Poset) Has(id predicate.ID) bool {
	_, ok := po.bySub[id]
	return ok
}

// SubCount returns the concrete subscription count.
func (po *Poset) SubCount() int { return po.subCnt }

// NodeCount returns the live canonical node count.
func (po *Poset) NodeCount() int { return po.live }

// RootList returns the current roots in node order — the corpus the engine's
// tree indexes on a full rebuild.
func (po *Poset) RootList() []NodeRef {
	po.ensureLinked()
	out := make([]NodeRef, 0, po.roots)
	for _, n := range po.nodes {
		if n != nil && len(n.parents) == 0 {
			out = append(out, NodeRef{Idx: n.idx, Rep: n.rep})
		}
	}
	return out
}

// Profiles synthesizes the concrete member profiles in node order: each
// member borrows its node's canonical predicate column, so listing the
// corpus costs one small struct per subscription, not a deep copy.
func (po *Poset) Profiles() []*predicate.Profile {
	out := make([]*predicate.Profile, 0, po.subCnt)
	for _, n := range po.nodes {
		if n == nil {
			continue
		}
		for _, sr := range n.subs {
			out = append(out, &predicate.Profile{ID: sr.ID, Preds: n.rep.Preds, Priority: sr.Priority})
		}
	}
	return out
}

// attach registers p's subscription on its canonical node, creating the node
// on an interning miss (reported by created): it is then in the tables but
// not yet in the order. The caller has already rejected duplicates via Has;
// p's predicate column is aliased, not copied.
func (po *Poset) attach(p *predicate.Profile) (n *node, created bool) {
	po.form = formOf(po.sch, p, po.form[:0])
	h := po.hash(po.form)
	for n = po.byForm[h]; n != nil && !slices.Equal(n.form, po.form); {
		n = n.next
	}
	if n == nil {
		created = true
		n = &node{
			idx:  int32(len(po.nodes)),
			form: slices.Clone(po.form),
			rep:  &predicate.Profile{Preds: p.Preds},
			next: po.byForm[h],
		}
		po.byForm[h] = n
		po.nodes = append(po.nodes, n)
		po.keys = append(po.keys, keyOf(n.form))
		po.live++
	}
	po.setSubs(n, append(n.subs, SubRef{ID: p.ID, Priority: p.Priority}))
	po.bySub[p.ID] = n
	po.subCnt++
	return n, created
}

// touch marks n's snapshot record stale. While nodes wait to be linked it
// records nothing: the pending Compact re-records every node.
func (po *Poset) touch(n *node) {
	if !po.unlinked {
		po.dirty = append(po.dirty, n.idx)
	}
}

// setSubs replaces n's member list.
func (po *Poset) setSubs(n *node, subs []SubRef) {
	n.subs = subs
	po.touch(n)
}

// edge hangs k beneath pa.
func (po *Poset) edge(pa, k *node) {
	pa.kids = append(pa.kids, k)
	k.parents = append(k.parents, pa)
	po.touch(pa)
}

// dropKid takes k off pa's kid list (write-side lists are never aliased by
// snapshots — Freeze copies them — so it edits them in place).
func (po *Poset) dropKid(pa, k *node) {
	pa.kids = dropNode(pa.kids, k)
	po.touch(pa)
}

// unedge removes the edge from pa to k.
func (po *Poset) unedge(pa, k *node) {
	po.dropKid(pa, k)
	k.parents = dropNode(k.parents, pa)
}

// Intern registers profile p like Add but leaves a new structure out of the
// order: the next reader of the order links every node in one pass. That is
// the bulk-load path — placing nodes one by one while nothing reads the
// order in between buys nothing.
func (po *Poset) Intern(p *predicate.Profile) {
	if _, created := po.attach(p); created {
		po.unlinked = true
	}
}

// Add registers profile p and places a new structure in the order at once.
func (po *Poset) Add(p *predicate.Profile) Delta {
	po.ensureLinked()
	n, created := po.attach(p)
	if !created {
		// Interning hit: the tree and the poset edges are untouched.
		return Delta{}
	}
	d := po.link(n)
	d.Nodes = 1
	return d
}

// link places n into the order among the nodes before it in the table, all
// linked already: Add's newest node, or each node in turn under Compact. One
// scan over the keys finds every node covering n and every node n covers;
// n's parents are the minimal coverers and its kids the maximal covered
// nodes. A coverer is minimal when none of its kids covers n, a covered node
// maximal when n covers none of its parents, because covering is transitive
// along poset edges. An edge from a coverer of n straight to a kid of n is
// dropped — n now sits between the two — so the edges stay the transitive
// reduction of the order.
func (po *Poset) link(n *node) (d Delta) {
	key := po.keys[n.idx] // a copy: the scan keeps it in registers
	above, below := po.above[:0], po.below[:0]
	for j := range po.keys[:n.idx] {
		switch o := &po.keys[j]; {
		case o.attr == key.attr && (o.lo-key.lo)*(key.hi-o.hi) < 0:
			// Both start at one attribute and neither hull there holds the
			// other: the common case, settled by one predictable branch
			// (an empty hull makes the product infinite or NaN, never
			// negative, and falls through to the exact tests).
		case o.attr < 0:
		case mayCover(o, &key) && coversForm(po.nodes[j].form, n.form):
			above = append(above, po.nodes[j])
		case mayCover(&key, o) && coversForm(n.form, po.nodes[j].form):
			below = append(below, po.nodes[j])
		}
	}
	po.above, po.below = above, below

	po.gen++
	covers := po.gen
	for _, a := range above {
		a.mark = covers
	}
	for _, a := range above {
		if !anyMarked(a.kids, covers) {
			po.edge(a, n)
		}
	}
	if len(n.parents) == 0 {
		po.roots++
		d.Joined = []NodeRef{{Idx: n.idx, Rep: n.rep}}
	}

	po.gen++
	for _, b := range below {
		b.mark = po.gen
	}
	for _, b := range below {
		if anyMarked(b.parents, po.gen) {
			continue
		}
		if len(b.parents) == 0 {
			po.roots--
			d.Left = append(d.Left, b.idx)
		}
		for i := len(b.parents) - 1; i >= 0; i-- { // downwards: unedge swaps the tail in
			if a := b.parents[i]; a.mark == covers {
				po.unedge(a, b)
			}
		}
		po.edge(n, b)
	}
	return d
}

// anyMarked reports whether one of ns carries mark.
func anyMarked(ns []*node, mark uint32) bool {
	for _, n := range ns {
		if n.mark == mark {
			return true
		}
	}
	return false
}

// Remove unregisters subscription id. ok is false when id is unknown.
func (po *Poset) Remove(id predicate.ID) (d Delta, ok bool) {
	n := po.bySub[id]
	if n == nil {
		return d, false
	}
	delete(po.bySub, id)
	po.subCnt--
	// COW: frozen snapshots alias the old backing array.
	subs := make([]SubRef, 0, len(n.subs)-1)
	for _, sr := range n.subs {
		if sr.ID != id {
			subs = append(subs, sr)
		}
	}
	po.setSubs(n, subs)
	if len(subs) > 0 {
		return d, true
	}
	d.Nodes = -1

	// Last member gone: the node leaves the tables.
	h := po.hash(n.form)
	if head := po.byForm[h]; head != n {
		for head.next != n {
			head = head.next
		}
		head.next = n.next
	} else if n.next != nil {
		po.byForm[h] = n.next
	} else {
		delete(po.byForm, h)
	}
	po.nodes[n.idx] = nil
	po.keys[n.idx].attr = -1
	po.live--
	if po.unlinked {
		// No order to mend: the pending Compact links what is left.
		return d, true
	}

	// Detach eagerly. Kids re-link to the node's parents; a kid left with
	// no parents is promoted to root, so a covered subscription resurfaces
	// in the index the moment its coverer unsubscribes (federation's
	// re-announce semantics depend on this). A kid may keep another path
	// from such a parent, so removal can leave a redundant transitive edge:
	// expansion visits a node once whatever the number of edges into it, and
	// the next Compact drops them.
	if len(n.parents) == 0 {
		po.roots--
		d.Left = []int32{n.idx}
	}
	for _, pa := range n.parents {
		po.dropKid(pa, n)
	}
	for _, k := range n.kids {
		k.parents = dropNode(k.parents, n)
		for _, pa := range n.parents {
			if !slices.Contains(k.parents, pa) {
				po.edge(pa, k)
			}
		}
		if len(k.parents) == 0 {
			po.roots++
			d.Joined = append(d.Joined, NodeRef{Idx: k.idx, Rep: k.rep})
		}
	}
	n.kids, n.parents = nil, nil
	return d, true
}

// dropNode removes x from s in place.
func dropNode(s []*node, x *node) []*node {
	if i := slices.Index(s, x); i >= 0 {
		s[i] = s[len(s)-1]
		return s[:len(s)-1]
	}
	return s
}

// Compact rebuilds the order over the live nodes in one pass, dropping the
// nil holes churn leaves behind and the redundant transitive edges removal
// tolerates. Members and reps survive; indices are reassigned. The engine
// calls this from its coalescing rebuild, right before re-indexing the roots;
// it is also how nodes interned without linking enter the order.
func (po *Poset) Compact() {
	live := 0
	for i, n := range po.nodes {
		if n == nil {
			continue
		}
		n.idx, n.kids, n.parents = int32(live), nil, nil
		po.nodes[live], po.keys[live] = n, po.keys[i]
		live++
	}
	clear(po.nodes[live:])
	po.nodes, po.keys = po.nodes[:live], po.keys[:live]
	po.roots = 0
	po.unlinked = false
	// Every record moved: the next Snapshot shares nothing with the last.
	po.img, po.dirty = nil, po.dirty[:0]
	for _, n := range po.nodes {
		po.touch(n)
		po.link(n)
	}
}

func (po *Poset) ensureLinked() {
	if po.unlinked {
		po.Compact()
	}
}

// Relation is the poset order between two subscriptions' canonical nodes.
type Relation int

// Relation values.
const (
	Incomparable Relation = iota
	Equal                 // same canonical node
	Covers                // a's node is a strict ancestor of b's
	CoveredBy             // a's node is a strict descendant of b's
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Equal:
		return "equal"
	case Covers:
		return "covers"
	case CoveredBy:
		return "covered-by"
	default:
		return "incomparable"
	}
}

// RelationOf reports the poset order between two registered subscriptions.
// Unknown ids are incomparable.
func (po *Poset) RelationOf(a, b predicate.ID) Relation {
	po.ensureLinked()
	na, nb := po.bySub[a], po.bySub[b]
	if na == nil || nb == nil {
		return Incomparable
	}
	if na == nb {
		return Equal
	}
	if po.reachable(na, nb) {
		return Covers
	}
	if po.reachable(nb, na) {
		return CoveredBy
	}
	return Incomparable
}

// reachable reports whether to can be reached from from along kid edges —
// by the poset invariant, exactly when from's node covers to's strictly.
func (po *Poset) reachable(from, to *node) bool {
	po.gen++
	from.mark = po.gen
	stack := []*node{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range x.kids {
			if k == to {
				return true
			}
			if k.mark != po.gen {
				k.mark = po.gen
				stack = append(stack, k)
			}
		}
	}
	return false
}

// Stats computes the observability summary. MaxDepth is the longest
// covering chain, measured in nodes, via memoized longest-path DFS (the
// poset is a DAG).
func (po *Poset) Stats() Stats {
	po.ensureLinked()
	st := Stats{Subscriptions: po.subCnt, Nodes: po.live, Roots: po.roots}
	depth := make([]int, len(po.nodes)) // 0: not computed yet
	var chain func(n *node) int
	chain = func(n *node) int {
		if depth[n.idx] == 0 {
			d := 1
			for _, k := range n.kids {
				d = max(d, chain(k)+1)
			}
			depth[n.idx] = d
		}
		return depth[n.idx]
	}
	for _, n := range po.nodes {
		if n != nil && len(n.parents) == 0 {
			st.MaxDepth = max(st.MaxDepth, chain(n))
		}
	}
	return st
}
