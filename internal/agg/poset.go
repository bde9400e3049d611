package agg

import (
	"math"
	"slices"

	"genas/internal/par"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Member is one concrete subscription attached to a canonical node, as the
// caller registered it (a broker's subscription, a route): the predicate
// structure lives once, on the node, and a match yields the members.
//
// A member other than Bare owns its profile: when it joins a node whose
// representative's predicate column is spelled exactly like its own, the
// poset points the member's column at the representative's, so equal
// subscriptions hold one column. The member's id, priority and spelling
// stay its own.
type Member interface {
	Profile() *predicate.Profile
}

// Bare makes a bare profile a member, for callers that keep nothing else per
// subscription (route tables, the benchmark's ladder, tests). The member is
// one pointer, so boxing it allocates nothing, and the poset never writes
// the profile.
func Bare(p *predicate.Profile) Member { return bare{p} }

type bare struct{ p *predicate.Profile }

func (b bare) Profile() *predicate.Profile { return b.p }

// node is one canonical conjunction in the poset. A linked node with no
// parents is a root: one of the structures the tree indexes.
type node struct {
	idx  int32
	mark uint32 // per-operation scratch, guarded by the owner's writer mutex
	form []span
	// rep is the canonical representative profile the tree indexes (for
	// roots) and the expansion walk evaluates (for inner nodes). It has no
	// id; its predicate column is the first member's, which every later
	// member spelled alike shares (attach). It lives in the node, so a new
	// structure is one allocation.
	rep predicate.Profile
	// subs is append-only: frozen snapshots alias the backing array, so
	// removal copies (COW) instead of truncating in place. subs and kids are
	// written through Poset.setSubs, edge and dropKid only: those mark the
	// node dirty, without which the next Snapshot keeps its old record.
	subs    []Member
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
// an existing structure, or a structure entering or leaving beneath a
// coverer. The Delta of Add or Remove is the caller's to keep; that of Join
// or Take lives in the poset's scratch and is valid until the next call that
// changes the poset.
type Delta struct {
	// Joined lists the nodes that became roots: a new uncovered structure,
	// or the formerly-covered nodes promoted when their last coverer
	// detached. The engine indexes their representatives.
	Joined []NodeRef
	// Left lists the nodes that stopped being roots: roots demoted beneath a
	// wider new structure (they remain reachable through its expansion
	// edges), or a root that lost its last member. The engine removes
	// their tree slots from the automaton.
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
	// nodes holds every node at its index. A removed node leaves a nil hole
	// and its index on free, which the next new node takes over, so the table
	// never grows past the peak live node count. keys is aligned with it.
	nodes []*node
	keys  []linkKey
	free  []int32
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

	form         []span            // attach's scratch
	ivs          []schema.Interval // formOf's scratch
	above, below []*node           // link's scratch
	joined       []NodeRef         // the Join and Take deltas' scratch
	left         []int32
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

// RootList returns the current roots in node order — the corpus the engine's
// tree indexes on a full rebuild.
func (po *Poset) RootList() []NodeRef {
	po.ensureLinked()
	out := make([]NodeRef, 0, po.roots)
	for _, n := range po.nodes {
		if n != nil && len(n.parents) == 0 {
			out = append(out, NodeRef{Idx: n.idx, Rep: &n.rep})
		}
	}
	return out
}

// AnyRoot reports whether f holds for the representative of some root, in
// node order, stopping at the first. A root covers every node beneath it:
// it leaves open each attribute they leave open and holds each other one to
// a superset of their values. So where a node beneath accepts a value of
// one attribute, its root does too, and the roots answer such a question
// for every node.
func (po *Poset) AnyRoot(f func(*predicate.Profile) bool) bool {
	po.ensureLinked()
	for _, n := range po.nodes {
		if n != nil && len(n.parents) == 0 && f(&n.rep) {
			return true
		}
	}
	return false
}

// Members returns the registered members in node order, each as it was
// registered: its profile is its own, not the node's representative.
func (po *Poset) Members() []Member {
	out := make([]Member, 0, po.subCnt)
	for _, n := range po.nodes {
		if n != nil {
			out = append(out, n.subs...)
		}
	}
	return out
}

// attach registers member m on its canonical node, creating the node on an
// interning miss (reported by created), at the index the last removal freed
// if there is one: it is then in the tables but not yet in the order. The
// caller has already rejected duplicates via Has. A new node's
// representative aliases the profile's predicate column; on a hit, a member
// that owns its profile takes the representative's column when the two are
// spelled alike (Member).
func (po *Poset) attach(m Member) (n *node, created bool) {
	p := m.Profile()
	po.form, po.ivs = formOf(po.sch, p, po.form[:0], po.ivs)
	h := po.hash(po.form)
	for n = po.byForm[h]; n != nil && !slices.Equal(n.form, po.form); {
		n = n.next
	}
	if n == nil {
		created = true
		n = &node{
			idx:  int32(len(po.nodes)),
			form: slices.Clone(po.form),
			rep:  predicate.Profile{Preds: p.Preds},
			next: po.byForm[h],
		}
		po.byForm[h] = n
		if k := len(po.free); k > 0 {
			n.idx, po.free = po.free[k-1], po.free[:k-1]
			po.nodes[n.idx], po.keys[n.idx] = n, keyOf(n.form)
		} else {
			po.nodes = append(po.nodes, n)
			po.keys = append(po.keys, keyOf(n.form))
		}
		po.live++
	} else if _, shared := m.(bare); !shared && sameColumn(p.Preds, n.rep.Preds) {
		p.Preds = n.rep.Preds
	}
	po.setSubs(n, append(n.subs, m))
	po.bySub[p.ID] = n
	po.subCnt++
	return n, created
}

// sameColumn reports whether two predicate columns are spelled alike: the
// same attribute, operator and operands in order, the operands compared by
// their bits, so that -0 and 0 stay apart as they print apart.
func sameColumn(a, b []predicate.Predicate) bool {
	return slices.EqualFunc(a, b, func(x, y predicate.Predicate) bool {
		return x.Attr == y.Attr && x.Op == y.Op && sameBits(x.Value, y.Value) &&
			sameBits(x.Hi, y.Hi) && slices.EqualFunc(x.Set, y.Set, sameBits)
	})
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// touch marks n's snapshot record stale. While nodes wait to be linked it
// records nothing: the pending Compact re-records every node.
func (po *Poset) touch(n *node) {
	if !po.unlinked {
		po.dirty = append(po.dirty, n.idx)
	}
}

// setSubs replaces n's member list.
func (po *Poset) setSubs(n *node, subs []Member) {
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

// Intern registers member m like Join but leaves a new structure out of the
// order: the next reader of the order links every node in one pass. That is
// the bulk-load path — placing nodes one by one while nothing reads the
// order in between buys nothing.
func (po *Poset) Intern(m Member) {
	if _, created := po.attach(m); created {
		po.unlinked = true
	}
}

// Add registers the bare profile p (see Join) and returns a Delta the caller
// may keep.
func (po *Poset) Add(p *predicate.Profile) Delta { return po.Join(Bare(p)).clone() }

// Join registers member m and places a new structure in the order at once.
// The Delta is the poset's scratch: it is valid until the next call that
// changes the poset.
func (po *Poset) Join(m Member) Delta {
	po.ensureLinked()
	n, created := po.attach(m)
	if !created {
		// Interning hit: the tree and the poset edges are untouched.
		return Delta{}
	}
	po.above, po.below = po.covering(n, len(po.keys), po.above[:0], po.below[:0])
	return po.place(n, po.above, po.below)
}

// clone copies a scratch Delta into one its holder owns.
func (d Delta) clone() Delta {
	return Delta{Joined: slices.Clone(d.Joined), Left: slices.Clone(d.Left)}
}

// covering appends to above every node among the first upto of the table,
// n aside, that covers n, and to below every one n covers, in table order:
// one scan over the keys, reading a form only for the pairs the keys leave.
// Join scans the whole table, since a reused index is not the newest;
// Compact scans the nodes it placed before n. It writes nothing, so Compact
// runs it for many nodes at once.
func (po *Poset) covering(n *node, upto int, above, below []*node) ([]*node, []*node) {
	key := po.keys[n.idx] // a copy: the scan keeps it in registers
	for j := range po.keys[:upto] {
		switch o := &po.keys[j]; {
		case o.attr == key.attr && (o.lo-key.lo)*(key.hi-o.hi) < 0:
			// Both start at one attribute and neither hull there holds the
			// other: the common case, settled by one predictable branch
			// (an empty hull makes the product infinite or NaN, never
			// negative, and falls through to the exact tests).
		case o.attr < 0 || j == int(n.idx):
		case mayCover(o, &key) && coversForm(po.nodes[j].form, n.form):
			above = append(above, po.nodes[j])
		case mayCover(&key, o) && coversForm(n.form, po.nodes[j].form):
			below = append(below, po.nodes[j])
		}
	}
	return above, below
}

// place links n between the nodes covering it and those it covers (covering's
// lists): its parents are the minimal coverers and its kids the maximal
// covered nodes. A coverer is minimal when none of its kids covers n, a
// covered node maximal when n covers none of its parents, because covering is
// transitive along poset edges. An edge from a coverer of n straight to a kid
// of n is dropped — n now sits between the two — so the edges stay the
// transitive reduction of the order. The Delta is written into the poset's
// scratch.
func (po *Poset) place(n *node, above, below []*node) Delta {
	d := Delta{Joined: po.joined[:0], Left: po.left[:0]}
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
		d.Joined = append(d.Joined, NodeRef{Idx: n.idx, Rep: &n.rep})
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
	po.joined, po.left = d.Joined, d.Left
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

// Remove unregisters subscription id and returns a Delta the caller may keep.
// ok is false when id is unknown.
func (po *Poset) Remove(id predicate.ID) (d Delta, ok bool) {
	m, d := po.Take(id)
	return d.clone(), m != nil
}

// Take unregisters subscription id and returns the member it registered, nil
// when id is unknown. A node that loses its last member leaves the order,
// which stays the transitive reduction of the covering order: each of its
// kids hangs beneath each of its parents that no other path leads from. The
// Delta is the poset's scratch, valid until the next call that changes the
// poset.
func (po *Poset) Take(id predicate.ID) (m Member, d Delta) {
	n := po.bySub[id]
	if n == nil {
		return nil, d
	}
	delete(po.bySub, id)
	po.subCnt--
	// COW: frozen snapshots alias the old backing array.
	subs := make([]Member, 0, len(n.subs)-1)
	for _, sm := range n.subs {
		if sm.Profile().ID == id {
			m = sm
		} else {
			subs = append(subs, sm)
		}
	}
	po.setSubs(n, subs)
	if len(subs) > 0 {
		return m, d
	}

	// Last member gone: the node leaves the tables, and its index is free.
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
	// An automaton may keep the representative, and with it the node, until
	// its line is copied; the node's links are cut so that it keeps no other.
	n.next = nil
	po.nodes[n.idx] = nil
	po.keys[n.idx].attr = -1
	po.free = append(po.free, n.idx)
	po.live--
	if po.unlinked {
		// No order to mend: the pending Compact links what is left.
		n.kids, n.parents = nil, nil
		return m, d
	}

	// Detach eagerly. Kids re-link to the node's parents; a kid left with
	// no parents is promoted to root, so a covered subscription resurfaces
	// in the index the moment its coverer unsubscribes (federation's
	// re-announce semantics depend on this).
	d = Delta{Joined: po.joined[:0], Left: po.left[:0]}
	if len(n.parents) == 0 {
		po.roots--
		d.Left = append(d.Left, n.idx)
	}
	for _, pa := range n.parents {
		po.dropKid(pa, n)
	}
	for _, k := range n.kids {
		k.parents = dropNode(k.parents, n)
		kept := k.parents
		for _, pa := range n.parents {
			if !coversAny(pa, kept) {
				po.edge(pa, k)
			}
		}
		if len(k.parents) == 0 {
			po.roots++
			d.Joined = append(d.Joined, NodeRef{Idx: k.idx, Rep: &k.rep})
		}
	}
	n.kids, n.parents = nil, nil
	po.joined, po.left = d.Joined, d.Left
	return m, d
}

// coversAny reports whether pa covers one of qs. Take re-links a kid under a
// parent of the node it removes only where this is false: the edges are the
// reduction of a complete order, so a parent covering another of the kid's
// parents reaches the kid through it already, and no node but the removed one
// can lie between a parent and the kid otherwise.
func coversAny(pa *node, qs []*node) bool {
	for _, q := range qs {
		if coversForm(pa.form, q.form) {
			return true
		}
	}
	return false
}

// dropNode removes x from s in place.
func dropNode(s []*node, x *node) []*node {
	if i := slices.Index(s, x); i >= 0 {
		s[i] = s[len(s)-1]
		return s[:len(s)-1]
	}
	return s
}

// Compact links a bulk load: it rebuilds the order over the live nodes in
// one pass, dropping the holes no new node has taken over yet. Members and
// reps survive; indices are reassigned and the free list empties. The first
// reader of the order after an Intern calls it (ensureLinked); Join and
// Take keep the order exact themselves, so nothing else needs it.
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
	po.nodes, po.keys, po.free = po.nodes[:live], po.keys[:live], po.free[:0]
	po.roots = 0
	po.unlinked = false
	// Every record moved: the next Snapshot shares nothing with the last.
	po.img, po.dirty = nil, po.dirty[:0]
	// Keys and forms hold still while the order is rebuilt, so the scans of a
	// batch of nodes run at once; placing them stays in table order.
	found := make([]struct{ above, below []*node }, min(live, compactBatch))
	for from := 0; from < live; from += len(found) {
		batch := po.nodes[from:min(from+len(found), live)]
		par.For(par.Workers(len(batch), scanGrain), len(batch), scanGrain, func(_, i int) {
			f := &found[i]
			f.above, f.below = po.covering(batch[i], from+i, f.above[:0], f.below[:0])
		})
		for i, n := range batch {
			po.touch(n)
			po.place(n, found[i].above, found[i].below)
		}
	}
}

// Compact scans the nodes of a batch at once, claimed scanGrain at a time, so
// a poset of at most scanGrain nodes is linked inline. A batch bounds the
// covering lists held at once.
const (
	compactBatch = 1024
	scanGrain    = 64
)

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
