package agg

import (
	"slices"
	"sync"

	"genas/internal/predicate"
	"genas/internal/tree"
)

// Snapshot is the frozen, publishable image of the poset: index-aligned
// node records the match path walks lock-free. It is published through the
// engine's atomic snapshot pointer next to the tree it expands.
//
// The records sit in chunks of chunkSize, so that successive images share
// every chunk that did not change between them: the engine freezes after each
// subscribe and unsubscribe, which touches a node or two, and must not pay
// for the poset each time.
//
//genas:frozen
type Snapshot struct {
	// chunks[i>>chunkShift][i&(chunkSize-1)] is poset node i; detached nodes
	// leave zero records (nil Prof), which the expansion never reaches.
	chunks [][]SnapNode
}

const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift
)

// SnapNode mirrors one canonical node for expansion.
//
//genas:frozen
type SnapNode struct {
	// Prof is the node's representative profile, evaluated when the
	// expansion considers descending into this node.
	Prof *predicate.Profile
	// Subs aliases the write side's append-only member array: appends land
	// past this snapshot's length and removals copy, so the header is
	// stable.
	Subs []Member
	// Kids holds the node indices hanging beneath this node (a copy — the
	// write side re-links kid lists in place).
	Kids []int32
}

// Freeze returns Image as a pointer.
func (po *Poset) Freeze() *Snapshot {
	s := po.Image()
	return &s
}

// Image builds the frozen snapshot image of the current poset state: the
// last image with the records of the nodes touched since written afresh, each
// into a private copy of its chunk. A caller that publishes the image inside
// a record of its own embeds the value, so a churn op publishes one object.
//
//genas:builder
func (po *Poset) Image() Snapshot {
	po.ensureLinked()
	chunks := make([][]SnapNode, (len(po.nodes)+chunkSize-1)>>chunkShift)
	copy(chunks, po.img)
	slices.Sort(po.dirty)
	private := -1 // the chunk copied last: dirty is sorted, so each is copied once
	for _, i := range po.dirty {
		c := int(i) >> chunkShift
		if c != private {
			// The last chunk is as long as the node table needs; a node
			// appended to it is dirty and so lengthens it here.
			fresh := make([]SnapNode, min(chunkSize, len(po.nodes)-c<<chunkShift))
			copy(fresh, chunks[c])
			chunks[c], private = fresh, c
		}
		rec := &chunks[c][i&(chunkSize-1)]
		n := po.nodes[i]
		if n == nil {
			*rec = SnapNode{}
			continue
		}
		*rec = SnapNode{Prof: &n.rep, Subs: n.subs}
		if len(n.kids) > 0 {
			rec.Kids = make([]int32, len(n.kids))
			for j, k := range n.kids {
				rec.Kids[j] = k.idx
			}
		}
	}
	po.img, po.dirty = chunks, po.dirty[:0]
	return Snapshot{chunks: chunks}
}

// Walk is one pooled expansion walk over an image: the accepted nodes, their
// generation-stamped visit marks, the automata's accumulator for parked
// profiles (tree.MatchAppend) and the operations spent.
type Walk struct {
	s     *Snapshot
	nodes []int32
	mark  []uint32
	gen   uint32
	acc   []int32
	ops   int
}

var walkPool = sync.Pool{New: func() any { return new(Walk) }}

// reset prepares the walk for a snapshot of n nodes: grows the mark array
// when needed and advances the generation, clearing marks only on
// wraparound. Kept out of the hot function so its allocations stay off the
// steady-state path.
func (w *Walk) reset(n int) {
	if len(w.mark) < n {
		w.mark = make([]uint32, n)
		w.gen = 0
	}
	w.gen++
	if w.gen == 0 {
		clear(w.mark)
		w.gen = 1
	}
	w.nodes, w.ops = w.nodes[:0], 0
}

// Slots returns the length of the node table the image mirrors, holes
// included, rounded up to whole chunks: what a walk's visit marks must span.
func (s *Snapshot) Slots() int { return len(s.chunks) << chunkShift }

// at returns the record of poset node i.
func (s *Snapshot) at(i int32) *SnapNode { return &s.chunks[i>>chunkShift][i&(chunkSize-1)] }

// Expand is a walk seeded with matched, slots of t that t2n maps to poset
// nodes, appending each accepted member's id to dst where Collect appends the
// member. The second result counts the descents.
//
//genas:hotpath
func (s *Snapshot) Expand(vals []float64, matched []int32, t2n []int32, t *tree.Tree, dst []predicate.ID) ([]predicate.ID, int) {
	w := s.Walk()
	w.seed(matched, t2n)
	if need := len(dst) + w.descend(vals); need > cap(dst) {
		dst = append(make([]predicate.ID, 0, need), dst...)
	}
	for _, ni := range w.nodes {
		for _, m := range s.at(ni).Subs {
			dst = append(dst, m.Profile().ID)
		}
	}
	return dst, w.end()
}

// Walk starts one expansion walk over the image. Each automaton over some
// of the poset's roots seeds it with the roots it matched, and Collect
// descends from all of them at once.
//
//genas:hotpath
func (s *Snapshot) Walk() *Walk {
	w := walkPool.Get().(*Walk)
	w.s = s
	w.reset(s.Slots())
	return w
}

// Seed filters one event through t, an automaton over roots of the walk's
// image whose slots t2n maps to poset nodes, and marks the roots it reached.
// The tree collects parked profiles into the walk's pooled accumulator.
//
//genas:hotpath
func (w *Walk) Seed(vals []float64, t *tree.Tree, t2n []int32) {
	matched, acc, ops := t.MatchAppend(vals, w.acc[:0])
	w.acc, w.ops = acc, w.ops+ops
	w.seed(matched, t2n)
}

// Collect ends the walk: it descends from every seeded root and appends the
// members of every accepted node to dst. The second result is the automata's
// comparisons plus the descents. dst grows at most once, to the exact total,
// so a match allocates nothing beyond dst's growth once the pool is warm.
//
//genas:hotpath
func (w *Walk) Collect(vals []float64, dst []Member) ([]Member, int) {
	if need := len(dst) + w.descend(vals); need > cap(dst) {
		dst = append(make([]Member, 0, need), dst...)
	}
	for _, ni := range w.nodes {
		dst = append(dst, w.s.at(ni).Subs...)
	}
	return dst, w.end()
}

// end returns the walk to its pool, keeping no image, and its operations.
func (w *Walk) end() (ops int) {
	ops, w.s = w.ops, nil
	walkPool.Put(w)
	return ops
}

// seed lists the poset nodes of the matched tree slots on w.nodes, each once.
//
//genas:hotpath
func (w *Walk) seed(matched []int32, t2n []int32) {
	for _, pi := range matched {
		if ni := t2n[pi]; w.mark[ni] != w.gen {
			w.mark[ni] = w.gen
			w.nodes = append(w.nodes, ni)
		}
	}
}

// descend lists on w.nodes the poset nodes the seeded roots accept, adds the
// descents to w.ops and returns the accepted nodes' member total, so that the
// caller grows its result once. It re-evaluates each child's representative
// against the event — covering guarantees a child that fails can have no
// matching descendant — and marks visited nodes so DAG diamonds and
// multi-root overlaps list each node once.
//
//genas:hotpath
func (w *Walk) descend(vals []float64) (total int) {
	s, descents := w.s, 0
	for i := 0; i < len(w.nodes); i++ {
		n := s.at(w.nodes[i])
		total += len(n.Subs)
		for _, ki := range n.Kids {
			if w.mark[ki] == w.gen {
				continue
			}
			w.mark[ki] = w.gen
			descents++
			if s.at(ki).Prof.Matches(vals) {
				w.nodes = append(w.nodes, ki)
			}
		}
	}
	w.ops += descents
	return total
}
