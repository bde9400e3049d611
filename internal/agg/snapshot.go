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
	Subs []SubRef
	// Kids holds the node indices hanging beneath this node (a copy — the
	// write side re-links kid lists in place).
	Kids []int32
}

// Freeze builds the frozen snapshot image of the current poset state: the
// last image with the records of the nodes touched since written afresh, each
// into a private copy of its chunk.
//
//genas:builder
func (po *Poset) Freeze() *Snapshot {
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
		*rec = SnapNode{Prof: n.rep, Subs: n.subs}
		if len(n.kids) > 0 {
			rec.Kids = make([]int32, len(n.kids))
			for j, k := range n.kids {
				rec.Kids[j] = k.idx
			}
		}
	}
	po.img, po.dirty = chunks, po.dirty[:0]
	return &Snapshot{chunks: chunks}
}

// expandScratch is the pooled walk state for Expand: the list of accepted
// nodes plus generation-stamped visit marks, so per-event expansion allocates
// nothing but its result once the pool is warm.
type expandScratch struct {
	nodes []int32
	mark  []uint32
	gen   uint32
}

var scratchPool = sync.Pool{New: func() any { return new(expandScratch) }}

// reset prepares the scratch for a snapshot of n nodes: grows the mark
// array when needed and advances the generation, clearing marks only on
// wraparound. Kept out of the hot function so its allocations stay off the
// steady-state path.
func (sc *expandScratch) reset(n int) {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.gen = 1
	}
	sc.nodes = sc.nodes[:0]
}

// Slots returns the length of the node table the image mirrors, holes
// included, rounded up to whole chunks: what a walk's visit marks must span.
func (s *Snapshot) Slots() int { return len(s.chunks) << chunkShift }

// at returns the record of poset node i.
func (s *Snapshot) at(i int32) *SnapNode { return &s.chunks[i>>chunkShift][i&(chunkSize-1)] }

// Expand translates the tree's matched slots into concrete subscription
// ids, appending to dst. matched holds dense indices into t (the canonical
// tree this snapshot was published with); t2n maps each tree slot to its
// poset node. From every live matched root the walk descends kid edges,
// re-evaluating each child's representative against the event — covering
// guarantees a child that fails can have no matching descendant — and marks
// visited nodes so DAG diamonds and multi-root overlaps emit each
// subscription once. The walk first lists the accepted nodes on its pooled
// scratch, so dst grows at most once, to the exact total, however many
// members and covered nodes a matched root brings. The second result counts
// the predicate evaluations spent descending, which the engine folds into its
// operation accounting.
//
//genas:hotpath
func (s *Snapshot) Expand(vals []float64, matched []int, t2n []int32, t *tree.Tree, dst []predicate.ID) ([]predicate.ID, int) {
	sc := scratchPool.Get().(*expandScratch)
	sc.reset(s.Slots())
	dead := t.HasDead()
	for _, pi := range matched {
		if dead && t.Dead(pi) {
			continue
		}
		ni := t2n[pi]
		if sc.mark[ni] == sc.gen {
			continue
		}
		sc.mark[ni] = sc.gen
		sc.nodes = append(sc.nodes, ni)
	}
	ops, total := 0, 0
	for i := 0; i < len(sc.nodes); i++ {
		n := s.at(sc.nodes[i])
		total += len(n.Subs)
		for _, ki := range n.Kids {
			if sc.mark[ki] == sc.gen {
				continue
			}
			sc.mark[ki] = sc.gen
			ops++
			if s.at(ki).Prof.Matches(vals) {
				sc.nodes = append(sc.nodes, ki)
			}
		}
	}
	if need := len(dst) + total; need > cap(dst) {
		dst = append(make([]predicate.ID, 0, need), dst...)
	}
	for _, ni := range sc.nodes {
		for _, sr := range s.at(ni).Subs {
			dst = append(dst, sr.ID)
		}
	}
	scratchPool.Put(sc)
	return dst, ops
}
