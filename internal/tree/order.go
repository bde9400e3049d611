package tree

import (
	"genas/internal/par"
	"genas/internal/schema"
)

// Interval aliases schema.Interval so the regions of a node's partition read
// naturally in the ordering and analytics APIs.
type Interval = schema.Interval

// RankFunc scores a region of an attribute's domain: the union of the
// intervals given. ValueOrder.Mass is one.
type RankFunc func(attr int, region []Interval) float64

// ValueOrder names the event distribution a node's probe tree is laid out
// for.
type ValueOrder struct {
	Name string
	// Mass is the event probability P_e of a region (additive over regions),
	// the weight a probe tree balances. Nil weighs a region by its domain
	// measure: uniform P_e.
	Mass RankFunc
}

// NaturalOrder returns the uniform weights, under which every probe tree is
// balanced by the domain measure of its pieces.
func NaturalOrder() ValueOrder { return ValueOrder{Name: "natural"} }

// orderScratch is applyOrder's working set, reused from node to node: the
// region handed to Mass, the prefix sums of the weights and the optimal
// tree's tables, and a directory's buckets of its edges' ends.
type orderScratch struct {
	one       [1]Interval
	cum, cost []float64
	root      []int32
	ends      []int32
}

// applyOrder lays the node out into the storage of n.layout, sized by
// layoutLen: a narrow node's probe tree over its subrange edges under the
// weights of vo on dom, a wide node's directory, which reads no weights.
//
//genas:builder
func (n *View) applyOrder(dom schema.Domain, vo ValueOrder, sc *orderScratch) {
	if n.nSubrange >= interpMin {
		directory(n.layout, n.edges[:n.nSubrange], unitOf(dom), sc)
		return
	}
	sc.weigh(n, dom, vo)
	n.layout = sc.lay(n.layout[:0], int(n.nSubrange))
}

// layOut lays out the nodes of t listed under vo, their layout storage
// sized: one parallel pass, a scratch per worker, inline for at most
// layGrain nodes.
func (t *Tree) layOut(vo ValueOrder, nodes []nodeAt) {
	w := par.Workers(len(nodes), layGrain)
	sc := make([]orderScratch, w)
	par.For(w, len(nodes), layGrain, func(w, i int) {
		n := t.Node(nodes[i].l, nodes[i].id)
		n.applyOrder(t.schema.At(int(n.Attr)).Domain, vo, &sc[w])
	})
}

// layGrain is the nodes a layOut worker claims at a time.
const layGrain = 64
