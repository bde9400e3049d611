package tree

import (
	"math"
	"slices"

	"genas/internal/schema"
)

// Interval aliases schema.Interval so bucket regions read naturally in the
// exported ordering and analytics APIs.
type Interval = schema.Interval

// RankFunc scores one bucket region of an attribute for value reordering.
// The region of a complement edge is the union of several intervals; all
// other buckets are single intervals. Higher scores sort earlier when the
// order is descending.
//
// The selectivity package supplies rank functions for the paper's measures:
// natural order, V1 (event probability P_e), V2 (profile probability P_p)
// and V3 (P_e·P_p).
type RankFunc func(attr int, region []Interval) float64

// ValueOrder describes one of the paper's value orderings: a scoring
// function plus a direction ("The prototype supports the following value
// orders (either descending or ascending)", §4.2).
type ValueOrder struct {
	Name string
	Rank RankFunc
	// Descending scans high scores first (the usual choice for the
	// probability measures V1–V3).
	Descending bool
	// Mass is the event probability P_e of a region (additive over regions),
	// the weight a SearchWeighted probe tree balances; the scans ignore it.
	// Nil weighs a region by its domain measure: uniform P_e.
	Mass RankFunc
}

// NaturalOrder returns the ascending natural order implied by the domain.
func NaturalOrder() ValueOrder {
	return ValueOrder{
		Name: "natural",
		Rank: func(_ int, region []Interval) float64 { return regionLo(region) },
	}
}

// regionLo returns the smallest lower bound of a region.
func regionLo(region []Interval) float64 {
	lo := math.Inf(1)
	for _, iv := range region {
		if iv.Lo < lo {
			lo = iv.Lo
		}
	}
	return lo
}

// ApplyValueOrder recomputes every node's defined order: the lookup-table
// positions over all buckets (including D₀ gaps, which non-matching events
// would occupy — Example 2 ranks the zero-subdomain region x₀ alongside the
// stored values) and the edge scan order — under SearchWeighted, the probe
// tree for vo.Mass. Structure is untouched; this is
// the cheap half of restructuring (the expensive half, attribute reordering,
// requires Build with a different order).
func (t *Tree) ApplyValueOrder(vo ValueOrder) {
	var sc orderScratch
	a := arena{grow: true}
	for _, level := range t.ensureMeta().levels {
		for _, n := range level {
			n.applyOrder(vo, t.strategy, &sc, &a)
		}
	}
}

// orderScratch is applyOrder's working set, reused from node to node: the
// defined-order entries (one per subrange or gap bucket, one for all the
// complement pieces together) and the region handed to Rank and Mass; for the
// probe tree, the prefix sums of the weights and an optimal subtree's tables.
type orderScratch struct {
	entries   []orderEntry
	comp      []Interval
	one       [1]Interval
	cum, cost []float64
	root      []int32
}

type orderEntry struct {
	score float64
	nat   int // natural tiebreak: bucket index, or len(buckets) for the complement entry
	edge  int
}

// applyOrder ranks the node's buckets and rebuilds scan/orderPos, or lays out
// the probe tree that takes their place under SearchWeighted, in storage of a.
//
//genas:builder
func (n *Node) applyOrder(vo ValueOrder, strategy Search, sc *orderScratch, a *arena) {
	if strategy == SearchWeighted {
		sc.weigh(n, vo)
		n.scan, n.orderPos = sc.lay(a.reserve(n.nSubrange)[:0], 0, n.nSubrange), nil
		return
	}
	entries, comp := sc.entries[:0], sc.comp[:0]
	compEdge := -1
	for bi, b := range n.buckets {
		if b.edge >= 0 && n.edges[b.edge].Kind != EdgeSubrange {
			comp = append(comp, b.iv)
			compEdge = b.edge
			continue
		}
		sc.one[0] = b.iv
		entries = append(entries, orderEntry{score: vo.Rank(n.Attr, sc.one[:]), nat: bi, edge: b.edge})
	}
	if compEdge >= 0 {
		entries = append(entries, orderEntry{score: vo.Rank(n.Attr, comp), nat: len(n.buckets), edge: compEdge})
	}
	slices.SortFunc(entries, func(x, y orderEntry) int {
		if x.score != y.score {
			if (x.score > y.score) == vo.Descending {
				return -1
			}
			return 1
		}
		// "The order of values with equal selectivity is arbitrary (such as
		// the natural order of the values)."
		return x.nat - y.nat
	})

	n.orderPos = a.reserve(len(n.edges))
	n.scan = a.reserve(len(n.edges))[:0]
	for pos, e := range entries {
		if e.nat < len(n.buckets) {
			n.buckets[e.nat].orderPos = pos + 1
		} else {
			for bi := range n.buckets {
				if n.buckets[bi].edge == compEdge {
					n.buckets[bi].orderPos = pos + 1
				}
			}
		}
		if e.edge >= 0 {
			n.orderPos[e.edge] = pos + 1
			n.scan = append(n.scan, e.edge)
		}
	}
	sc.entries, sc.comp = entries, comp
}

// ScanOrder returns the edge indices in scan order or probe-tree preorder (copy).
func (n *Node) ScanOrder() []int { return append([]int(nil), n.scan...) }

// OrderPositions returns the defined-order position of every edge (copy).
func (n *Node) OrderPositions() []int { return append([]int(nil), n.orderPos...) }
