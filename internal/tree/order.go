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
// positions over all pieces (including D₀ gaps, which non-matching events
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
			n.applyOrder(t.schema.At(int(n.Attr)).Domain, vo, t.strategy, &sc, &a)
		}
	}
}

// orderScratch is applyOrder's working set, reused from node to node: the
// lookup table under assembly, the defined-order entries (one per subrange or
// gap bucket, one for all the complement pieces together) and the region handed
// to Rank and Mass; for the probe tree, the prefix sums of the weights and an
// optimal subtree's tables.
type orderScratch struct {
	bks       []bucket
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

// applyOrder lays the node out in storage of a: under SearchWeighted the probe
// tree alone, under the scans the lookup table — the pieces of the node's
// partition of dom, ranked — with the scan order and the edges' positions.
//
//genas:builder
func (n *Node) applyOrder(dom schema.Domain, vo ValueOrder, strategy Search, sc *orderScratch, a *arena) {
	if strategy == SearchWeighted {
		sc.weigh(n, dom, vo)
		n.scan, n.tab = sc.lay(a.layout(int(n.nSubrange))[:0], 0, int(n.nSubrange)), nil
		return
	}
	bks, entries, comp := sc.bks[:0], sc.entries[:0], sc.comp[:0]
	compEdge := -1
	for p := n.pieces(dom); p.Next(); {
		bks = append(bks, bucket{iv: p.Iv, edge: p.Edge})
		if p.Edge >= int(n.nSubrange) {
			comp = append(comp, p.Iv)
			compEdge = p.Edge
			continue
		}
		sc.one[0] = p.Iv
		entries = append(entries, orderEntry{score: vo.Rank(int(n.Attr), sc.one[:]), nat: len(bks) - 1, edge: p.Edge})
	}
	if compEdge >= 0 {
		entries = append(entries, orderEntry{score: vo.Rank(int(n.Attr), comp), nat: len(bks), edge: compEdge})
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

	n.tabulate(bks, entries, dom.Kind() != schema.KindNumeric, a)
	sc.bks, sc.entries, sc.comp = bks[:0], entries[:0], comp[:0]
}

// tabulate commits a scan's layout to storage of a: the lookup table bks, each
// bucket at the position the sorted entries give it (the complement's entry
// stands for all its buckets), the scan order and the edges' positions.
//
//genas:builder
func (n *Node) tabulate(bks []bucket, entries []orderEntry, discrete bool, a *arena) {
	orderPos := a.layout(len(n.edges))
	n.scan = a.layout(len(n.edges))[:0]
	for pos, e := range entries {
		if e.nat < len(bks) {
			bks[e.nat].orderPos = pos + 1
		} else {
			for bi := range bks {
				if bks[bi].edge == e.edge {
					bks[bi].orderPos = pos + 1
				}
			}
		}
		if e.edge >= 0 {
			orderPos[e.edge] = int32(pos + 1)
			n.scan = append(n.scan, int32(e.edge))
		}
	}
	n.tab = a.table(bks, orderPos, discrete)
}

// ScanOrder returns the edge indices in scan order or probe-tree preorder (copy).
func (n *Node) ScanOrder() []int32 { return slices.Clone(n.scan) }
