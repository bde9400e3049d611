package tree

import "genas/internal/schema"

// Operation counting convention (calibrated against the paper's Examples 2–5,
// see EXPERIMENTS.md):
//
//   - examining one edge during the ordered linear scan costs 1 operation,
//     whatever its kind (subrange, complement "(*)", or don't-care "*");
//   - the scan stops early by the lookup-table rule of Example 5: once an
//     edge with a defined-order position greater than the searched value's
//     position has been examined, the value cannot be in the node;
//   - each binary-search probe costs 1 operation; taking the complement or
//     star edge after the probes costs 1 more (the edge must still be
//     tested), matching the linear convention where those edges occupy a
//     scan slot.
//
// Locating the searched value's bucket (the "lookup table" consultation) is
// bookkeeping and costs nothing, as in the paper's prototype — for the five
// strategies of the reproduction; SearchWeighted runs what it counts (probe).

// bucketOf returns the index of the lookup table's bucket containing v (every
// domain value is in exactly one bucket). Returns −1 for values outside the
// domain.
func (n *Node) bucketOf(v float64) int {
	lo, hi := 0, len(n.tab.buckets)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		b := n.tab.buckets[mid].iv
		switch {
		case b.Contains(v):
			return mid
		case b.Before(v):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return -1
}

// step runs the node's search for value v and returns the chosen edge index
// (−1 for a non-match) and the operations spent.
func (n *Node) step(v float64, strategy Search) (edge, ops int) {
	if strategy == SearchWeighted {
		return n.probe(v)
	}
	bi := n.bucketOf(v)
	if bi < 0 {
		// Outside the domain: reject without touching the structure.
		return -1, 0
	}
	return n.dispatch(n.tab.buckets[bi], strategy)
}

// dispatch routes one located bucket through the configured strategy.
func (n *Node) dispatch(target bucket, strategy Search) (int, int) {
	switch strategy {
	case SearchBinary:
		return n.stepBinary(target)
	case SearchInterpolation:
		return n.stepInterpolation(target)
	case SearchHash:
		return n.stepHash(target)
	case SearchLinearNoStop:
		return n.stepLinear(target, false)
	default:
		return n.stepLinear(target, true)
	}
}

// stepLinear scans edges in defined order. The early-termination rule
// compares defined-order positions via the lookup table (Example 5).
func (n *Node) stepLinear(target bucket, earlyStop bool) (int, int) {
	ops := 0
	for _, ei := range n.scan {
		ops++
		if int(ei) == target.edge {
			return target.edge, ops
		}
		if earlyStop && int(n.tab.orderPos[ei]) > target.orderPos {
			// The examined edge already lies past the searched value in the
			// defined order: the node cannot contain it.
			return -1, ops
		}
	}
	return -1, ops
}

// stepBinary performs binary search over the naturally ordered subrange
// edges; a miss falls through to the complement/star edge when present.
func (n *Node) stepBinary(target bucket) (int, int) {
	ops := 0
	lo, hi := 0, int(n.nSubrange)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		ops++
		e := &n.edges[mid]
		switch {
		case target.edge == mid:
			return mid, ops
		case edgeBelowTarget(e, target):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	// Not among the subranges: take the trailing complement/star edge if one
	// exists (one more operation to test it).
	return n.missTail(target, ops)
}

// missTail resolves a failed subrange search: the trailing complement or
// star edge, if any, is tested for one more operation.
func (n *Node) missTail(target bucket, ops int) (int, int) {
	if int(n.nSubrange) < len(n.edges) {
		ops++
		ei := len(n.edges) - 1
		if target.edge == ei {
			return ei, ops
		}
		return -1, ops
	}
	return -1, ops
}

// edgeBelowTarget reports whether subrange edge e lies entirely below the
// target bucket on the natural axis.
func edgeBelowTarget(e *Edge, target bucket) bool {
	return e.Iv.Hi < target.iv.Lo ||
		(e.Iv.Hi == target.iv.Lo && (e.Iv.HiOpen || target.iv.LoOpen))
}

// stepInterpolation performs interpolation search over the naturally
// ordered subrange edges, probing by linear position estimate on the edge
// lower bounds (the classic sub-logarithmic strategy for near-uniform
// layouts; paper §5 outlook).
func (n *Node) stepInterpolation(target bucket) (int, int) {
	ops := 0
	lo, hi := 0, int(n.nSubrange)-1
	key := target.iv.Lo
	for lo <= hi {
		var mid int
		loKey, hiKey := n.edges[lo].Iv.Lo, n.edges[hi].Iv.Lo
		if hiKey <= loKey || key <= loKey {
			mid = lo
		} else if key >= hiKey {
			mid = hi
		} else {
			mid = lo + int(float64(hi-lo)*(key-loKey)/(hiKey-loKey))
			if mid < lo {
				mid = lo
			}
			if mid > hi {
				mid = hi
			}
		}
		ops++
		e := &n.edges[mid]
		switch {
		case target.edge == mid:
			return mid, ops
		case edgeBelowTarget(e, target):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return n.missTail(target, ops)
}

// stepHash models an idealized hash lookup. On discrete domains a per-value
// table resolves any bucket — subrange edge, complement piece or gap — in a
// single probe. Continuous domains cannot hash raw values; the strategy
// degrades to binary search there.
func (n *Node) stepHash(target bucket) (int, int) {
	if !n.tab.discrete {
		return n.stepBinary(target)
	}
	if target.edge >= 0 {
		return target.edge, 1
	}
	return -1, 1
}

// Match filters one event (values indexed by schema attribute) through the
// automaton. It returns the dense indices of all matched profiles and the
// number of comparison operations spent. The returned slice may alias tree
// internals and must not be mutated. Profiles parked in node extra sets by
// incremental inserts are collected along the path; they match even when the
// walk later dead-ends in a D₀ gap (they are don't-care below their node).
func (t *Tree) Match(vals []float64) (matched []int, ops int) {
	n := t.root
	var acc []int // lazily allocated: only trees with incremental inserts carry extras
	for {
		if len(n.extra) > 0 {
			acc = append(acc, n.extra...)
		}
		v := vals[n.Attr]
		ei, stepOps := n.step(v, t.strategy)
		ops += stepOps
		if ei < 0 {
			return acc, ops
		}
		e := &n.edges[ei]
		if e.Child == nil {
			if acc == nil {
				return *e.leaf, ops
			}
			return append(acc, *e.leaf...), ops
		}
		n = e.Child
	}
}

// MatchAny reports whether the event matches at least one live (not
// tombstoned) profile: Match's walk, stopping at the first hit instead of
// collecting, so it never allocates.
func (t *Tree) MatchAny(vals []float64) bool {
	n := t.root
	for {
		if t.anyLive(n.extra) {
			return true
		}
		ei, _ := n.step(vals[n.Attr], t.strategy)
		if ei < 0 {
			return false
		}
		e := &n.edges[ei]
		if e.Child == nil {
			return t.anyLive(*e.leaf)
		}
		n = e.Child
	}
}

// anyLive reports whether ps holds a profile index that is not tombstoned.
func (t *Tree) anyLive(ps []int) bool {
	if t.deadCount == 0 {
		return len(ps) > 0
	}
	for _, pi := range ps {
		if !t.Dead(pi) {
			return true
		}
	}
	return false
}

// MatchPath is Match but additionally reports the per-level operations,
// which the per-profile accounting of Fig. 5(b) needs.
func (t *Tree) MatchPath(vals []float64) (matched []int, ops int, perLevel []int) {
	perLevel = make([]int, 0, t.schema.N())
	n := t.root
	var acc []int
	for {
		if len(n.extra) > 0 {
			acc = append(acc, n.extra...)
		}
		v := vals[n.Attr]
		ei, stepOps := n.step(v, t.strategy)
		ops += stepOps
		perLevel = append(perLevel, stepOps)
		if ei < 0 {
			return acc, ops, perLevel
		}
		e := &n.edges[ei]
		if e.Child == nil {
			if acc == nil {
				return e.Leaf(), ops, perLevel
			}
			return append(acc, e.Leaf()...), ops, perLevel
		}
		n = e.Child
	}
}

// Pieces walks a node's partition of its attribute's domain in natural order.
// Only the subrange edges are stored; the pieces between them are derived from
// their neighbours and the domain's bounds — closed and atom-aligned on a
// discrete domain, open wherever the neighbour is closed on a numeric one — and
// all belong to the node's trailing edge or, without one, to D₀.
type Pieces struct {
	Iv   Interval
	Edge int // index into Node.Edges(), or −1 for a D₀ gap
	n    *Node
	dom  Interval
	unit float64 // the atom of a discrete domain: 1, else 0
	gaps int     // the gaps' edge
	at   int     // the next step: 2i is the gap below edge i, 2i+1 the edge
	k    int     // pieces yielded: the current one is bucket k−1 of the lookup table
	// strategy is the search Cost runs (Tree.Pieces sets it).
	strategy Search
}

// pieces starts a walk over the node's partition of dom, its attribute's domain.
func (n *Node) pieces(dom schema.Domain) Pieces {
	p := Pieces{n: n, dom: dom.Interval(), gaps: -1}
	if dom.Kind() != schema.KindNumeric {
		p.unit = 1
	}
	if int(n.nSubrange) < len(n.edges) {
		p.gaps = int(n.nSubrange)
	}
	return p
}

// Pieces walks n's partition for the analytic evaluator (selectivity package),
// so that analytic and empirical operation counts share one cost model.
func (t *Tree) Pieces(n *Node) Pieces {
	p := n.pieces(t.schema.At(int(n.Attr)).Domain)
	p.strategy = t.strategy
	return p
}

// Next advances to the next piece and reports whether there is one.
func (p *Pieces) Next() bool {
	edges := p.n.edges[:p.n.nSubrange]
	for ; p.at <= 2*len(edges); p.at++ {
		i := p.at / 2
		if p.at&1 == 1 {
			p.Iv, p.Edge = edges[i].Iv, i
		} else {
			g := p.dom
			if i > 0 {
				g.Lo, g.LoOpen = edges[i-1].Iv.Hi+p.unit, p.unit == 0 && !edges[i-1].Iv.HiOpen
			}
			if i < len(edges) {
				g.Hi, g.HiOpen = edges[i].Iv.Lo-p.unit, p.unit == 0 && !edges[i].Iv.LoOpen
			}
			if g.Empty() {
				continue
			}
			p.Iv, p.Edge = g, p.gaps
		}
		p.at, p.k = p.at+1, p.k+1
		return true
	}
	return false
}

// Cost returns the operations the tree's strategy spends on an event whose
// value falls into the current piece, without walking the tree. It shares the
// search implementations with step, so analytic and empirical costs agree by
// construction.
func (p *Pieces) Cost() (edge, ops int) {
	if p.strategy == SearchWeighted {
		return p.n.probe(inside(p.Iv))
	}
	return p.n.dispatch(p.n.tab.buckets[p.k-1], p.strategy)
}
