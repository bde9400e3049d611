package tree

import "genas/internal/schema"

// Match filters one event (values indexed by schema attribute) through the
// automaton. It returns the dense indices of all matched profiles and the
// number of comparison operations spent. The returned slice may alias tree
// internals and must not be mutated. Profiles parked at the nodes on the path
// (Node.Extra) are collected as the walk passes them; they match even when the
// walk later dead-ends in a D₀ gap (they are don't-care below their node). So
// the parked profiles come first, and the order is otherwise unspecified; no
// index is listed twice. Match collects them into a fresh slice; MatchAppend
// takes the caller's.
func (t *Tree) Match(vals []float64) (matched []int, ops int) {
	matched, _, ops = t.MatchAppend(vals, nil)
	return matched, ops
}

// MatchAppend is Match with a caller-owned accumulator for the parked
// profiles: when the path carries extras, they and then the leaf set are
// appended to acc, and matched is the appended part. Otherwise matched is the
// leaf set itself, owned by the tree and read-only, and acc is untouched. acc
// comes back, possibly grown, for the caller to reuse; it never aliases a leaf
// set, which MatchAppend neither appends into nor keeps.
//
//genas:hotpath
func (t *Tree) MatchAppend(vals []float64, acc []int) (matched, grown []int, ops int) {
	n, start := t.root, len(acc)
	for {
		if len(n.extra) > 0 {
			acc = append(acc, n.extra...)
		}
		ei, stepOps := n.probe(vals[n.Attr])
		ops += stepOps
		var leaf []int // a D₀ gap matches nothing below
		if ei >= 0 {
			e := &n.edges[ei]
			if e.Child != nil {
				n = e.Child
				continue
			}
			leaf = *e.leaf
		}
		if len(acc) == start {
			return leaf, acc, ops
		}
		acc = append(acc, leaf...)
		return acc[start:], acc, ops
	}
}

// MatchAny reports whether the event matches at least one profile: Match's
// walk, stopping at the first hit instead of collecting, so it never
// allocates.
func (t *Tree) MatchAny(vals []float64) bool {
	n := t.root
	for {
		if len(n.extra) > 0 {
			return true
		}
		ei, _ := n.probe(vals[n.Attr])
		if ei < 0 {
			return false
		}
		if n = n.edges[ei].Child; n == nil {
			return true // a leaf set is never empty
		}
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
	return n.pieces(t.schema.At(int(n.Attr)).Domain)
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
		p.at++
		return true
	}
	return false
}

// Cost returns the edge the node's probe takes, and the comparisons it spends,
// on an event whose value falls into the current piece, without walking the
// tree: it runs the probe Match runs, so analytic and empirical costs agree by
// construction.
func (p *Pieces) Cost() (edge, ops int) {
	return p.n.probe(inside(p.Iv))
}
