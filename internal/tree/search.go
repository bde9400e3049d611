package tree

import (
	"math"
	"math/bits"

	"genas/internal/schema"
)

// Match filters one event (values indexed by schema attribute) through the
// automaton. It returns the dense indices of all matched profiles and the
// number of comparison operations spent. The returned slice may alias tree
// internals and must not be mutated. Profiles parked at the nodes on the path
// (View.Extra) are collected as the walk passes them; they match even when the
// walk later dead-ends in a D₀ gap (they are don't-care below their node). So
// the parked profiles come first, and the order is otherwise unspecified; no
// index is listed twice. Match collects them into a fresh slice; MatchAppend
// takes the caller's.
func (t *Tree) Match(vals []float64) (matched []int32, ops int) {
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
func (t *Tree) MatchAppend(vals []float64, acc []int32) (matched, grown []int32, ops int) {
	s, id, start, last := &t.st, t.root, len(acc), len(t.attrOrder)-1
	for l := 0; ; l++ {
		n := s.nodes.at(id)
		if n.nParked > 0 {
			acc = append(acc, s.ints.run(n.parked, int(n.nParked))...)
		}
		edges := n.edgeRun(s)
		ei, stepOps := probe(edges, s.ints.run(n.layout, layoutLen(n.nSub)), int(n.nSub), vals[n.attr])
		ops += stepOps
		var leaf []int32 // a D₀ gap matches nothing below
		if ei >= 0 {
			to := edges[ei].To
			if l < last {
				id = to
				continue
			}
			leaf = t.Leaf(to)
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
	s, id, last := &t.st, t.root, len(t.attrOrder)-1
	for l := 0; ; l++ {
		n := s.nodes.at(id)
		if n.nParked > 0 {
			return true
		}
		edges := n.edgeRun(s)
		ei, _ := probe(edges, s.ints.run(n.layout, layoutLen(n.nSub)), int(n.nSub), vals[n.attr])
		if ei < 0 {
			return false
		}
		if l == last {
			return true // a leaf set is never empty
		}
		id = edges[ei].To
	}
}

// edgeRun returns the node's edges in the store s.
func (n *Node) edgeRun(s *store) []Edge {
	ne := int(n.nSub)
	if n.trail {
		ne++
	}
	return s.edges.run(n.edges, ne)
}

// interpMin is the subrange edges from which a node is wide: searched by
// interpolation, with no probe tree to lay out, weigh or re-lay.
const interpMin = 16

// layoutLen returns the length of the probe tree of a node of nSub subrange
// edges: an entry per edge, none on a wide node.
func layoutLen(nSub int32) int {
	if nSub >= interpMin {
		return 0
	}
	return int(nSub)
}

// probe is the node search of a node whose edges are edges, the first nSub
// of them subrange edges in natural order: down layout, its probe tree, on a
// narrow node, and on a wide one, whose layout is empty, by interpolation
// (guess) for bits.Len(nSub) probes, then by bisection. It compares v with
// one edge's interval per probe — below, inside or above — and after a miss
// tests the trailing complement or star edge, which holds what else the
// domain holds (event.Validate admits domain values only, so its bounds
// decide). Each comparison is one operation; nothing else counts.
//
//genas:hotpath
func probe(edges []Edge, layout []int32, nSub int, v float64) (edge, ops int) {
	lo, hi := 0, nSub-1
	if nSub < interpMin {
		for pos := 0; lo <= hi; {
			r := int(layout[pos])
			ops++
			switch e := &edges[r]; {
			case e.after(v):
				pos, hi = pos+1, r-1
			case e.before(v):
				pos, lo = pos+1+r-lo, r+1
			default:
				return r, ops
			}
		}
	} else {
		for steps := bits.Len(uint(nSub)); lo <= hi; steps-- {
			r := (lo + hi) / 2
			if steps > 0 {
				r = guess(edges, lo, hi, v)
			}
			ops++
			switch e := &edges[r]; {
			case e.after(v):
				hi = r - 1
			case e.before(v):
				lo = r + 1
			default:
				return r, ops
			}
		}
	}
	if nSub == len(edges) {
		return -1, ops
	}
	if dom := &edges[nSub]; dom.after(v) || dom.before(v) {
		return -1, ops + 1
	}
	return nSub, ops + 1
}

// guess returns the edge of lo..hi where interpolation puts v: lo where v ≤ a,
// edge lo's lower bound, hi where v ≥ b, edge hi's upper one, else lo +
// ⌊(hi−lo+1)·(v−a)/(b−a)⌋, at most hi. It never falls as v rises.
func guess(edges []Edge, lo, hi int, v float64) int {
	a, b := edges[lo].Lo, edges[hi].Hi
	switch {
	case v <= a:
		return lo
	case v >= b:
		return hi
	}
	return lo + min(int(float64(hi-lo+1)*(v-a)/(b-a)), hi-lo)
}

// probe is the node search of the view.
func (n *View) probe(v float64) (edge, ops int) { return probe(n.edges, n.layout, int(n.nSubrange), v) }

// inside returns a value of the non-empty interval iv.
func inside(iv Interval) float64 {
	switch {
	case !iv.LoOpen:
		return iv.Lo
	case !iv.HiOpen:
		return iv.Hi
	}
	return iv.Lo + (iv.Hi-iv.Lo)/2
}

// Pieces walks a node's partition of its attribute's domain in natural order.
// Only the subrange edges are stored; the pieces between them are derived from
// their neighbours and the domain's bounds — closed and atom-aligned on a
// discrete domain, open wherever the neighbour is closed on a numeric one — and
// all belong to the node's trailing edge or, without one, to D₀. On a wide
// node Tree.Pieces yields each piece in parts, cut where one of the
// interpolation's guesses moves on, so that the search takes the same probes
// on every value of a part.
type Pieces struct {
	Iv   Interval
	Edge int // index into View.Edges(), or −1 for a D₀ gap
	n    View
	dom  Interval
	unit float64 // the atom of a discrete domain: 1, else 0
	gaps int     // the gaps' edge
	at   int     // the next step: 2i is the gap below edge i, 2i+1 the edge
	// A walk in parts yields whole, the piece, from rest, where left is set.
	parts, left bool
	whole, rest Interval
}

// pieces starts a walk over the node's partition of dom, its attribute's domain.
func (n *View) pieces(dom schema.Domain) Pieces {
	p := Pieces{n: *n, dom: dom.Interval(), gaps: -1}
	if dom.Kind() != schema.KindNumeric {
		p.unit = 1
	}
	if int(n.nSubrange) < len(n.edges) {
		p.gaps = int(n.nSubrange)
	}
	return p
}

// Pieces walks n's partition for the analytic evaluator (selectivity package),
// so that analytic and empirical operation counts share one cost model: on a
// wide node, in parts of one cost each.
func (t *Tree) Pieces(n View) Pieces {
	p := n.pieces(t.schema.At(int(n.Attr)).Domain)
	p.parts = n.nSubrange >= interpMin
	return p
}

// Node returns the node whose partition p walks.
func (p *Pieces) Node() View { return p.n }

// Next advances to the next piece, or part of one, and reports whether there
// is one.
func (p *Pieces) Next() bool {
	if p.left {
		p.Iv = p.carve()
		return true
	}
	edges := p.n.edges[:p.n.nSubrange]
	for ; p.at <= 2*len(edges); p.at++ {
		i := p.at / 2
		if p.at&1 == 1 {
			p.Iv, p.Edge = edges[i].Iv(), i
		} else {
			g := p.dom
			if i > 0 {
				g.Lo, g.LoOpen = edges[i-1].Hi+p.unit, p.unit == 0 && edges[i-1].open&openHi == 0
			}
			if i < len(edges) {
				g.Hi, g.HiOpen = edges[i].Lo-p.unit, p.unit == 0 && edges[i].open&openLo == 0
			}
			if g.Empty() {
				continue
			}
			p.Iv, p.Edge = g, p.gaps
		}
		p.at++
		if p.parts {
			p.whole, p.rest = p.Iv, p.Iv
			p.Iv = p.carve()
		}
		return true
	}
	return false
}

// carve cuts the next part off the rest of a wide node's piece: from the
// rest's low end to the first value on which one of the search's guesses
// moves on. Every probe compares a value of the piece with the same outcome,
// so the search's ranges, and with them its guesses, hold over the part.
func (p *Pieces) carve() Interval {
	edges, at := p.n.edges, inside(p.whole)
	v, next := p.rest.Lo, math.Inf(1)
	if p.rest.LoOpen {
		v = math.Nextafter(v, next)
	}
	for lo, hi, steps := 0, int(p.n.nSubrange)-1, bits.Len(uint(p.n.nSubrange)); steps > 0 && lo <= hi; steps-- {
		r := guess(edges, lo, hi, v)
		if a, b := edges[lo].Lo, edges[hi].Hi; r < hi {
			// The least value guessed above r, an atom on a discrete domain.
			u := a + float64(r-lo+1)*(b-a)/float64(hi-lo+1)
			if p.unit > 0 {
				u = math.Ceil(u)
			}
			for guess(edges, lo, hi, u) <= r {
				u = p.step(u, 1)
			}
			for guess(edges, lo, hi, p.step(u, -1)) > r {
				u = p.step(u, -1)
			}
			next = min(next, u)
		}
		switch e := &edges[r]; {
		case e.after(at):
			hi = r - 1
		case e.before(at):
			lo = r + 1
		default:
			lo = hi + 1
		}
	}
	part := p.rest
	if p.left = next < part.Hi || next == part.Hi && !part.HiOpen; p.left {
		part.Hi, part.HiOpen = next-p.unit, p.unit == 0
		p.rest.Lo, p.rest.LoOpen = next, false
	}
	return part
}

// step returns the value next to u above it (dir 1) or below it (−1): the
// next atom on a discrete domain, else the next float.
func (p *Pieces) step(u, dir float64) float64 {
	if p.unit > 0 {
		return u + dir
	}
	return math.Nextafter(u, dir*math.Inf(1))
}

// Cost returns the edge the node's probe takes, and the comparisons it spends,
// on an event whose value falls into the current piece, without walking the
// tree: it runs the probe Match runs, so analytic and empirical costs agree by
// construction.
func (p *Pieces) Cost() (edge, ops int) {
	return p.n.probe(inside(p.Iv))
}
