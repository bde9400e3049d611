package tree

import (
	"math"
	"slices"

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

// interpMin is the subrange edges from which a node is wide: searched
// through a bucket directory, which reads no weights, where a narrow node
// has a weighted probe tree.
const interpMin = 16

// A wide node's layout run is its directory: k buckets over the span of its
// subrange edges, from edge 0's low bound a to the last edge's high bound b,
// value v in bucket ⌊(v−a)·k/(b−a)⌋ (grid). A 16-bit entry per bucket, two to
// an int32, names the first edge that meets the bucket or, where none does,
// the first edge above it, and flags a bucket that lies wholly inside that
// edge, or wholly inside a gap. k is two buckets per edge, or one bucket over
// all of them where an edge index outgrows its 14 bits.
const (
	entryBits = 14
	entryMask = 1<<entryBits - 1
	inEdge    = 1 << entryBits
	inGap     = 2 << entryBits
)

// buckets returns the directory's buckets on a wide node of nSub subrange
// edges.
func buckets(nSub int) int {
	if nSub > entryMask+1 {
		return 1
	}
	return 2 * nSub
}

// layoutLen returns the length of the layout run of a node of nSub subrange
// edges: its probe tree, an entry per edge, or on a wide node its directory,
// two entries to a word.
func layoutLen(nSub int32) int {
	if nSub >= interpMin {
		return (buckets(int(nSub)) + 1) / 2
	}
	return int(nSub)
}

// grid places values into the k buckets of a wide node's directory over
// a..b. The lookup and the directory's build both place values with it, so
// the two agree to the last float.
type grid struct {
	a, b, scale float64 // scale is k/(b−a)
	k           int
}

// gridOf returns the grid of a wide node whose subrange edges are edges.
func gridOf(edges []Edge) grid {
	k, a, b := buckets(len(edges)), edges[0].Lo, edges[len(edges)-1].Hi
	return grid{a: a, b: b, scale: float64(k) / (b - a), k: k}
}

// slot returns the bucket of v: ⌊(v−a)·scale⌋, k−1 at b, −1 below a (or for
// NaN) and k above b. It never falls as v rises.
func (g *grid) slot(v float64) int {
	switch {
	case !(v >= g.a):
		return -1
	case v > g.b:
		return g.k
	}
	return min(int((v-g.a)*g.scale), g.k-1)
}

// entry returns the directory's entry of bucket i.
func entry(dir []int32, i int) int32 { return int32(uint32(dir[i>>1]) >> (16 * (i & 1)) & 0xFFFF) }

// probe is the node search of a node whose edges are edges, the first nSub
// of them subrange edges in natural order. A narrow node's layout is its
// probe tree; a wide one's is its directory, whose read of v's bucket
// answers a bucket wholly inside an edge or a gap and otherwise names the
// candidates, from the bucket's entry to the next bucket's, which it
// bisects. Either search compares v with one edge's interval per probe —
// below, inside or above — and after a miss tests the trailing complement or
// star edge, which holds what else the domain holds (event.Validate admits
// domain values only, so its bounds decide; on a discrete domain, atoms
// only, which are all a directory's flags answer for). Each comparison is
// one operation, and so is a wide node's directory read, as the paper's hash
// model charges it: ops = intervals compared + 1 per wide node visited.
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
		ops++ // the directory's read
		g := gridOf(edges[:nSub])
		switch i := g.slot(v); {
		case i < 0 || i == g.k:
			lo = hi + 1
		default:
			w := entry(layout, i)
			lo = int(w & entryMask)
			switch w &^ entryMask {
			case inEdge:
				return lo, ops
			case inGap:
				lo = hi + 1
			default:
				if i+1 < g.k {
					hi = min(hi, int(entry(layout, i+1)&entryMask))
				}
			}
		}
		for lo <= hi {
			r := (lo + hi) / 2
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

// directory writes into dir the directory of a wide node whose subrange edges
// are edges, on a domain whose atom is unit (1 on a discrete domain, else 0,
// a float), with sc's scratch. A first pass places each edge's lowest and
// highest value with the grid: the edge meets the buckets from the one to
// the other, and lies wholly over them but where the value next to an end,
// outside the edge, falls into that end's bucket. A second pass gives bucket
// i the first edge whose highest value lies in bucket i or above, and flags
// it by comparing i with that edge's buckets without a branch: an edit
// rebuilds the directory of every wide node it re-cuts, and branches on the
// buckets mispredict.
//
//genas:builder
func directory(dir []int32, edges []Edge, unit float64, sc *orderScratch) {
	g, n := gridOf(edges), int32(len(edges))
	sc.ends = slices.Grow(sc.ends[:0], int(3*n)+g.k+1)[:int(3*n)+g.k+1]
	low, first, last, ending := sc.ends[:n], sc.ends[n:2*n], sc.ends[2*n:3*n], sc.ends[3*n:]
	clear(ending)
	for e := range edges {
		lo, hi := edges[e].Lo, edges[e].Hi
		if edges[e].open&openLo != 0 {
			lo = step(lo, unit, 1)
		}
		if edges[e].open&openHi != 0 {
			hi = step(hi, unit, -1)
		}
		s, t := g.slot(lo), g.slot(hi)
		low[e] = int32(s)
		first[e] = int32(s + 1 - min(s-g.slot(step(lo, unit, -1)), 1))
		last[e] = int32(t - 1 + min(g.slot(step(hi, unit, 1))-t, 1))
		ending[t+1]++ // ending[i+1] counts the edges whose highest value lies in bucket i
	}
	clear(dir)
	done := int32(0) // the edges whose highest value lies below bucket i
	for i := range int32(g.k) {
		done += ending[i]
		e := min(done, n-1)
		gap := below(i, low[e]) | below(n-1, done)
		in := 1 ^ (below(i, first[e]) | below(last[e], i))
		dir[i>>1] |= int32(uint32(e)|gap*inGap|in*inEdge) << (16 * (i & 1))
	}
}

// below returns 1 where x < y and 0 elsewhere, for x and y far from the
// int32 bounds.
func below(x, y int32) uint32 { return uint32(x-y) >> 31 }

// step returns the value next to u above it (dir 1) or below it (−1): the
// next atom where unit is 1, else the next float, from u's bits, which count
// away from zero: math.Nextafter, which does not inline, added a sixth to an
// edit's time.
func step(u, unit, dir float64) float64 {
	switch {
	case unit > 0:
		return u + dir*unit
	case u == 0:
		return math.Copysign(math.SmallestNonzeroFloat64, dir)
	}
	b := math.Float64bits(u)
	return math.Float64frombits(b + uint64(int64(dir)*(1+2*(int64(b)>>63))))
}

// unitOf returns the atom of dom: 1 on a discrete domain, else 0.
func unitOf(dom schema.Domain) float64 {
	if dom.Kind() != schema.KindNumeric {
		return 1
	}
	return 0
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
// node Tree.Pieces yields each piece in parts, cut at the directory's bucket
// bounds, so that the search takes the same probes on every value of a part.
type Pieces struct {
	Iv   Interval
	Edge int // index into View.Edges(), or −1 for a D₀ gap
	n    View
	dom  Interval
	unit float64 // the atom of a discrete domain: 1, else 0
	gaps int     // the gaps' edge
	at   int     // the next step: 2i is the gap below edge i, 2i+1 the edge
	// A walk in parts yields the piece from rest, where left is set.
	parts, left bool
	rest        Interval
}

// pieces starts a walk over the node's partition of dom, its attribute's domain.
func (n *View) pieces(dom schema.Domain) Pieces {
	p := Pieces{n: *n, dom: dom.Interval(), unit: unitOf(dom), gaps: -1}
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
			p.rest = p.Iv
			p.Iv = p.carve()
		}
		return true
	}
	return false
}

// carve cuts the next part off the rest of a wide node's piece: from the
// rest's low end to the end of that value's bucket, found with the lookup's
// own slot. The directory answers every value of a bucket alike, and the
// bisection compares every value of the piece with the same outcome.
func (p *Pieces) carve() Interval {
	g := gridOf(p.n.edges[:p.n.nSubrange])
	v := p.rest.Lo
	if p.rest.LoOpen {
		v = step(v, p.unit, 1)
	}
	part, s := p.rest, g.slot(v)
	p.left = false
	if s == g.k { // above the edges: one part to the piece's end
		return part
	}
	// The least value of a later bucket, an atom on a discrete domain.
	u := g.a + float64(s+1)/g.scale
	if p.unit > 0 {
		u = math.Ceil(u)
	}
	for g.slot(u) <= s {
		u = step(u, p.unit, 1)
	}
	for g.slot(step(u, p.unit, -1)) > s {
		u = step(u, p.unit, -1)
	}
	if p.left = u < part.Hi || u == part.Hi && !part.HiOpen; p.left {
		part.Hi, part.HiOpen = u-p.unit, p.unit == 0
		p.rest.Lo, p.rest.LoOpen = u, false
	}
	return part
}

// Cost returns the edge the node's probe takes, and the comparisons it spends,
// on an event whose value falls into the current piece, without walking the
// tree: it runs the probe Match runs, so analytic and empirical costs agree by
// construction.
func (p *Pieces) Cost() (edge, ops int) {
	return p.n.probe(inside(p.Iv))
}
