package tree

import (
	"math"
	"slices"

	"genas/internal/schema"
)

// A narrow node is searched through a binary search tree over its subrange
// edges whose pivots balance event mass instead of edge count: the tree of
// least expected probes under the node's weights — the edges and the gaps
// between them, Knuth's p and q (Optimum binary search trees, 1971). A node's
// layout run holds it in preorder: a root r, the r−lo edges below it, the
// rest. A wide node (interpMin) has a directory there instead (search.go).

// weightFloor is the share of a node's weight spread over the domain measure
// whatever P_e says: P_e may be one window's histogram, and the floor keeps a
// region that window missed from sinking as deep as the edge count allows.
const weightFloor = 0.1

// weigh fills cum with the prefix sums of the weights of the node's edges and
// the gaps around them in natural order, gaps and edges alternating — q_0,
// p_1, …, p_n, q_n — so keys i+1..j and the gaps around them weigh
// cum[2j+1]−cum[2i]. A piece weighs its share of the measure or, given
// vo.Mass, weightFloor of that plus its share of the mass.
func (sc *orderScratch) weigh(n *View, dom schema.Domain, vo ValueOrder) {
	p := n.pieces(dom)
	span := p.dom.Hi - p.dom.Lo + p.unit // closed, atom-aligned pieces: the measure counts values
	total := 0.0
	if vo.Mass != nil {
		sc.one[0] = p.dom
		total = vo.Mass(int(n.Attr), sc.one[:])
	}
	end := 2*int(n.nSubrange) + 1 // the step after the last gap
	cum := slices.Grow(sc.cum[:0], end+1)[:end+1]
	clear(cum)
	for p.Next() {
		w := (p.Iv.Hi - p.Iv.Lo + p.unit) / span
		if total > 0 {
			sc.one[0] = p.Iv
			w = weightFloor*w + (1-weightFloor)*vo.Mass(int(n.Attr), sc.one[:])/total
		}
		cum[p.at] = w // the walk's step after gap i is 2i+1, after edge i 2i+2
	}
	for t := 1; t <= end; t++ {
		cum[t] += cum[t-1]
	}
	sc.cum = cum
}

// lay appends the probe tree over the m keys weigh weighed in preorder, the
// optimal one, by Knuth's algorithm K: cost(i,j), the weighted probes of the
// best tree over keys i+1..j, is their weight plus the least
// cost(i,k−1)+cost(k,j) over the roots k, and the best root lies between those
// of (i,j−1) and (i+1,j), so the table is quadratic. A miss costs the probes
// that led to it: an empty tree is free.
func (sc *orderScratch) lay(out []int32, m int) []int32 {
	sz := m + 1
	if cap(sc.cost) < sz*sz { // doubling: a pooled scratch stops growing
		c := max(sz*sz, 2*cap(sc.cost))
		sc.cost, sc.root = make([]float64, c), make([]int32, c)
	}
	cost, root, cum := sc.cost[:sz*sz], sc.root[:sz*sz], sc.cum
	cost[m*sz+m] = 0
	for i := m - 1; i >= 0; i-- { // row i needs the rows below it and its own lower columns
		ci, ri, below := cost[i*sz:(i+1)*sz], root[i*sz:(i+1)*sz], root[(i+1)*sz:]
		ci[i], ci[i+1], ri[i+1] = 0, cum[2*i+3]-cum[2*i], int32(i+1)
		for j := i + 2; j <= m; j++ {
			lo, hi := int(ri[j-1]), int(below[j])
			if hi < lo { // rounding may cross the two bounds where costs tie
				lo, hi = hi, lo
			}
			best, at := math.Inf(1), lo // lo stands if every cost is NaN
			for k := lo; k <= hi; k++ {
				if c := ci[k-1] + cost[k*sz+j]; c < best {
					best, at = c, k
				}
			}
			ci[j], ri[j] = best+cum[2*j+1]-cum[2*i], int32(at)
		}
	}
	return sc.emit(out, 0, m, sz)
}

// emit appends lay's tree over its keys i+1..j in preorder.
func (sc *orderScratch) emit(out []int32, i, j, sz int) []int32 {
	if i == j {
		return out
	}
	k := int(sc.root[i*sz+j])
	return sc.emit(sc.emit(append(out, int32(k-1)), i, k-1, sz), k, j, sz)
}
