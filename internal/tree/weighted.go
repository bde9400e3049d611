package tree

import (
	"math"
	"sort"

	"genas/internal/schema"
)

// SearchWeighted searches a node through a binary search tree over its
// subrange edges whose pivots balance event mass instead of edge count: the
// tree of least expected probes under the node's weights — the edges and the
// gaps between them, Knuth's p and q (Optimum binary search trees, 1971).
// Node.scan holds it in preorder: a root r, the r−lo edges below it, the rest.

// weightFloor is the share of a node's weight spread over the domain measure
// whatever P_e says: P_e may be one window's histogram, and the floor keeps a
// region that window missed from sinking as deep as the edge count allows.
const weightFloor = 0.1

// maxOptimal bounds the keys of one optimal subtree: its tables are quadratic.
const maxOptimal = 512

// probe is the node search of SearchWeighted. It compares v with one edge's
// interval per probe — below, inside or above — and after a miss tests the
// trailing complement or star edge, which holds what else the domain holds
// (event.Validate admits domain values only, so its bounds decide). Each
// comparison is one operation and nothing else runs: no table, no lookup.
//
//genas:hotpath
func (n *Node) probe(v float64) (edge, ops int) {
	pos, lo, hi := 0, 0, int(n.nSubrange)-1
	for lo <= hi {
		r := int(n.scan[pos])
		ops++
		switch iv := &n.edges[r].Iv; {
		case iv.After(v):
			pos, hi = pos+1, r-1
		case iv.Before(v):
			pos, lo = pos+1+r-lo, r+1
		default:
			return r, ops
		}
	}
	if int(n.nSubrange) == len(n.edges) {
		return -1, ops
	}
	if dom := &n.edges[n.nSubrange].Iv; dom.After(v) || dom.Before(v) {
		return -1, ops + 1
	}
	return int(n.nSubrange), ops + 1
}

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

// balanced appends the count-balanced probe tree over edges lo..hi: the
// midpoints of plain binary search. The incremental insert lays its cloned
// nodes out this way and leaves the weights to the next Reordered or Build.
func balanced(out []int32, lo, hi int) []int32 {
	if lo > hi {
		return out
	}
	mid := (lo + hi) / 2
	return balanced(balanced(append(out, int32(mid)), lo, mid-1), mid+1, hi)
}

// weigh fills cum with the prefix sums of the node's weights in natural order,
// gaps and edges alternating — q0, p1, q1, …, pn, qn — so keys i+1..j and the
// gaps around them weigh cum[2j+1]−cum[2i]. A piece weighs its share of the
// measure or, given vo.Mass, weightFloor of that plus its share of the mass.
func (sc *orderScratch) weigh(n *Node, dom schema.Domain, vo ValueOrder) {
	p := n.pieces(dom)
	span := p.dom.Hi - p.dom.Lo + p.unit // closed, atom-aligned pieces: the measure counts values
	total := 0.0
	if vo.Mass != nil {
		sc.one[0] = p.dom
		total = vo.Mass(int(n.Attr), sc.one[:])
	}
	cum := append(sc.cum[:0], make([]float64, 2*n.nSubrange+2)...)
	for p.Next() {
		w := (p.Iv.Hi - p.Iv.Lo + p.unit) / span
		if total > 0 {
			sc.one[0] = p.Iv
			w = weightFloor*w + (1-weightFloor)*vo.Mass(int(n.Attr), sc.one[:])/total
		}
		cum[p.at] = w // the walk's step after gap i is 2i+1, after edge i 2i+2
	}
	for t := 1; t < len(cum); t++ {
		cum[t] += cum[t-1]
	}
	sc.cum = cum
}

// lay appends the probe tree over keys i+1..j (edges i..j−1) in preorder: the
// optimal one, below splits where the weight halves (Mehlhorn's bisection)
// while the keys outnumber an optimal subtree's tables.
func (sc *orderScratch) lay(out []int32, i, j int) []int32 {
	if j-i <= maxOptimal {
		return sc.optimal(out, i, j)
	}
	half := sc.cum[2*i] + sc.cum[2*j+1]
	k := i + 1 + sort.Search(j-i-1, func(d int) bool { return sc.cum[2*(i+d)+1]+sc.cum[2*(i+d)+2] >= half })
	return sc.lay(sc.lay(append(out, int32(k-1)), i, k-1), k, j)
}

// optimal is Knuth's algorithm K over keys i0+1..j0: cost(i,j), the weighted
// probes of the best tree over keys i+1..j, is their weight plus the least
// cost(i,k−1)+cost(k,j) over the roots k, and the best root lies between those
// of (i,j−1) and (i+1,j), so the table is quadratic. A miss costs the probes
// that led to it: an empty tree is free.
func (sc *orderScratch) optimal(out []int32, i0, j0 int) []int32 {
	m, sz := j0-i0, j0-i0+1
	if cap(sc.cost) < sz*sz {
		sc.cost, sc.root = make([]float64, sz*sz), make([]int32, sz*sz)
	}
	cost, root, cum := sc.cost[:sz*sz], sc.root[:sz*sz], sc.cum[2*i0:]
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
	return sc.emit(out, 0, m, sz, i0)
}

// emit appends optimal's tree over its keys i+1..j in preorder.
func (sc *orderScratch) emit(out []int32, i, j, sz, off int) []int32 {
	if i == j {
		return out
	}
	k := int(sc.root[i*sz+j])
	return sc.emit(sc.emit(append(out, int32(off+k-1)), i, k-1, sz, off), k, j, sz, off)
}
