package experiments

import (
	"math"
	"slices"
	"strconv"

	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// The node searches the paper measures (§4.2: following the edges in a
// defined order, and binary search) and the further ones its outlook proposes
// ("binary-, interpolation-, or hash-based search within attribute-values",
// §5), as cost models over a built tree. Production searches every node with
// the probe tree of internal/tree; these models read the same automaton —
// its edges and the pieces between them — and charge what the paper's scans
// would spend on it.
//
// Operation counting convention (calibrated against the paper's Examples 2–5):
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
// bookkeeping and costs nothing, as in the paper's prototype.

// Search selects one of the five node searches of the reproduction.
// SearchLinear uses the lookup-table early-termination rule of Example 5;
// SearchLinearNoStop scans every edge (ablation); SearchBinary performs binary
// search over the naturally ordered subranges. SearchInterpolation probes by
// linear position estimate; SearchHash models an idealized per-value lookup
// table on discrete domains (one operation per node) and degrades to binary
// search on continuous domains, where hashing values is not applicable.
type Search int

// The five searches.
const (
	SearchLinear Search = iota + 1
	SearchLinearNoStop
	SearchBinary
	SearchInterpolation
	SearchHash
)

// String names the search in experiment tables.
func (s Search) String() string {
	switch s {
	case SearchLinear:
		return "linear"
	case SearchLinearNoStop:
		return "linear-nostop"
	case SearchBinary:
		return "binary"
	case SearchInterpolation:
		return "interpolation"
	case SearchHash:
		return "hash"
	default:
		return "Search(" + strconv.Itoa(int(s)) + ")"
	}
}

// ScanOrder is one of the paper's value orderings: a scoring function plus
// a direction ("The prototype supports the following value orders (either
// descending or ascending)", §4.2). The region of a complement edge is the
// union of several intervals; every other piece is a single interval.
type ScanOrder struct {
	Name string
	Rank tree.RankFunc
	// Descending scans high scores first (the usual choice for the
	// probability measures V1–V3).
	Descending bool
}

// Natural returns the ascending natural order implied by the domain.
func Natural() ScanOrder {
	return ScanOrder{Name: "natural", Rank: func(_ int, region []tree.Interval) float64 {
		lo := math.Inf(1)
		for _, iv := range region {
			lo = min(lo, iv.Lo)
		}
		return lo
	}}
}

// NaturalDesc returns the descending natural order.
func NaturalDesc() ScanOrder {
	o := Natural()
	o.Name, o.Descending = "natural-desc", true
	return o
}

// massOf ranks a region by a distribution's mass on it, per attribute.
func massOf(ds []dist.Dist) tree.RankFunc {
	return func(attr int, region []tree.Interval) float64 {
		total := 0.0
		for _, iv := range region {
			total += ds[attr].Mass(iv)
		}
		return total
	}
}

// V1 orders values by event probability (Measure V1). dists is indexed by
// schema attribute.
func V1(dists []dist.Dist, descending bool) ScanOrder {
	return ScanOrder{Name: suffix("event", descending), Rank: massOf(dists), Descending: descending}
}

// V2 orders values by profile probability (Measure V2).
func V2(pdists []dist.Dist, descending bool) ScanOrder {
	return ScanOrder{Name: suffix("profile", descending), Rank: massOf(pdists), Descending: descending}
}

// V3 orders values by the product P_e·P_p (Measure V3).
func V3(edists, pdists []dist.Dist, descending bool) ScanOrder {
	pe, pp := massOf(edists), massOf(pdists)
	return ScanOrder{
		Name:       suffix("event*profile", descending),
		Descending: descending,
		Rank: func(attr int, region []tree.Interval) float64 {
			return pe(attr, region) * pp(attr, region)
		},
	}
}

// V2Empirical orders values by the priority-weighted fraction of profiles
// referencing them, estimating P_p from the profile set itself. Profile
// priorities realize the user-centric approach: regions demanded by
// high-priority subscribers are tested first.
func V2Empirical(s *schema.Schema, profiles []*predicate.Profile, descending bool) ScanOrder {
	return ScanOrder{
		Name:       suffix("profile-emp", descending),
		Descending: descending,
		Rank: func(attr int, region []tree.Interval) float64 {
			total, hit := 0.0, 0.0
			for _, p := range profiles {
				w := p.Weight()
				total += w
				if !p.Constrains(attr) || overlapsAny(p.Pred(attr).Intervals(s.At(attr).Domain), region) {
					hit += w // a don't-care references every region
				}
			}
			if total == 0 {
				return 0
			}
			return hit / total
		},
	}
}

func overlapsAny(a, b []tree.Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

func suffix(name string, descending bool) string {
	if descending {
		return name
	}
	return name + "-asc"
}

// Scan is one search's cost model over one tree, every node's pieces ranked
// under one scan order. Its Cost is the per-piece cost selectivity.Analyze
// takes, and its Match the matcher the empirical scenarios post events
// through; both run the same searches, so analytic and empirical counts agree
// by construction.
type Scan struct {
	t      *tree.Tree
	search Search
	order  ScanOrder
	// nodes[id] is node id laid out, once asked for.
	nodes []*scanNode
}

// NewScan models search over t's nodes, their defined order ranked by order.
func NewScan(t *tree.Tree, search Search, order ScanOrder) *Scan {
	return &Scan{t: t, search: search, order: order, nodes: make([]*scanNode, t.Slots())}
}

// Cost returns the edge the search takes, and the operations it spends, on an
// event whose value falls into piece p of node n.
func (m *Scan) Cost(n tree.View, p *tree.Pieces) (edge, ops int) {
	return m.node(n).step(inside(p.Iv), m.search)
}

// Match filters one event through the tree as the modelled search walks it:
// at every node it finds the piece the value falls into and charges what the
// search spends there. It returns the matched dense indices, parked profiles
// included, and the operations.
func (m *Scan) Match(vals []float64) (matched []int32, ops int) {
	n := m.t.Root()
	for {
		matched = append(matched, n.Extra()...)
		ei, stepOps := m.node(n).step(vals[n.Attr], m.search)
		ops += stepOps
		if ei < 0 {
			return matched, ops
		}
		to := n.Edges()[ei].To
		if int(n.Level)+1 == m.t.Schema().N() {
			return append(matched, m.t.Leaf(to)...), ops
		}
		n = m.t.Node(int(n.Level)+1, to)
	}
}

// scanNode is a node laid out for the scans: its lookup table — the pieces of
// its partition, in natural order, with their defined-order positions — the
// edges in defined (scan) order and the edges' positions.
type scanNode struct {
	edges    []tree.Edge
	nSub     int // the leading subrange edges; a complement or star edge may follow
	buckets  []bucket
	scan     []int32
	orderPos []int32 // by edge
	// discrete marks integer/categorical attribute domains, where hash
	// search can index individual values.
	discrete bool
}

// bucket is one entry of the lookup table: a piece of the node's partition.
// Buckets cover the entire domain: subrange edges, complement pieces (mapped
// to the complement edge) and D₀ gaps (edge == −1).
type bucket struct {
	iv   tree.Interval
	edge int
	// orderPos is the bucket's 1-based position in the defined order; the
	// lookup table of §4.2 ("the table contains a position for each
	// element").
	orderPos int
}

// orderEntry is one rank of the defined order: a subrange or gap bucket, or
// all the complement pieces together.
type orderEntry struct {
	score float64
	nat   int // natural tiebreak: bucket index, or len(buckets) for the complement entry
	edge  int
}

// node lays n out for the scans, once.
func (m *Scan) node(n tree.View) *scanNode {
	if l := m.nodes[n.ID]; l != nil {
		return l
	}
	attr := int(n.Attr)
	l := &scanNode{edges: n.Edges(), discrete: m.t.Schema().At(attr).Domain.Kind() != schema.KindNumeric}
	for l.nSub < len(l.edges) && n.Kind(l.nSub) == tree.EdgeSubrange {
		l.nSub++
	}
	for p := m.t.Pieces(n); p.Next(); {
		// A wide node's walk yields its pieces in parts: a part that
		// continues the last bucket's edge continues the bucket.
		if k := len(l.buckets) - 1; k >= 0 && l.buckets[k].edge == p.Edge {
			l.buckets[k].iv.Hi, l.buckets[k].iv.HiOpen = p.Iv.Hi, p.Iv.HiOpen
			continue
		}
		l.buckets = append(l.buckets, bucket{iv: p.Iv, edge: p.Edge})
	}
	var entries []orderEntry
	var comp []tree.Interval
	compEdge := -1
	for bi, b := range l.buckets {
		if b.edge >= l.nSub {
			comp = append(comp, b.iv)
			compEdge = b.edge
			continue
		}
		entries = append(entries, orderEntry{score: m.order.Rank(attr, []tree.Interval{b.iv}), nat: bi, edge: b.edge})
	}
	if compEdge >= 0 {
		entries = append(entries, orderEntry{score: m.order.Rank(attr, comp), nat: len(l.buckets), edge: compEdge})
	}
	slices.SortFunc(entries, func(x, y orderEntry) int {
		if x.score != y.score {
			if (x.score > y.score) == m.order.Descending {
				return -1
			}
			return 1
		}
		// "The order of values with equal selectivity is arbitrary (such as
		// the natural order of the values)."
		return x.nat - y.nat
	})
	l.orderPos = make([]int32, len(l.edges))
	for pos, e := range entries {
		if e.nat < len(l.buckets) {
			l.buckets[e.nat].orderPos = pos + 1
		} else {
			for bi := range l.buckets {
				if l.buckets[bi].edge == e.edge {
					l.buckets[bi].orderPos = pos + 1
				}
			}
		}
		if e.edge >= 0 {
			l.orderPos[e.edge] = int32(pos + 1)
			l.scan = append(l.scan, int32(e.edge))
		}
	}
	m.nodes[n.ID] = l
	return l
}

// inside returns a value of the non-empty interval iv.
func inside(iv tree.Interval) float64 {
	switch {
	case !iv.LoOpen:
		return iv.Lo
	case !iv.HiOpen:
		return iv.Hi
	}
	return iv.Lo + (iv.Hi-iv.Lo)/2
}

// step runs the search for value v and returns the chosen edge index (−1 for
// a non-match) and the operations spent.
func (l *scanNode) step(v float64, search Search) (edge, ops int) {
	bi := l.bucketOf(v)
	if bi < 0 {
		// Outside the domain: reject without touching the structure.
		return -1, 0
	}
	target := l.buckets[bi]
	switch search {
	case SearchBinary:
		return l.stepBinary(target)
	case SearchInterpolation:
		return l.stepInterpolation(target)
	case SearchHash:
		return l.stepHash(target)
	case SearchLinearNoStop:
		return l.stepLinear(target, false)
	default:
		return l.stepLinear(target, true)
	}
}

// bucketOf returns the index of the bucket containing v (every domain value
// is in exactly one bucket), or −1 for values outside the domain.
func (l *scanNode) bucketOf(v float64) int {
	lo, hi := 0, len(l.buckets)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		b := l.buckets[mid].iv
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

// stepLinear scans edges in defined order. The early-termination rule
// compares defined-order positions via the lookup table (Example 5).
func (l *scanNode) stepLinear(target bucket, earlyStop bool) (int, int) {
	ops := 0
	for _, ei := range l.scan {
		ops++
		if int(ei) == target.edge {
			return target.edge, ops
		}
		if earlyStop && int(l.orderPos[ei]) > target.orderPos {
			// The examined edge already lies past the searched value in the
			// defined order: the node cannot contain it.
			return -1, ops
		}
	}
	return -1, ops
}

// stepBinary performs binary search over the naturally ordered subrange
// edges; a miss falls through to the complement/star edge when present.
func (l *scanNode) stepBinary(target bucket) (int, int) {
	ops := 0
	lo, hi := 0, l.nSub-1
	for lo <= hi {
		mid := (lo + hi) / 2
		ops++
		switch {
		case target.edge == mid:
			return mid, ops
		case edgeBelowTarget(&l.edges[mid], target):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return l.missTail(target, ops)
}

// missTail resolves a failed subrange search: the trailing complement or
// star edge, if any, is tested for one more operation.
func (l *scanNode) missTail(target bucket, ops int) (int, int) {
	if l.nSub == len(l.edges) {
		return -1, ops
	}
	ops++
	if ei := len(l.edges) - 1; target.edge == ei {
		return ei, ops
	}
	return -1, ops
}

// edgeBelowTarget reports whether subrange edge e lies entirely below the
// target bucket on the natural axis.
func edgeBelowTarget(e *tree.Edge, target bucket) bool {
	iv := e.Iv()
	return iv.Hi < target.iv.Lo ||
		(iv.Hi == target.iv.Lo && (iv.HiOpen || target.iv.LoOpen))
}

// stepInterpolation performs interpolation search over the naturally
// ordered subrange edges, probing by linear position estimate on the edge
// lower bounds (the classic sub-logarithmic strategy for near-uniform
// layouts; paper §5 outlook).
func (l *scanNode) stepInterpolation(target bucket) (int, int) {
	ops := 0
	lo, hi := 0, l.nSub-1
	key := target.iv.Lo
	for lo <= hi {
		var mid int
		loKey, hiKey := l.edges[lo].Lo, l.edges[hi].Lo
		switch {
		case hiKey <= loKey || key <= loKey:
			mid = lo
		case key >= hiKey:
			mid = hi
		default:
			mid = min(max(lo+int(float64(hi-lo)*(key-loKey)/(hiKey-loKey)), lo), hi)
		}
		ops++
		switch {
		case target.edge == mid:
			return mid, ops
		case edgeBelowTarget(&l.edges[mid], target):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return l.missTail(target, ops)
}

// stepHash models an idealized hash lookup. On discrete domains a per-value
// table resolves any bucket — subrange edge, complement piece or gap — in a
// single probe. Continuous domains cannot hash raw values; the search
// degrades to binary search there.
func (l *scanNode) stepHash(target bucket) (int, int) {
	if !l.discrete {
		return l.stepBinary(target)
	}
	if target.edge >= 0 {
		return target.edge, 1
	}
	return -1, 1
}
