// Package subrange decomposes one attribute's domain into the disjoint
// subranges referenced by a set of profiles.
//
// Considering profiles for value or range tests, each attribute's domain D is
// divided into at most (2p−1) subsets referred to in the profiles plus an
// additional subset D₀ which is not referred to in any profile (paper §3).
// The subsets are formed from the non-overlapping subranges created from the
// at most p ranges defined in the p profiles. A profile that does not
// constrain the attribute (don't-care) references the entire domain, so an
// attribute with at least one don't-care profile has D₀ = ∅.
package subrange

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"genas/internal/schema"
)

// Constraint is one profile's restriction on the attribute under
// decomposition. Profiles are identified by dense indices assigned by the
// caller (the filter engine), which keeps profile sets cheap to hash for
// DFSA state sharing.
type Constraint struct {
	// Profile is the dense profile index.
	Profile int
	// Intervals is the canonical disjoint interval union of the predicate;
	// empty means the predicate is unsatisfiable on this domain.
	Intervals []schema.Interval
	// DontCare marks profiles that do not constrain this attribute.
	DontCare bool
}

// Subrange is one maximal piece of the domain covered by a fixed, non-empty
// set of constraining profiles.
type Subrange struct {
	Iv schema.Interval
	// Profiles holds the sorted dense indices of the constraining profiles
	// covering the piece (don't-care profiles are not included here; the
	// tree adds them to every edge and to the complement edge).
	Profiles []int
}

// Decomposition is the full partition of an attribute domain.
type Decomposition struct {
	// Subranges are the covered pieces in natural (ascending) order.
	Subranges []Subrange
	// Gaps are the uncovered pieces in natural order. They form the
	// complement region: the (*) edge if don't-care profiles exist, the
	// zero-subdomain D₀ otherwise.
	Gaps []schema.Interval
	// Star holds the sorted indices of don't-care profiles.
	Star []int
	// GapSize is the measure of the gaps (length for continuous domains,
	// atom count for integer/categorical domains).
	GapSize float64
	// D0Size is the measure of the zero-subdomain D₀: equal to GapSize when
	// no profile is don't-care on the attribute, 0 otherwise.
	D0Size float64
	// DomainSize is d_j, the attribute's domain size.
	DomainSize float64
}

// Decompose partitions dom according to the constraints.
func Decompose(dom schema.Domain, cons []Constraint) Decomposition {
	ix := NewIndex(dom, cons)
	rows := make([]int, len(cons))
	for i := range rows {
		rows[i] = i
	}
	var s Sweep
	s.Reset(ix, rows)
	dec := Decomposition{DomainSize: dom.Size(), Star: profilesOf(cons, s.Star)}
	for s.Next() {
		if len(s.Active) == 0 {
			dec.Gaps = append(dec.Gaps, s.Iv)
			dec.GapSize += measure(s.Iv, ix.discrete)
			continue
		}
		dec.Subranges = append(dec.Subranges, Subrange{Iv: s.Iv, Profiles: profilesOf(cons, s.Active)})
	}
	if len(dec.Star) == 0 {
		dec.D0Size = dec.GapSize
	}
	return dec
}

// profilesOf returns the sorted profile indices of the given constraint rows.
func profilesOf(cons []Constraint, rows []int) []int {
	if len(rows) == 0 {
		return nil
	}
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = cons[r].Profile
	}
	sort.Ints(out)
	return out
}

// bound is a position on the attribute's axis between two neighbouring sets of
// values: just below x or, with above set, just above it. An interval is a
// half-open run of bounds — [3,5] is [(3,below), (5,above)) — and bounds order
// by value, then below before above: the order of the elementary pieces
// {c0} (c0,c1) {c1} … that the distinct endpoints of a profile set induce. On
// a discrete domain every bound lies below an atom: [3,5] is [3, 6).
type bound struct {
	x     float64
	above bool
}

func compareBounds(a, b bound) int {
	if a.x != b.x {
		return cmp.Compare(a.x, b.x)
	}
	switch {
	case a.above == b.above:
		return 0
	case b.above:
		return -1
	}
	return 1
}

// Index holds the constraints of one attribute in rank space: every interval
// of every row — clipped to the domain, snapped to the atom grid on a discrete
// one, joined with the intervals of its row that it touches — is a pair of
// ranks into the sorted distinct bounds. It is built once per constraint
// table; a Sweep then decomposes any subset of the rows by sorting integers.
type Index struct {
	discrete bool
	bounds   []bound // by rank; the first and the last are the domain's ends
	spans    []span
	off      []int32 // row r owns spans[off[r]:off[r+1]]: ascending, apart
	dontCare []bool
}

// span is the run of bounds [lo, hi), in ranks.
type span struct{ lo, hi int32 }

// NewIndex ranks the interval endpoints of cons; row i of the index is cons[i].
func NewIndex(dom schema.Domain, cons []Constraint) *Index {
	clip := dom.Interval()
	ix := &Index{
		discrete: dom.Kind() != schema.KindNumeric,
		off:      make([]int32, len(cons)+1),
		dontCare: make([]bool, len(cons)),
	}
	ends := [2]bound{{x: clip.Lo}, {x: clip.Hi, above: true}}
	if ix.discrete {
		ends[1] = bound{x: clip.Hi + 1}
	}
	var runs [][2]bound
	for r, c := range cons {
		ix.dontCare[r] = c.DontCare
		if c.DontCare {
			c.Intervals = nil // it constrains nothing, whatever it lists
		}
		base := len(runs)
		for _, iv := range c.Intervals {
			iv = iv.Intersect(clip)
			run := [2]bound{{iv.Lo, iv.LoOpen}, {iv.Hi, !iv.HiOpen}}
			if lo, hi, n := atomBounds(iv); ix.discrete && n > 0 {
				run = [2]bound{{x: lo}, {x: hi + 1}}
			} else if ix.discrete || iv.Empty() {
				continue
			}
			// Canonical intervals ascend; anything else is sorted into place.
			i := len(runs)
			for runs = append(runs, run); i > base && compareBounds(run[0], runs[i-1][0]) < 0; i-- {
				runs[i] = runs[i-1]
			}
			runs[i] = run
		}
		kept := base
		for _, run := range runs[base:] {
			if kept > base && compareBounds(run[0], runs[kept-1][1]) <= 0 {
				// It overlaps or continues its predecessor: one span.
				if compareBounds(runs[kept-1][1], run[1]) < 0 {
					runs[kept-1][1] = run[1]
				}
				continue
			}
			runs[kept] = run
			kept++
		}
		runs = runs[:kept]
		ix.off[r+1] = int32(kept)
	}
	ix.bounds = append(make([]bound, 0, 2*len(runs)+2), ends[:]...)
	for _, run := range runs {
		ix.bounds = append(ix.bounds, run[:]...)
	}
	slices.SortFunc(ix.bounds, compareBounds)
	ix.bounds = slices.Compact(ix.bounds)
	ix.spans = make([]span, len(runs))
	for i, run := range runs {
		lo, _ := slices.BinarySearchFunc(ix.bounds, run[0], compareBounds)
		hi, _ := slices.BinarySearchFunc(ix.bounds, run[1], compareBounds)
		ix.spans[i] = span{int32(lo), int32(hi)}
	}
	return ix
}

// piece returns the domain values between the bounds ranked lo and hi.
func (ix *Index) piece(lo, hi int) schema.Interval {
	a, b := ix.bounds[lo], ix.bounds[hi]
	if ix.discrete {
		return schema.Closed(a.x, b.x-1)
	}
	return schema.Interval{Lo: a.x, LoOpen: a.above, Hi: b.x, HiOpen: !b.above}
}

// Sweep walks the partition that a subset of an Index's rows induces on the
// domain, in natural order: every maximal piece covered by one fixed set of
// constraining rows, the uncovered pieces included. Its buffers are reused
// from one Reset to the next, so a tree build decomposes every state with
// one Sweep and no allocation.
type Sweep struct {
	// Iv is the current piece and Active the rows covering it, ascending;
	// both hold until the following Next.
	Iv     schema.Interval
	Active []int
	// Star lists the swept rows that are don't-care, in the order given.
	Star []int

	ix   *Index
	keys []uint64 // the rows' span ends, sorted: rank<<32 | row<<1 | entering
	k    int      // the first key not yet applied
	at   int      // the rank at which the next piece begins
}

// Reset starts a sweep over the given rows of ix.
func (s *Sweep) Reset(ix *Index, rows []int) {
	s.ix, s.k, s.at = ix, 0, 0
	s.keys, s.Active, s.Star = s.keys[:0], s.Active[:0], s.Star[:0]
	for _, r := range rows {
		if ix.dontCare[r] {
			s.Star = append(s.Star, r)
			continue
		}
		for _, sp := range ix.spans[ix.off[r]:ix.off[r+1]] {
			s.keys = append(s.keys, uint64(sp.lo)<<32|uint64(r)<<1|1, uint64(sp.hi)<<32|uint64(r)<<1)
		}
	}
	slices.Sort(s.keys)
}

// Next advances to the next piece and reports whether there is one. A row's
// spans lie apart, so no row leaves and enters at one bound: the set changes
// at every bound some row ends on, and each piece is maximal as it comes.
func (s *Sweep) Next() bool {
	end := len(s.ix.bounds) - 1
	if s.at == end {
		return false
	}
	for ; s.k < len(s.keys) && int(s.keys[s.k]>>32) == s.at; s.k++ {
		r := int(uint32(s.keys[s.k]) >> 1)
		i, _ := slices.BinarySearch(s.Active, r)
		if s.keys[s.k]&1 != 0 {
			s.Active = slices.Insert(s.Active, i, r)
		} else {
			s.Active = slices.Delete(s.Active, i, i+1)
		}
	}
	next := end
	if s.k < len(s.keys) {
		next = int(s.keys[s.k] >> 32)
	}
	s.Iv, s.at = s.ix.piece(s.at, next), next
	return true
}

// atomBounds returns the first and last integer inside the interval and the
// atom count.
func atomBounds(iv schema.Interval) (lo, hi, n float64) {
	lo = math.Ceil(iv.Lo)
	if iv.LoOpen && lo == iv.Lo {
		lo++
	}
	hi = math.Floor(iv.Hi)
	if iv.HiOpen && hi == iv.Hi {
		hi--
	}
	if hi < lo {
		return 0, 0, 0
	}
	return lo, hi, hi - lo + 1
}

// atomCount counts integers inside the interval.
func atomCount(iv schema.Interval) float64 {
	_, _, n := atomBounds(iv)
	return n
}

// Snap normalizes one piece of a domain partition: on discrete domains the
// interval is snapped to the closed atom-aligned form the decomposition
// produces (ok=false when it holds no atom), on continuous domains it passes
// through (ok=false when empty). The incremental tree transform splits
// existing buckets against a new profile's intervals and must land on the
// same canonical pieces a fresh decomposition would.
func Snap(iv schema.Interval, discrete bool) (schema.Interval, bool) {
	if discrete {
		lo, hi, n := atomBounds(iv)
		if n == 0 {
			return schema.Interval{}, false
		}
		return schema.Closed(lo, hi), true
	}
	if iv.Empty() {
		return schema.Interval{}, false
	}
	return iv, true
}

// measure returns the paper's size of a piece: atom count on discrete
// domains, interval length on continuous ones.
func measure(iv schema.Interval, discrete bool) float64 {
	if discrete {
		return atomCount(iv)
	}
	return iv.Length()
}

// MaxSubranges returns the paper's bound 2p−1 on the number of covered
// subranges produced by p single-interval profiles (p ≥ 1).
func MaxSubranges(p int) int {
	if p < 1 {
		return 0
	}
	return 2*p - 1
}
