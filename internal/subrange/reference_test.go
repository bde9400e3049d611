package subrange

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"genas/internal/schema"
)

// The decomposition as it stood before the rank sweep — a cut map, per-piece
// event lists, a map of active profiles and a merge of adjacent pieces — kept
// as the oracle the sweep is checked against.

// referenceDecompose is the former Decompose.
func referenceDecompose(dom schema.Domain, cons []Constraint) Decomposition {
	constraining := make([]Constraint, 0, len(cons))
	var star []int
	for _, c := range cons {
		if c.DontCare {
			star = append(star, c.Profile)
			continue
		}
		constraining = append(constraining, c)
	}
	return decompose(dom, constraining, star)
}

// piece is an elementary fragment during the sweep.
type piece struct {
	iv    schema.Interval
	profs []int
}

func decompose(dom schema.Domain, constraining []Constraint, star []int) Decomposition {
	dec := Decomposition{DomainSize: dom.Size(), Star: star}
	clip := dom.Interval()
	discrete := dom.Kind() == schema.KindInteger || dom.Kind() == schema.KindCategorical
	sort.Ints(dec.Star)

	if len(constraining) == 0 {
		// Whole domain is one gap (the (*) region if Star is non-empty).
		dec.Gaps = []schema.Interval{clip}
		dec.GapSize = measure(clip, discrete)
		if len(dec.Star) == 0 {
			dec.D0Size = dec.GapSize
		}
		return dec
	}

	// Sweep: distinct endpoints induce point pieces and open pieces. Piece
	// 2i is the point {cuts[i]}, piece 2i+1 the open interval
	// (cuts[i], cuts[i+1]). Profiles enter and leave at piece indices; runs
	// of pieces between changes share one profile set, so sets are
	// materialized once per run instead of once per piece (the naive
	// per-piece × per-profile scan is quadratic on large corpora).
	var all []schema.Interval
	for _, c := range constraining {
		all = append(all, c.Intervals...)
	}
	cuts := schema.Cuts(clip, all)
	cutIdx := make(map[float64]int, len(cuts))
	for i, x := range cuts {
		cutIdx[x] = i
	}
	pieces := elementaryPieces(cuts)
	nPieces := len(pieces)

	addEv := make([][]int, nPieces+1)
	remEv := make([][]int, nPieces+1)
	for _, c := range constraining {
		for _, iv := range c.Intervals {
			civ := iv.Intersect(clip)
			if civ.Empty() {
				continue
			}
			i, ok1 := cutIdx[civ.Lo]
			j, ok2 := cutIdx[civ.Hi]
			if !ok1 || !ok2 {
				continue // defensive: endpoints are cuts by construction
			}
			start := 2 * i
			if civ.LoOpen {
				start++
			}
			end := 2 * j
			if civ.HiOpen {
				end--
			}
			if end < start {
				continue
			}
			addEv[start] = append(addEv[start], c.Profile)
			remEv[end+1] = append(remEv[end+1], c.Profile)
		}
	}

	classified := make([]piece, 0, nPieces)
	active := make(map[int]struct{})
	var runSet []int
	dirty := true
	for pi, iv := range pieces {
		if len(addEv[pi]) > 0 || len(remEv[pi]) > 0 {
			for _, p := range addEv[pi] {
				active[p] = struct{}{}
			}
			for _, p := range remEv[pi] {
				delete(active, p)
			}
			dirty = true
		}
		if dirty {
			runSet = make([]int, 0, len(active))
			for p := range active {
				runSet = append(runSet, p)
			}
			sort.Ints(runSet)
			dirty = false
		}
		classified = append(classified, piece{iv: iv, profs: runSet})
	}

	// On discrete domains, drop pieces containing no atom (e.g. the open
	// interval (3,4) on an integer grid) and snap the survivors to closed
	// atom-aligned intervals so that grid adjacency is visible to merging.
	if discrete {
		kept := classified[:0]
		for _, p := range classified {
			lo, hi, n := atomBounds(p.iv)
			if n == 0 {
				continue
			}
			p.iv = schema.Closed(lo, hi)
			kept = append(kept, p)
		}
		classified = kept
	}

	// Merge adjacent pieces with identical profile sets (this produces the
	// single [30,50] edge when only one profile with a1 ≥ 30 is alive).
	merged := mergeAdjacent(classified, discrete)

	for _, p := range merged {
		if len(p.profs) == 0 {
			dec.Gaps = append(dec.Gaps, p.iv)
			dec.GapSize += measure(p.iv, discrete)
			continue
		}
		dec.Subranges = append(dec.Subranges, Subrange{Iv: p.iv, Profiles: p.profs})
	}
	if len(dec.Star) == 0 {
		dec.D0Size = dec.GapSize
	}
	return dec
}

// elementaryPieces splits the domain at the cut positions into alternating
// point and open pieces: {c0} (c0,c1) {c1} (c1,c2) … {ck}.
func elementaryPieces(cuts []float64) []schema.Interval {
	out := make([]schema.Interval, 0, 2*len(cuts)+1)
	for i, x := range cuts {
		out = append(out, schema.Point(x))
		if i+1 < len(cuts) {
			op := schema.Open(x, cuts[i+1])
			if !op.Empty() {
				out = append(out, op)
			}
		}
	}
	return out
}

func sameProfiles(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeAdjacent joins touching pieces with equal profile sets.
func mergeAdjacent(in []piece, discrete bool) []piece {
	if len(in) == 0 {
		return nil
	}
	out := make([]piece, 0, len(in))
	cur := in[0]
	for _, p := range in[1:] {
		if sameProfiles(cur.profs, p.profs) && touches(cur.iv, p.iv, discrete) {
			cur.iv = join(cur.iv, p.iv)
			continue
		}
		out = append(out, cur)
		cur = p
	}
	out = append(out, cur)
	return out
}

// touches reports whether b continues a with no domain value between them.
func touches(a, b schema.Interval, discrete bool) bool {
	if discrete {
		// Atom-aligned closed intervals are contiguous when b starts on the
		// next grid point (the open gap between them held no atom).
		return b.Lo == a.Hi+1 || b.Lo == a.Hi
	}
	if a.Hi != b.Lo {
		return false
	}
	// If both sides exclude the shared endpoint the single point a.Hi would
	// be lost, so at least one side must be closed.
	return !a.HiOpen || !b.LoOpen
}

func join(a, b schema.Interval) schema.Interval {
	return schema.Interval{Lo: a.Lo, LoOpen: a.LoOpen, Hi: b.Hi, HiOpen: b.HiOpen}
}

// corpusFrom decodes a domain and a constraint table from fuzz bytes: numeric,
// integer and categorical domains, don't-cares, unsatisfiable rows, points,
// half-open and multi-interval predicates on a half-step grid that reaches
// past both ends of the domain, given out of order one time in eight.
func corpusFrom(data []byte) (schema.Domain, []Constraint) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var dom schema.Domain
	switch next() % 3 {
	case 0:
		dom, _ = schema.NewNumericDomain(-10, 10)
	case 1:
		dom, _ = schema.NewIntegerDomain(-5, 20)
	default:
		dom, _ = schema.NewCategoricalDomain("a", "b", "c", "d", "e", "f")
	}
	var cons []Constraint
	for len(data) > 0 && len(cons) < 24 {
		c := Constraint{Profile: len(cons)}
		head := next()
		if head%8 == 0 {
			c.DontCare = true
		}
		for n := head / 8 % 4; n > 0 && !c.DontCare; n-- {
			lo := dom.Lo() - 2 + float64(next()%64)/2
			w, flags := next(), next()
			iv := schema.Interval{Lo: lo, Hi: lo + float64(w%16)/2, LoOpen: flags&1 != 0, HiOpen: flags&2 != 0}
			if flags&4 != 0 {
				iv = schema.Point(lo)
			}
			if c.Intervals = append(c.Intervals, iv); flags&56 == 0 {
				c.Intervals[0], c.Intervals[len(c.Intervals)-1] = iv, c.Intervals[0]
			}
		}
		cons = append(cons, c)
	}
	return dom, cons
}

// checkDecomposition classifies sample points by brute force — every interval
// endpoint, its neighbours and the midpoints between them; every atom of a
// discrete domain — and requires the pieces to tile the domain, to hold
// exactly the profiles whose predicate holds there, and to be maximal.
func checkDecomposition(t *testing.T, dom schema.Domain, cons []Constraint, dec Decomposition) {
	t.Helper()
	type piece struct {
		iv    schema.Interval
		profs []int
	}
	var pieces []piece
	for _, sr := range dec.Subranges {
		if len(sr.Profiles) == 0 {
			t.Fatalf("subrange %v holds no profile", sr.Iv)
		}
		pieces = append(pieces, piece{sr.Iv, sr.Profiles})
	}
	for _, g := range dec.Gaps {
		pieces = append(pieces, piece{iv: g})
	}
	sort.Slice(pieces, func(i, j int) bool {
		if pieces[i].iv.Lo != pieces[j].iv.Lo {
			return pieces[i].iv.Lo < pieces[j].iv.Lo
		}
		return pieces[i].iv.Hi < pieces[j].iv.Hi
	})
	clip, discrete := dom.Interval(), dom.Kind() != schema.KindNumeric
	if first, last := pieces[0].iv, pieces[len(pieces)-1].iv; first.Lo != clip.Lo || first.LoOpen || last.Hi != clip.Hi || last.HiOpen {
		t.Fatalf("pieces span %v..%v, domain %v", first, last, clip)
	}
	for i := 1; i < len(pieces); i++ {
		a, b := pieces[i-1], pieces[i]
		if discrete && b.iv.Lo != a.iv.Hi+1 || !discrete && (a.iv.Hi != b.iv.Lo || a.iv.HiOpen == b.iv.LoOpen) {
			t.Fatalf("pieces %v and %v do not tile", a.iv, b.iv)
		}
		if sameProfiles(a.profs, b.profs) {
			t.Fatalf("pieces %v and %v both hold %v: not maximal", a.iv, b.iv, a.profs)
		}
	}
	var star []int
	points := []float64{clip.Lo, clip.Hi}
	for _, c := range cons {
		if c.DontCare {
			star = append(star, c.Profile)
			continue
		}
		for _, iv := range c.Intervals {
			for _, x := range []float64{iv.Lo, iv.Hi} {
				points = append(points, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			}
		}
	}
	sort.Float64s(points)
	for i, n := 1, len(points); i < n; i++ {
		points = append(points, points[i-1]+(points[i]-points[i-1])/2)
	}
	if discrete {
		points = points[:0]
		for x := clip.Lo; x <= clip.Hi; x++ {
			points = append(points, x)
		}
	}
	if !sameProfiles(dec.Star, star) {
		t.Fatalf("star %v, want %v", dec.Star, star)
	}
	for _, x := range points {
		if !clip.Contains(x) {
			continue
		}
		var want []int
		for _, c := range cons {
			for _, iv := range c.Intervals {
				if !c.DontCare && iv.Contains(x) {
					want = append(want, c.Profile)
					break
				}
			}
		}
		holders := 0
		for _, p := range pieces {
			if p.iv.Contains(x) {
				holders++
				if !sameProfiles(p.profs, want) {
					t.Fatalf("piece %v holds %v, but at %v the predicates of %v hold", p.iv, p.profs, x, want)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("%v lies in %d pieces", x, holders)
		}
	}
}

// checkSweep holds Decompose to the brute-force classification and, where the
// intervals of every row lie apart as canonical ones do (the reference drops a
// row where two of its intervals overlap or meet), to the reference.
func checkSweep(t *testing.T, data []byte) {
	t.Helper()
	dom, cons := corpusFrom(data)
	dec := Decompose(dom, cons)
	checkDecomposition(t, dom, cons, dec)
	for _, c := range cons {
		for i, iv := range c.Intervals {
			for _, other := range c.Intervals[:i] {
				if a, b := min2(iv, other); a.Hi > b.Lo || a.Hi == b.Lo && !(a.HiOpen && b.LoOpen) {
					return
				}
			}
		}
	}
	if want := referenceDecompose(dom, cons); !reflect.DeepEqual(dec, want) {
		t.Fatalf("sweep\n%+v\nreference\n%+v", dec, want)
	}
}

// min2 orders two intervals by lower end.
func min2(a, b schema.Interval) (schema.Interval, schema.Interval) {
	if b.Lo < a.Lo {
		return b, a
	}
	return a, b
}

// FuzzDecompose checks the rank sweep against the brute-force classification
// and against the decomposition it replaced.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{0, 9, 20, 8, 0, 9, 24, 6, 3, 17, 30, 0, 4})
	f.Add([]byte{1, 17, 10, 5, 1, 22, 4, 2, 9, 12, 3, 8, 0, 25, 9, 9, 2})
	f.Add([]byte{2, 9, 4, 0, 4, 9, 8, 0, 4, 8, 0, 26, 5, 1, 0, 6, 3, 9, 7, 1})
	f.Add([]byte{0, 24, 30, 0, 2, 30, 6, 1, 0})
	f.Fuzz(checkSweep)
}

// TestSweepIsTheReferenceDecomposition runs FuzzDecompose's checks over random
// corpora on every go test.
func TestSweepIsTheReferenceDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+rng.Intn(80))
		rng.Read(data)
		checkSweep(t, data)
	}
}
