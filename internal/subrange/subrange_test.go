package subrange

import (
	"math/rand"
	"reflect"
	"testing"

	"genas/internal/schema"
)

func numDom(t *testing.T, lo, hi float64) schema.Domain {
	t.Helper()
	d, err := schema.NewNumericDomain(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func intDom(t *testing.T, lo, hi int) schema.Domain {
	t.Helper()
	d, err := schema.NewIntegerDomain(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPaperDecomposition reproduces the temperature attribute of Fig. 1:
// profiles a1≥35, a1≥30 (×3), a1∈[−30,−20] yield subranges [−30,−20],
// [30,35), [35,50] and zero-subdomain (−20,30) of size 50.
func TestPaperDecomposition(t *testing.T) {
	dom := numDom(t, -30, 50)
	cons := []Constraint{
		{Profile: 0, Intervals: []schema.Interval{schema.Closed(35, 50)}},   // P1
		{Profile: 1, Intervals: []schema.Interval{schema.Closed(30, 50)}},   // P2
		{Profile: 2, Intervals: []schema.Interval{schema.Closed(30, 50)}},   // P3
		{Profile: 3, Intervals: []schema.Interval{schema.Closed(-30, -20)}}, // P4
		{Profile: 4, Intervals: []schema.Interval{schema.Closed(30, 50)}},   // P5
	}
	dec := Decompose(dom, cons)
	if len(dec.Subranges) != 3 {
		t.Fatalf("got %d subranges: %+v", len(dec.Subranges), dec.Subranges)
	}
	if dec.Subranges[0].Iv.String() != "[-30,-20]" {
		t.Errorf("sr0 = %s", dec.Subranges[0].Iv)
	}
	if dec.Subranges[1].Iv.String() != "[30,35)" {
		t.Errorf("sr1 = %s", dec.Subranges[1].Iv)
	}
	if dec.Subranges[2].Iv.String() != "[35,50]" {
		t.Errorf("sr2 = %s", dec.Subranges[2].Iv)
	}
	if got := dec.Subranges[2].Profiles; len(got) != 4 {
		t.Errorf("[35,50] profiles = %v, want {0,1,2,4}", got)
	}
	if dec.D0Size != 50 {
		t.Errorf("d0 = %g, want 50", dec.D0Size)
	}
	if dec.DomainSize != 80 {
		t.Errorf("d = %g, want 80", dec.DomainSize)
	}
}

// TestDontCareClearsD0: one don't-care profile makes D₀ empty while keeping
// the gap region as the (*) edge.
func TestDontCareClearsD0(t *testing.T) {
	dom := numDom(t, 0, 100)
	cons := []Constraint{
		{Profile: 0, Intervals: []schema.Interval{schema.Closed(35, 50)}},
		{Profile: 1, DontCare: true},
	}
	dec := Decompose(dom, cons)
	if dec.D0Size != 0 {
		t.Errorf("D0Size = %g, want 0 (don't-care covers all)", dec.D0Size)
	}
	if dec.GapSize != 85 {
		t.Errorf("GapSize = %g, want 85", dec.GapSize)
	}
	if len(dec.Star) != 1 || dec.Star[0] != 1 {
		t.Errorf("Star = %v", dec.Star)
	}
}

func TestAllDontCare(t *testing.T) {
	dom := numDom(t, 0, 10)
	dec := Decompose(dom, []Constraint{{Profile: 0, DontCare: true}, {Profile: 1, DontCare: true}})
	if len(dec.Subranges) != 0 || len(dec.Gaps) != 1 {
		t.Fatalf("decomposition = %+v", dec)
	}
	if dec.D0Size != 0 {
		t.Error("don't-care profiles leave no zero-subdomain")
	}
}

func TestNoProfilesMeansAllD0(t *testing.T) {
	dom := numDom(t, 0, 10)
	dec := Decompose(dom, nil)
	if dec.D0Size != 10 || dec.GapSize != 10 {
		t.Errorf("D0 = %g, gaps = %g, want 10", dec.D0Size, dec.GapSize)
	}
}

// TestMergeAdjacent: overlapping ranges from one profile set collapse.
func TestMergeAdjacent(t *testing.T) {
	dom := numDom(t, 0, 100)
	cons := []Constraint{
		{Profile: 0, Intervals: []schema.Interval{schema.Closed(10, 30)}},
		{Profile: 1, Intervals: []schema.Interval{schema.Closed(10, 30)}},
	}
	dec := Decompose(dom, cons)
	if len(dec.Subranges) != 1 {
		t.Fatalf("identical ranges must merge into one subrange, got %+v", dec.Subranges)
	}
	if dec.Subranges[0].Iv.String() != "[10,30]" {
		t.Errorf("merged = %s", dec.Subranges[0].Iv)
	}
}

// TestIntegerGridMerge: adjacent atoms with the same profile set merge even
// when split by an empty open piece.
func TestIntegerGridMerge(t *testing.T) {
	dom := intDom(t, 0, 9)
	cons := []Constraint{
		{Profile: 0, Intervals: []schema.Interval{schema.Closed(3, 3), schema.Closed(4, 4)}},
	}
	dec := Decompose(dom, cons)
	if len(dec.Subranges) != 1 || dec.Subranges[0].Iv.String() != "[3,4]" {
		t.Fatalf("grid merge failed: %+v", dec.Subranges)
	}
	if dec.D0Size != 8 {
		t.Errorf("d0 = %g, want 8 atoms", dec.D0Size)
	}
}

// TestBound2pMinus1: p single-interval profiles produce at most 2p−1 covered
// subranges (the paper's bound), verified on random corpora.
func TestBound2pMinus1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dom := numDom(t, 0, 1000)
	for trial := 0; trial < 300; trial++ {
		p := 1 + rng.Intn(12)
		cons := make([]Constraint, p)
		for i := range cons {
			lo := rng.Float64() * 900
			hi := lo + rng.Float64()*(1000-lo)
			cons[i] = Constraint{Profile: i, Intervals: []schema.Interval{schema.Closed(lo, hi)}}
		}
		dec := Decompose(dom, cons)
		if len(dec.Subranges) > MaxSubranges(p) {
			t.Fatalf("p=%d produced %d subranges > 2p−1=%d", p, len(dec.Subranges), MaxSubranges(p))
		}
	}
}

// TestPartitionProperties: subranges and gaps are disjoint, ordered, and
// cover every probe point with the correct profile set.
func TestPartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dom := numDom(t, 0, 100)
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(10)
		cons := make([]Constraint, p)
		type span struct{ lo, hi float64 }
		spans := make([]span, p)
		for i := range cons {
			lo := float64(rng.Intn(90))
			hi := lo + float64(rng.Intn(int(100-lo))+1)
			spans[i] = span{lo, hi}
			cons[i] = Constraint{Profile: i, Intervals: []schema.Interval{schema.Closed(lo, hi)}}
		}
		dec := Decompose(dom, cons)

		// Probe random points: exactly one piece contains each, and its
		// profile set equals the brute-force covering set.
		for probe := 0; probe < 60; probe++ {
			x := rng.Float64() * 100
			holders := 0
			var got []int
			for _, sr := range dec.Subranges {
				if sr.Iv.Contains(x) {
					holders++
					got = sr.Profiles
				}
			}
			for _, g := range dec.Gaps {
				if g.Contains(x) {
					holders++
					got = nil
				}
			}
			if holders != 1 {
				t.Fatalf("x=%g contained in %d pieces", x, holders)
			}
			var want []int
			for i, s := range spans {
				if x >= s.lo && x <= s.hi {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("x=%g: got %v, want %v", x, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("x=%g: got %v, want %v", x, got, want)
				}
			}
		}

		// Measures: gaps + covered = domain size.
		covered := 0.0
		for _, sr := range dec.Subranges {
			covered += sr.Iv.Length()
		}
		if got := covered + dec.GapSize; !schema.AlmostEqual(got, 100, 1e-9) {
			t.Fatalf("covered %g + gaps %g != 100", covered, dec.GapSize)
		}
	}
}

// TestPointPredicates: equality profiles on a continuous domain appear as
// point subranges with zero measure but correct membership.
func TestPointPredicates(t *testing.T) {
	dom := numDom(t, 0, 10)
	cons := []Constraint{
		{Profile: 0, Intervals: []schema.Interval{schema.Point(5)}},
		{Profile: 1, Intervals: []schema.Interval{schema.Point(5)}},
		{Profile: 2, Intervals: []schema.Interval{schema.Point(7)}},
	}
	dec := Decompose(dom, cons)
	if len(dec.Subranges) != 2 {
		t.Fatalf("subranges = %+v", dec.Subranges)
	}
	if len(dec.Subranges[0].Profiles) != 2 {
		t.Errorf("point {5} profiles = %v", dec.Subranges[0].Profiles)
	}
	if !schema.AlmostEqual(dec.D0Size, 10, 1e-9) {
		t.Errorf("d0 = %g (points have measure 0)", dec.D0Size)
	}
}

// TestDecomposeIndexedAgrees: a sweep over a subset of an index's rows yields
// the decomposition of that subset.
func TestDecomposeIndexedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dom := intDom(t, 0, 50)
	for trial := 0; trial < 100; trial++ {
		p := 1 + rng.Intn(8)
		byProfile := make([]Constraint, p)
		alive := make([]int, 0, p)
		var subset []Constraint
		for i := 0; i < p; i++ {
			if rng.Intn(4) == 0 {
				byProfile[i] = Constraint{Profile: i, DontCare: true}
			} else {
				lo := float64(rng.Intn(40))
				byProfile[i] = Constraint{Profile: i, Intervals: []schema.Interval{schema.Closed(lo, lo+float64(rng.Intn(10)))}}
			}
			if rng.Intn(2) == 0 {
				alive = append(alive, i)
				subset = append(subset, byProfile[i])
			}
		}
		want := Decompose(dom, subset)
		var s Sweep
		s.Reset(NewIndex(dom, byProfile), alive)
		var got Decomposition
		got.Star = append(got.Star, s.Star...)
		for s.Next() {
			if len(s.Active) == 0 {
				got.Gaps = append(got.Gaps, s.Iv)
				continue
			}
			got.Subranges = append(got.Subranges, Subrange{Iv: s.Iv, Profiles: append([]int(nil), s.Active...)})
		}
		if !reflect.DeepEqual(got.Subranges, want.Subranges) || !reflect.DeepEqual(got.Gaps, want.Gaps) || !reflect.DeepEqual(got.Star, want.Star) {
			t.Fatalf("indexed mismatch: %+v vs %+v", got, want)
		}
	}
}

func TestMaxSubranges(t *testing.T) {
	if MaxSubranges(0) != 0 || MaxSubranges(1) != 1 || MaxSubranges(5) != 9 {
		t.Error("MaxSubranges wrong")
	}
}
