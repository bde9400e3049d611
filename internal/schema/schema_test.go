package schema

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNumericDomain(t *testing.T) {
	d, err := NewNumericDomain(-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindNumeric {
		t.Errorf("kind = %v", d.Kind())
	}
	if d.Size() != 80 {
		t.Errorf("Size() = %g, want 80 (the paper's d1 for [-30,50])", d.Size())
	}
	for _, c := range []struct {
		x    float64
		want bool
	}{{-30, true}, {50, true}, {0.5, true}, {-30.01, false}, {50.01, false}} {
		if got := d.Contains(c.x); got != c.want {
			t.Errorf("Contains(%g) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNumericDomainErrors(t *testing.T) {
	cases := [][2]float64{{5, 5}, {7, 3}, {math.NaN(), 1}, {0, math.Inf(1)}}
	for _, c := range cases {
		if _, err := NewNumericDomain(c[0], c[1]); !errors.Is(err, ErrBadDomain) {
			t.Errorf("NewNumericDomain(%g,%g) error = %v, want ErrBadDomain", c[0], c[1], err)
		}
	}
}

func TestIntegerDomain(t *testing.T) {
	d, err := NewIntegerDomain(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 100 {
		t.Errorf("Size() = %g, want 100 atoms", d.Size())
	}
	if !d.Contains(42) || d.Contains(42.5) || d.Contains(100) {
		t.Error("integer containment wrong")
	}
}

func TestCategoricalDomain(t *testing.T) {
	d, err := NewCategoricalDomain("ok", "warn", "alarm")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Errorf("Size() = %g, want 3", d.Size())
	}
	c, ok := d.Code("warn")
	if !ok || c != 1 {
		t.Errorf("Code(warn) = %d,%v", c, ok)
	}
	l, ok := d.Label(2)
	if !ok || l != "alarm" {
		t.Errorf("Label(2) = %q,%v", l, ok)
	}
	if _, ok := d.Label(3); ok {
		t.Error("Label(3) should fail")
	}
	if _, err := NewCategoricalDomain("a"); !errors.Is(err, ErrBadDomain) {
		t.Error("single label must be rejected")
	}
	if _, err := NewCategoricalDomain("a", "a"); !errors.Is(err, ErrBadDomain) {
		t.Error("duplicate label must be rejected")
	}
}

func TestSchemaIndexAndValidate(t *testing.T) {
	d1, _ := NewNumericDomain(0, 1)
	d2, _ := NewIntegerDomain(0, 9)
	s, err := New(Attribute{Name: "x", Domain: d1}, Attribute{Name: "y", Domain: d2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 {
		t.Fatalf("N() = %d", s.N())
	}
	i, err := s.Index("y")
	if err != nil || i != 1 {
		t.Errorf("Index(y) = %d, %v", i, err)
	}
	if _, err := s.Index("z"); !errors.Is(err, ErrUnknownAttribute) {
		t.Error("unknown attribute must error")
	}
	if err := s.Validate(1, 3.5); !errors.Is(err, ErrValueOutOfDomain) {
		t.Error("non-integer for integer domain must error")
	}
	if err := s.Validate(0, 0.5); err != nil {
		t.Errorf("Validate(0, 0.5) = %v", err)
	}
}

func TestSchemaConstructionErrors(t *testing.T) {
	d, _ := NewNumericDomain(0, 1)
	if _, err := New(); !errors.Is(err, ErrEmptySchema) {
		t.Error("empty schema must error")
	}
	if _, err := New(Attribute{Name: "a", Domain: d}, Attribute{Name: "a", Domain: d}); !errors.Is(err, ErrDuplicateAttr) {
		t.Error("duplicate attribute must error")
	}
	if _, err := New(Attribute{Name: "", Domain: d}); err == nil {
		t.Error("empty name must error")
	}
	if _, err := New(Attribute{Name: "a"}); err == nil {
		t.Error("unset domain must error")
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := CO(10, 20)
	if !iv.Contains(10) || iv.Contains(20) || !iv.Contains(19.999) {
		t.Error("half-open containment wrong")
	}
	if Point(5).Length() != 0 {
		t.Error("point length must be 0")
	}
	if Open(3, 3).Empty() != true || Closed(3, 3).Empty() {
		t.Error("emptiness wrong")
	}
	if got := Closed(1, 2).Intersect(Closed(3, 4)); !got.Empty() {
		t.Errorf("disjoint intersect = %v", got)
	}
	got := CO(0, 10).Intersect(OC(5, 15))
	want := Interval{Lo: 5, LoOpen: true, Hi: 10, HiOpen: true}
	if got != want {
		t.Errorf("intersect = %v, want %v", got, want)
	}
}

func TestIntervalBeforeAfter(t *testing.T) {
	if !CO(0, 5).Before(5) {
		t.Error("[0,5) must be before 5")
	}
	if Closed(0, 5).Before(5) {
		t.Error("[0,5] must not be before 5")
	}
	if !OC(5, 9).After(5) {
		t.Error("(5,9] must be after 5")
	}
	if Closed(5, 9).After(5) {
		t.Error("[5,9] must not be after 5")
	}
}

// TestIntervalIntersectProperty: intersection is commutative and contained
// in both operands.
func TestIntervalIntersectProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 float64, o1, o2, o3, o4 bool) bool {
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		a := Interval{Lo: a1, Hi: a2, LoOpen: o1, HiOpen: o2}
		b := Interval{Lo: b1, Hi: b2, LoOpen: o3, HiOpen: o4}
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab != ba {
			return false
		}
		if ab.Empty() {
			return true
		}
		mid := ab.Lo + (ab.Hi-ab.Lo)/2
		if ab.Contains(mid) && (!a.Contains(mid) || !b.Contains(mid)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnionMeasure(t *testing.T) {
	clip := Closed(0, 100)
	got := Union(clip, []Interval{Closed(0, 10), Closed(5, 20), Closed(50, 60)}, 0)
	if got != 30 {
		t.Errorf("Union = %g, want 30", got)
	}
	// Integer grid: [0,10] holds 11 atoms, [50,60] holds 11.
	got = Union(clip, []Interval{Closed(0, 10), Closed(50, 60)}, 1)
	if got != 22 {
		t.Errorf("Union grid = %g, want 22", got)
	}
	if Union(clip, nil, 0) != 0 {
		t.Error("empty union must be 0")
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("temperature=numeric[-30,50]; floor=int[0,12]; state=cat{ok,warn,alarm}")
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.At(0).Domain.Kind() != KindNumeric || s.At(1).Domain.Kind() != KindInteger || s.At(2).Domain.Kind() != KindCategorical {
		t.Error("kinds wrong")
	}
	if s.At(0).Domain.Size() != 80 {
		t.Errorf("temperature size = %g", s.At(0).Domain.Size())
	}
	for _, bad := range []string{
		"", "x", "x=float[0,1]", "x=numeric[0]", "x=numeric[a,b]", "x=cat{a}",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) must fail", bad)
		}
	}
}

// TestSpecRoundTrips: Spec renders a schema as the line ParseSpec reads back
// into the same schema, over numeric bounds that print long, integer and
// categorical attributes.
func TestSpecRoundTrips(t *testing.T) {
	temp, err := NewNumericDomain(-30.25, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewNumericDomain(-1e-7, 2.5e21)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := NewIntegerDomain(-2, 40)
	if err != nil {
		t.Fatal(err)
	}
	state, err := NewCategoricalDomain("ok", "warn", "alarm")
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(
		Attribute{Name: "temperature", Domain: temp},
		Attribute{Name: "flow", Domain: big},
		Attribute{Name: "floor", Domain: floor},
		Attribute{Name: "state", Domain: state},
	)
	spec := s.Spec()
	back, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	if back.String() != s.String() {
		t.Fatalf("%q reads back as %s, want %s", spec, back, s)
	}
	for i := range s.N() {
		a, b := s.At(i).Domain, back.At(i).Domain
		if a.Kind() != b.Kind() || a.Lo() != b.Lo() || a.Hi() != b.Hi() || !slices.Equal(a.Labels(), b.Labels()) {
			t.Fatalf("attribute %d: %q reads back as %v, want %v", i, spec, b, a)
		}
	}
	if again := back.Spec(); again != spec {
		t.Fatalf("the spec renders as %q, then as %q", spec, again)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("tiny absolute difference must pass")
	}
	if !AlmostEqual(1e9, 1e9*(1+1e-10), 1e-9) {
		t.Error("tiny relative difference must pass")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Error("1 vs 2 must fail")
	}
}

func TestCuts(t *testing.T) {
	clip := Closed(0, 100)
	cuts := Cuts(clip, []Interval{Closed(10, 30), CO(20, 50), Point(70)})
	want := []float64{0, 10, 20, 30, 50, 70, 100}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	// Intervals outside the clip contribute nothing.
	cuts = Cuts(clip, []Interval{Closed(200, 300)})
	if len(cuts) != 2 || cuts[0] != 0 || cuts[1] != 100 {
		t.Errorf("cuts = %v", cuts)
	}
	// Empty input: clip bounds only.
	if got := Cuts(clip, nil); len(got) != 2 {
		t.Errorf("cuts = %v", got)
	}
}
