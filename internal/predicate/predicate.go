// Package predicate models profile predicates over schema attributes.
//
// A profile is a set of predicates defined as (attribute, value) pairs
// operating on the same attribute set as the events; not all attributes have
// to be specified (paper §3). Every comparison operator canonicalizes to a
// union of intervals clipped to the attribute domain, so the subrange
// decomposition and the profile tree only ever see intervals.
package predicate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"genas/internal/schema"
	"genas/internal/sentinel"
)

// Op enumerates the comparison operators supported by the generic service.
// The paper's prototype supports equality and don't-care; the tree of Fig. 1
// additionally requires range and order tests, and §2 mentions inequality and
// set containment, so the full operator set is implemented.
type Op int

// Operators. OpAny is the don't-care value "*".
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpRange
	OpIn
	OpAny
)

// String returns the operator spelling used by the profile language.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpRange:
		return "in"
	case OpIn:
		return "in-set"
	case OpAny:
		return "*"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Errors reported by predicate construction. Both wrap the public
// ErrBadProfile sentinel so profile-construction failures stay
// errors.Is-matchable through the genas facade (genasvet: senterr).
var (
	ErrBadPredicate = fmt.Errorf("predicate: invalid predicate: %w", sentinel.ErrBadProfile)
	ErrEmptyProfile = fmt.Errorf("predicate: profile has no predicates: %w", sentinel.ErrBadProfile)
)

// Predicate is one attribute constraint inside a profile.
type Predicate struct {
	Attr int // schema attribute index
	Op   Op
	// Value is the comparison operand for scalar operators.
	Value float64
	// Hi is the inclusive upper operand for OpRange ([Value, Hi]).
	Hi float64
	// Set holds operands for OpIn (categorical codes or numeric points).
	Set []float64
}

// NewComparison builds a scalar comparison predicate.
func NewComparison(attr int, op Op, v float64) (Predicate, error) {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if math.IsNaN(v) {
			return Predicate{}, fmt.Errorf("%w: NaN operand", ErrBadPredicate)
		}
		return Predicate{Attr: attr, Op: op, Value: v}, nil
	default:
		return Predicate{}, fmt.Errorf("%w: %s is not a scalar comparison", ErrBadPredicate, op)
	}
}

// NewRange builds the range predicate attr ∈ [lo, hi].
func NewRange(attr int, lo, hi float64) (Predicate, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return Predicate{}, fmt.Errorf("%w: bad range [%v,%v]", ErrBadPredicate, lo, hi)
	}
	return Predicate{Attr: attr, Op: OpRange, Value: lo, Hi: hi}, nil
}

// NewIn builds the set containment predicate attr ∈ {vs…}.
func NewIn(attr int, vs ...float64) (Predicate, error) {
	if len(vs) == 0 {
		return Predicate{}, fmt.Errorf("%w: empty set", ErrBadPredicate)
	}
	set := make([]float64, len(vs))
	copy(set, vs)
	sort.Float64s(set)
	return Predicate{Attr: attr, Op: OpIn, Set: set}, nil
}

// NewAny builds the don't-care predicate for attr.
func NewAny(attr int) Predicate { return Predicate{Attr: attr, Op: OpAny} }

// Intervals canonicalizes the predicate into a union of disjoint intervals
// clipped to the attribute domain dom. OpAny returns the whole domain.
func (p Predicate) Intervals(dom schema.Domain) []schema.Interval {
	return p.AppendIntervals(nil, dom)
}

// AppendIntervals appends Intervals(dom) to dst: the tree builder collects a
// whole corpus in one block.
func (p Predicate) AppendIntervals(dst []schema.Interval, dom schema.Domain) []schema.Interval {
	clip := dom.Interval()
	add := func(iv schema.Interval) {
		if c := iv.Intersect(clip); !c.Empty() {
			dst = append(dst, c)
		}
	}
	switch p.Op {
	case OpEq:
		add(schema.Point(p.Value))
	case OpNe:
		add(schema.Interval{Lo: clip.Lo, Hi: p.Value, HiOpen: true})
		add(schema.Interval{Lo: p.Value, Hi: clip.Hi, LoOpen: true})
	case OpLt:
		add(schema.Interval{Lo: clip.Lo, Hi: p.Value, HiOpen: true})
	case OpLe:
		add(schema.Interval{Lo: clip.Lo, Hi: p.Value})
	case OpGt:
		add(schema.Interval{Lo: p.Value, Hi: clip.Hi, LoOpen: true})
	case OpGe:
		add(schema.Interval{Lo: p.Value, Hi: clip.Hi})
	case OpRange:
		add(schema.Interval{Lo: p.Value, Hi: p.Hi})
	case OpIn:
		for _, v := range p.Set {
			add(schema.Point(v))
		}
	case OpAny:
		add(clip)
	}
	return dst
}

// Matches reports whether value x satisfies the predicate.
func (p Predicate) Matches(x float64) bool {
	switch p.Op {
	case OpEq:
		return x == p.Value
	case OpNe:
		return x != p.Value
	case OpLt:
		return x < p.Value
	case OpLe:
		return x <= p.Value
	case OpGt:
		return x > p.Value
	case OpGe:
		return x >= p.Value
	case OpRange:
		return x >= p.Value && x <= p.Hi
	case OpIn:
		i := sort.SearchFloat64s(p.Set, x)
		return i < len(p.Set) && p.Set[i] == x
	case OpAny:
		return true
	default:
		return false
	}
}

// String renders the predicate in profile-language syntax (attribute index
// form; Profile.Render substitutes names).
func (p Predicate) String() string {
	switch p.Op {
	case OpRange:
		return fmt.Sprintf("a%d in [%g,%g]", p.Attr, p.Value, p.Hi)
	case OpIn:
		parts := make([]string, len(p.Set))
		for i, v := range p.Set {
			parts[i] = fmt.Sprintf("%g", v)
		}
		return fmt.Sprintf("a%d in {%s}", p.Attr, strings.Join(parts, ","))
	case OpAny:
		return fmt.Sprintf("a%d = *", p.Attr)
	default:
		return fmt.Sprintf("a%d %s %g", p.Attr, p.Op, p.Value)
	}
}

// ID identifies a profile within a service instance.
type ID string

// Profile is a conjunctive subscription: a set of predicates, at most one per
// attribute. Attributes without a predicate are don't-care.
type Profile struct {
	ID ID
	// Preds is indexed by attribute position; entries with Op==0 or OpAny
	// are don't-care.
	Preds []Predicate
	// Priority weights user-centric optimization (paper §4.3: "faster
	// notifications for profiles with high priority"). Higher is more
	// important. Zero is the default weight 1.
	Priority float64
}

// New assembles a profile over schema s from the given predicates. Multiple
// predicates on the same attribute are rejected (conjunction within one
// attribute should be expressed as a range).
func New(s *schema.Schema, id ID, preds ...Predicate) (*Profile, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrEmptyProfile, id)
	}
	p := &Profile{ID: id, Preds: make([]Predicate, s.N())}
	specified := 0
	for _, pr := range preds {
		if pr.Attr < 0 || pr.Attr >= s.N() {
			return nil, fmt.Errorf("%w: attribute index %d out of range", ErrBadPredicate, pr.Attr)
		}
		if p.Preds[pr.Attr].Op != 0 {
			return nil, fmt.Errorf("%w: duplicate predicate on attribute %d", ErrBadPredicate, pr.Attr)
		}
		p.Preds[pr.Attr] = pr
		if pr.Op != OpAny {
			specified++
		}
	}
	if specified == 0 {
		return nil, fmt.Errorf("%w: all predicates are don't-care", ErrEmptyProfile)
	}
	return p, nil
}

// Pred returns the predicate on attribute i, or a don't-care if unspecified.
func (p *Profile) Pred(i int) Predicate {
	if i < 0 || i >= len(p.Preds) || p.Preds[i].Op == 0 {
		return Predicate{Attr: i, Op: OpAny}
	}
	return p.Preds[i]
}

// Constrains reports whether the profile specifies attribute i.
func (p *Profile) Constrains(i int) bool {
	return i >= 0 && i < len(p.Preds) && p.Preds[i].Op != 0 && p.Preds[i].Op != OpAny
}

// Weight returns the priority weight (1 when unset).
func (p *Profile) Weight() float64 {
	if p.Priority <= 0 {
		return 1
	}
	return p.Priority
}

// Matches reports whether the event values vals (indexed by attribute)
// satisfy every predicate of the profile.
func (p *Profile) Matches(vals []float64) bool {
	for i := range p.Preds {
		if p.Preds[i].Op == 0 || p.Preds[i].Op == OpAny {
			continue
		}
		if i >= len(vals) || !p.Preds[i].Matches(vals[i]) {
			return false
		}
	}
	return true
}

// Render prints the profile in the profile language with attribute names
// taken from the schema.
func (p *Profile) Render(s *schema.Schema) string {
	var b strings.Builder
	b.WriteString("profile(")
	first := true
	for i := range p.Preds {
		pr := p.Preds[i]
		if pr.Op == 0 {
			continue
		}
		if !first {
			b.WriteString("; ")
		}
		first = false
		name := s.At(i).Name
		switch pr.Op {
		case OpRange:
			fmt.Fprintf(&b, "%s in [%g,%g]", name, pr.Value, pr.Hi)
		case OpIn:
			parts := make([]string, len(pr.Set))
			for j, v := range pr.Set {
				parts[j] = fmt.Sprintf("%g", v)
			}
			fmt.Fprintf(&b, "%s in {%s}", name, strings.Join(parts, ","))
		case OpAny:
			fmt.Fprintf(&b, "%s = *", name)
		default:
			fmt.Fprintf(&b, "%s %s %g", name, pr.Op, pr.Value)
		}
	}
	b.WriteString(")")
	return b.String()
}
