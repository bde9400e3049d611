// Package schema defines attribute schemas for events and profiles.
//
// An event notification service instance operates over a firm set A of
// attributes a_j with values belonging to given domains D_j (paper §3).
// Domains are numeric intervals (continuous or integer-gridded) or
// categorical value sets. Categorical values are encoded as integer codes so
// that all downstream machinery (subrange decomposition, profile trees,
// distributions) operates uniformly over one-dimensional numeric space.
package schema

import (
	"fmt"
	"math"
	"strings"

	"genas/internal/sentinel"
)

// Kind discriminates domain families.
type Kind int

// Domain kinds. Enums start at one so the zero value is invalid and cannot be
// mistaken for a real kind.
const (
	KindNumeric Kind = iota + 1
	KindInteger
	KindCategorical
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNumeric:
		return "numeric"
	case KindInteger:
		return "integer"
	case KindCategorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors reported by schema construction and validation. The lookup and
// domain errors wrap the canonical public sentinels, so errors.Is against
// the re-exported genas values succeeds wherever these surface.
var (
	ErrEmptySchema      = fmt.Errorf("schema: no attributes: %w", sentinel.ErrBadSchema)
	ErrDuplicateAttr    = fmt.Errorf("schema: duplicate attribute name: %w", sentinel.ErrBadSchema)
	ErrUnknownAttribute = fmt.Errorf("schema: %w", sentinel.ErrUnknownAttribute)
	ErrBadDomain        = fmt.Errorf("schema: invalid domain: %w", sentinel.ErrBadSchema)
	ErrValueOutOfDomain = fmt.Errorf("schema: %w", sentinel.ErrOutOfDomain)
)

// Domain describes the value set D_j of one attribute.
//
// For numeric domains Size is the interval length hi−lo (the measure used by
// the paper: the temperature domain [−30,50] has size 80). For integer and
// categorical domains Size is the number of distinct values.
type Domain struct {
	kind Kind
	lo   float64
	hi   float64
	// cats maps categorical labels to codes; codes maps back.
	cats  map[string]int
	codes []string
}

// NewNumericDomain returns the continuous interval domain [lo, hi].
func NewNumericDomain(lo, hi float64) (Domain, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return Domain{}, fmt.Errorf("%w: bounds must be finite, got [%v,%v]", ErrBadDomain, lo, hi)
	}
	if lo >= hi {
		return Domain{}, fmt.Errorf("%w: lo %v must be < hi %v", ErrBadDomain, lo, hi)
	}
	return Domain{kind: KindNumeric, lo: lo, hi: hi}, nil
}

// NewIntegerDomain returns the integer-gridded domain {lo, lo+1, …, hi}.
func NewIntegerDomain(lo, hi int) (Domain, error) {
	if lo >= hi {
		return Domain{}, fmt.Errorf("%w: lo %d must be < hi %d", ErrBadDomain, lo, hi)
	}
	return Domain{kind: KindInteger, lo: float64(lo), hi: float64(hi)}, nil
}

// NewCategoricalDomain returns a domain over the given labels. Labels are
// encoded as codes 0..len−1 in the given order.
func NewCategoricalDomain(labels ...string) (Domain, error) {
	if len(labels) < 2 {
		return Domain{}, fmt.Errorf("%w: need at least 2 labels, got %d", ErrBadDomain, len(labels))
	}
	cats := make(map[string]int, len(labels))
	codes := make([]string, len(labels))
	for i, l := range labels {
		if l == "" {
			return Domain{}, fmt.Errorf("%w: empty label at index %d", ErrBadDomain, i)
		}
		if _, dup := cats[l]; dup {
			return Domain{}, fmt.Errorf("%w: duplicate label %q", ErrBadDomain, l)
		}
		cats[l] = i
		codes[i] = l
	}
	return Domain{kind: KindCategorical, lo: 0, hi: float64(len(labels) - 1), cats: cats, codes: codes}, nil
}

// Kind reports the domain family.
func (d Domain) Kind() Kind { return d.kind }

// Lo returns the numeric lower bound (0 for categorical).
func (d Domain) Lo() float64 { return d.lo }

// Hi returns the numeric upper bound (len−1 for categorical).
func (d Domain) Hi() float64 { return d.hi }

// Size returns the domain size d_j: interval length for numeric domains,
// value count for integer and categorical domains.
func (d Domain) Size() float64 {
	switch d.kind {
	case KindNumeric:
		return d.hi - d.lo
	case KindInteger, KindCategorical:
		return d.hi - d.lo + 1
	default:
		return 0
	}
}

// Contains reports whether x lies inside the domain. For integer domains x
// must be integral; for categorical domains x must be a valid code. NaN lies
// in no domain.
func (d Domain) Contains(x float64) bool {
	if !(x >= d.lo && x <= d.hi) {
		return false
	}
	switch d.kind {
	case KindInteger, KindCategorical:
		return x == math.Trunc(x)
	default:
		return true
	}
}

// Code returns the integer code of a categorical label.
func (d Domain) Code(label string) (int, bool) {
	c, ok := d.cats[label]
	return c, ok
}

// Label returns the categorical label of a code.
func (d Domain) Label(code int) (string, bool) {
	if code < 0 || code >= len(d.codes) {
		return "", false
	}
	return d.codes[code], true
}

// Labels returns a copy of the categorical labels in code order (nil for
// non-categorical domains).
func (d Domain) Labels() []string {
	if d.codes == nil {
		return nil
	}
	out := make([]string, len(d.codes))
	copy(out, d.codes)
	return out
}

// Interval returns the domain extent as a closed interval.
func (d Domain) Interval() Interval { return Closed(d.lo, d.hi) }

// String renders the domain for diagnostics.
func (d Domain) String() string {
	switch d.kind {
	case KindCategorical:
		return "{" + strings.Join(d.codes, ",") + "}"
	case KindInteger:
		return fmt.Sprintf("int[%g,%g]", d.lo, d.hi)
	default:
		return fmt.Sprintf("[%g,%g]", d.lo, d.hi)
	}
}

// Attribute is a named, typed event/profile attribute.
type Attribute struct {
	Name   string
	Domain Domain
}

// Schema is the ordered attribute set of one service instance. The order of
// attributes is the "natural" attribute order a_1 … a_n referenced throughout
// the paper; tree construction may apply a different order on top.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// New builds a schema from the given attributes.
func New(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, ErrEmptySchema
	}
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("%w: attribute %d has empty name", ErrBadDomain, i)
		}
		if a.Domain.kind == 0 {
			return nil, fmt.Errorf("%w: attribute %q has unset domain", ErrBadDomain, a.Name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateAttr, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustNew is New that panics on error, for tests and static configuration.
func MustNew(attrs ...Attribute) *Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of attributes n.
func (s *Schema) N() int { return len(s.attrs) }

// At returns the i-th attribute.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Attributes returns a copy of the attribute list.
func (s *Schema) Attributes() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownAttribute, name)
	}
	return i, nil
}

// Validate checks that x is a legal value for attribute i.
func (s *Schema) Validate(i int, x float64) error {
	if i < 0 || i >= len(s.attrs) {
		return fmt.Errorf("%w: index %d", ErrUnknownAttribute, i)
	}
	if !s.attrs[i].Domain.Contains(x) {
		return fmt.Errorf("%w: %v not in %s %s", ErrValueOutOfDomain, x, s.attrs[i].Name, s.attrs[i].Domain)
	}
	return nil
}

// String renders the schema for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("schema(")
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(a.Name)
		b.WriteString(":")
		b.WriteString(a.Domain.String())
	}
	b.WriteString(")")
	return b.String()
}
