// Package event models primitive events: occurrences of state transitions
// described as collections of (attribute, value) pairs (paper §3).
package event

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"genas/internal/schema"
	"genas/internal/sentinel"
)

// Errors reported by event construction and parsing. ErrArity wraps the
// public sentinel so arity mismatches stay errors.Is-matchable through the
// genas facade (genasvet: senterr).
var (
	ErrArity  = fmt.Errorf("event: %w", sentinel.ErrArity)
	ErrSyntax = errors.New("event: syntax error")
)

// Event is a primitive event. Values are indexed by schema attribute
// position; categorical attributes carry their integer codes.
type Event struct {
	// Vals holds one value per schema attribute.
	Vals []float64
	// Time is the occurrence time of the state transition.
	Time time.Time
	// Seq is a service-assigned sequence number (0 until published).
	Seq uint64
}

// Validate checks a schema-order value vector: arity first, then every slot
// against its attribute's domain. It is the one validation every ingestion
// path shares (event construction, the service facade, the wire server and
// peer links) and allocates nothing for a well-formed vector.
//
//genas:hotpath
func Validate(s *schema.Schema, vals []float64) error {
	if len(vals) != s.N() {
		//genas:allow hotpath cold arity-error branch; well-formed events pass without allocating
		return fmt.Errorf("%w: got %d values for %d attributes", ErrArity, len(vals), s.N())
	}
	for i, v := range vals {
		if err := s.Validate(i, v); err != nil {
			return err
		}
	}
	return nil
}

// New validates vals against s and returns the event.
func New(s *schema.Schema, vals ...float64) (Event, error) {
	if err := Validate(s, vals); err != nil {
		return Event{}, err
	}
	e := Event{Vals: make([]float64, len(vals))}
	copy(e.Vals, vals)
	return e, nil
}

// FromMap builds a schema-validated event from attribute name → value.
// Every schema attribute must be present: silently zero-filling an omitted
// attribute would fabricate data. The service facade and the wire server
// share this one validation path.
func FromMap(s *schema.Schema, values map[string]float64) (Event, error) {
	return FromMapWith(s, values, nil)
}

// Defaults is an explicit, opt-in fill-in for omitted event attributes: each
// configured attribute gets the given value when a publisher leaves it out.
// Attributes without a default remain mandatory. Construct once per service;
// safe for concurrent use (read-only after construction).
type Defaults struct {
	vals []float64
	has  []bool
}

// NewDefaults validates the per-attribute defaults against the schema.
func NewDefaults(s *schema.Schema, byName map[string]float64) (*Defaults, error) {
	d := &Defaults{vals: make([]float64, s.N()), has: make([]bool, s.N())}
	for name, v := range byName {
		i, err := s.Index(name)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(i, v); err != nil {
			return nil, fmt.Errorf("default for %s: %w", name, err)
		}
		d.vals[i] = v
		d.has[i] = true
	}
	return d, nil
}

// Fill writes the default value of every attribute that is unseen yet has a
// default, marking it seen, and reports how many attributes remain unseen.
// A nil receiver fills nothing.
func (d *Defaults) Fill(vals []float64, seen []bool) (missing int) {
	for i := range seen {
		if !seen[i] && d != nil && d.has[i] {
			vals[i] = d.vals[i]
			seen[i] = true
		}
		if !seen[i] {
			missing++
		}
	}
	return missing
}

// FromMapWith is FromMap with optional defaults for omitted attributes
// (nil d means every attribute is mandatory).
func FromMapWith(s *schema.Schema, values map[string]float64, d *Defaults) (Event, error) {
	vals := make([]float64, s.N())
	seen := make([]bool, s.N())
	for name, v := range values {
		i, err := s.Index(name)
		if err != nil {
			return Event{}, err
		}
		vals[i] = v
		seen[i] = true
	}
	if missing := d.Fill(vals, seen); missing > 0 {
		return Event{}, fmt.Errorf("%w: event specifies %d of %d attributes", ErrArity, s.N()-missing, s.N())
	}
	return New(s, vals...)
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(s *schema.Schema, vals ...float64) Event {
	e, err := New(s, vals...)
	if err != nil {
		panic(err)
	}
	return e
}

// At returns the value of attribute i.
func (e Event) At(i int) float64 { return e.Vals[i] }

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	c := e
	c.Vals = make([]float64, len(e.Vals))
	copy(c.Vals, e.Vals)
	return c
}

// Render prints the event in the paper's notation with attribute names.
func (e Event) Render(s *schema.Schema) string {
	var b strings.Builder
	b.WriteString("event(")
	for i, v := range e.Vals {
		if i > 0 {
			b.WriteString("; ")
		}
		a := s.At(i)
		if a.Domain.Kind() == schema.KindCategorical {
			if l, ok := a.Domain.Label(int(v)); ok {
				fmt.Fprintf(&b, "%s=%s", a.Name, l)
				continue
			}
		}
		fmt.Fprintf(&b, "%s=%g", a.Name, v)
	}
	b.WriteString(")")
	return b.String()
}

// Parse reads the paper's event notation: "event(temperature=30; humidity=90;
// radiation=2)". Attributes may appear in any order; all must be present.
func Parse(s *schema.Schema, text string) (Event, error) {
	body := strings.TrimSpace(text)
	if strings.HasPrefix(body, "event(") {
		if !strings.HasSuffix(body, ")") {
			return Event{}, fmt.Errorf("%w: missing closing parenthesis in %q", ErrSyntax, text)
		}
		body = body[len("event(") : len(body)-1]
	}
	vals := make([]float64, s.N())
	seen := make([]bool, s.N())
	for _, part := range strings.Split(body, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return Event{}, fmt.Errorf("%w: missing '=' in %q", ErrSyntax, part)
		}
		name := strings.TrimSpace(part[:eq])
		valTok := strings.TrimSpace(part[eq+1:])
		i, err := s.Index(name)
		if err != nil {
			return Event{}, err
		}
		if seen[i] {
			return Event{}, fmt.Errorf("%w: duplicate attribute %q", ErrSyntax, name)
		}
		dom := s.At(i).Domain
		var v float64
		if dom.Kind() == schema.KindCategorical {
			if c, ok := dom.Code(valTok); ok {
				v = float64(c)
			} else if f, err := strconv.ParseFloat(valTok, 64); err == nil {
				v = f
			} else {
				return Event{}, fmt.Errorf("%w: unknown label %q for %s", ErrSyntax, valTok, name)
			}
		} else {
			f, err := strconv.ParseFloat(valTok, 64)
			if err != nil {
				return Event{}, fmt.Errorf("%w: bad number %q for %s", ErrSyntax, valTok, name)
			}
			v = f
		}
		vals[i] = v
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			return Event{}, fmt.Errorf("%w: attribute %q missing", ErrSyntax, s.At(i).Name)
		}
	}
	return New(s, vals...)
}
