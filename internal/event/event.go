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

// Complete writes the partial event m (attribute name → value) into vals,
// one slot per schema attribute, and fills what m omits from d (nil: no
// defaults): silently zero-filling an omitted attribute would fabricate
// data. A name outside the schema fails with schema.ErrUnknownAttribute, an
// omitted attribute without a default with ErrArity. It makes one lookup per
// name, allocates only to fail and checks no domain. The service facade and
// the wire client complete maps through it.
func Complete(s *schema.Schema, vals []float64, m map[string]float64, d *Defaults) error {
	for name, v := range m {
		i, err := s.Index(name)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	if len(m) == len(vals) {
		return nil // one known name per slot: nothing is omitted
	}
	for i := range vals {
		name := s.At(i).Name
		if _, ok := m[name]; ok {
			continue
		}
		if d == nil || !d.has[i] {
			return fmt.Errorf("%w: the event omits %s, which has no default", ErrArity, name)
		}
		vals[i] = d.vals[i]
	}
	return nil
}

// FromMapWith builds a schema-validated event from attribute name → value,
// completed from d as Complete does.
func FromMapWith(s *schema.Schema, values map[string]float64, d *Defaults) (Event, error) {
	vals := make([]float64, s.N())
	if err := Complete(s, vals, values, d); err != nil {
		return Event{}, err
	}
	if err := Validate(s, vals); err != nil {
		return Event{}, err
	}
	return Event{Vals: vals}, nil
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

// Scan walks the paper's event notation, "event(temperature=30; humidity=90;
// state=alarm)" or its body alone, into a partial event: attribute name →
// value, in any order, each name at most once. A value is a number, or a
// label of the named categorical attribute. Names are resolved when the event
// is completed (Complete), so an omitted or unknown attribute passes here.
func Scan(s *schema.Schema, text string) (map[string]float64, error) {
	body := strings.TrimSpace(text)
	if strings.HasPrefix(body, "event(") {
		if !strings.HasSuffix(body, ")") {
			return nil, fmt.Errorf("%w: missing closing parenthesis in %q", ErrSyntax, text)
		}
		body = body[len("event(") : len(body)-1]
	}
	m := make(map[string]float64)
	for _, part := range strings.Split(body, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, tok, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: missing '=' in %q", ErrSyntax, part)
		}
		name, tok = strings.TrimSpace(name), strings.TrimSpace(tok)
		if _, dup := m[name]; dup {
			return nil, fmt.Errorf("%w: duplicate attribute %q", ErrSyntax, name)
		}
		v, err := strconv.ParseFloat(tok, 64)
		if i, unknown := s.Index(name); unknown == nil {
			if c, isLabel := s.At(i).Domain.Code(tok); isLabel {
				v, err = float64(c), nil
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %q is neither a number nor a label of %s", ErrSyntax, tok, name)
		}
		m[name] = v
	}
	return m, nil
}

// Parse reads the event notation (Scan) and completes and validates the
// event, filling omitted attributes from d (nil: all must be present).
func Parse(s *schema.Schema, text string, d *Defaults) (Event, error) {
	m, err := Scan(s, text)
	if err != nil {
		return Event{}, err
	}
	return FromMapWith(s, m, d)
}
