package wire

import (
	"bufio"
	"fmt"
	"math"

	"genas/internal/event"
	"genas/internal/schema"
)

// inbound is one connection's read half: the buffered stream plus the
// scratch frames decode into, reused from message to message.
type inbound struct {
	rd     *bufio.Reader
	buf    []byte      // frame payload
	vals   []float64   // publish or notification vector
	batch  [][]float64 // publish_batch vectors, carved from block
	block  []float64   // publish_batch values, reused from frame to frame: the broker copies what it keeps
	ids    []string    // the ids of a notification
	counts []int       // a publish_batch acknowledgement's counts
	// size is the wire size of the message read last.
	size int
	// interned holds the id strings of the notifications read so far (a
	// client's read half only): a subscriber is notified of the same ids over
	// and over, and only the first sighting allocates the string.
	interned map[string]string
}

// maxInterned bounds inbound.interned; a full table starts over, so ids
// that churned away do not pin it.
const maxInterned = 1 << 16

// id returns a notified id as a string without allocating it twice.
func (in *inbound) id(b []byte) string {
	s, ok := in.interned[string(b)]
	if !ok {
		if in.interned == nil || len(in.interned) >= maxInterned {
			in.interned = make(map[string]string)
		}
		s = string(b)
		in.interned[s] = s
	}
	return s
}

// helloSchema rebuilds the daemon's schema and defaults from the attributes
// of the hello's answer, as schemaPayload's inverse: slot i of a vector is
// attribute i. Attributes that form no valid schema (an unknown kind, lo ≥ hi,
// bounds or labels that disagree with the kind, a repeated name, a default
// outside its domain) fail.
func helloSchema(attrs []AttrPayload) (*schema.Schema, *event.Defaults, error) {
	as := make([]schema.Attribute, len(attrs))
	defaults := make(map[string]float64)
	for i, a := range attrs {
		var dom schema.Domain
		var err error
		switch a.Kind {
		case schema.KindNumeric.String():
			dom, err = schema.NewNumericDomain(a.Lo, a.Hi)
		case schema.KindInteger.String():
			dom, err = schema.NewIntegerDomain(int(a.Lo), int(a.Hi))
		case schema.KindCategorical.String():
			dom, err = schema.NewCategoricalDomain(a.Labels...)
		default:
			err = fmt.Errorf("%w: kind %q", schema.ErrBadDomain, a.Kind)
		}
		if err == nil && (dom.Lo() != a.Lo || dom.Hi() != a.Hi) {
			err = fmt.Errorf("%w: %s for bounds [%g,%g]", schema.ErrBadDomain, dom, a.Lo, a.Hi)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		as[i] = schema.Attribute{Name: a.Name, Domain: dom}
		if a.Default != nil {
			defaults[a.Name] = *a.Default
		}
	}
	sch, err := schema.New(as...)
	if err != nil {
		return nil, nil, err
	}
	d, err := event.NewDefaults(sch, defaults)
	return sch, d, err
}

// holds reports whether m is vec's map, bit for bit.
func holds(s *schema.Schema, m map[string]float64, vec []float64) bool {
	if m == nil || len(vec) != s.N() {
		return false
	}
	for i, v := range vec {
		if math.Float64bits(m[s.At(i).Name]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// mapOf names vec's slots by attribute; it fails on a vector of the wrong
// arity.
func mapOf(s *schema.Schema, vec []float64) (map[string]float64, error) {
	if len(vec) != s.N() {
		return nil, fmt.Errorf("wire: %d values for %d attributes", len(vec), s.N())
	}
	m := make(map[string]float64, len(vec))
	for i, v := range vec {
		m[s.At(i).Name] = v
	}
	return m, nil
}
