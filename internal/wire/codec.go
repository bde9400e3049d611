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
	rd    *bufio.Reader
	buf   []byte      // frame payload
	vals  []float64   // publish or notification vector
	batch [][]float64 // publish_batch vectors, carved from block
	block []float64   // publish_batch values, reused from frame to frame: the broker copies what it keeps
	ids   []string    // the ids of a notification
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

// slots is the schema knowledge a client learns from the hello's answer:
// slot i of a vector is attribute i of the answer, which also carries the
// defaults.
type slots struct {
	attrs []AttrPayload
	index map[string]int // name → slot
}

func attrSlots(attrs []AttrPayload) *slots {
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		idx[a.Name] = i
	}
	return &slots{attrs: attrs, index: idx}
}

// vectorOf converts an attribute map to a slot vector, filling what it omits
// from the defaults. A name outside the schema fails with
// schema.ErrUnknownAttribute, an omitted attribute without a default with
// event.ErrArity.
func (s *slots) vectorOf(m map[string]float64) ([]float64, error) {
	vec := make([]float64, len(s.attrs))
	if err := s.fill(vec, m); err != nil {
		return nil, err
	}
	return vec, nil
}

// vectorsOf is vectorOf over a batch: all events convert, or the first that
// cannot names its index. The vectors are carved out of one block, each
// capped so that no append through one reaches the next.
func (s *slots) vectorsOf(ms []map[string]float64) ([][]float64, error) {
	n := len(s.attrs)
	block, batch := make([]float64, n*len(ms)), make([][]float64, len(ms))
	for i, m := range ms {
		batch[i] = block[i*n : (i+1)*n : (i+1)*n]
		if err := s.fill(batch[i], m); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return batch, nil
}

// fill writes m into the zeroed vec by slot and completes what m omits from
// the defaults.
func (s *slots) fill(vec []float64, m map[string]float64) error {
	for name, v := range m {
		i, ok := s.index[name]
		if !ok {
			return fmt.Errorf("%w: %q", schema.ErrUnknownAttribute, name)
		}
		vec[i] = v
	}
	if len(m) == len(vec) {
		return nil // one known name per slot: nothing is omitted
	}
	for i, a := range s.attrs {
		if _, ok := m[a.Name]; ok {
			continue
		}
		if a.Default == nil {
			return fmt.Errorf("%w: the event omits %s, which has no default", event.ErrArity, a.Name)
		}
		vec[i] = *a.Default
	}
	return nil
}

// holds reports whether m is vec's map, bit for bit.
func (s *slots) holds(m map[string]float64, vec []float64) bool {
	if m == nil || len(vec) != len(s.attrs) {
		return false
	}
	for i, v := range vec {
		if math.Float64bits(m[s.attrs[i].Name]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// mapOf is vectorOf's inverse; it fails on a vector of the wrong arity.
func (s *slots) mapOf(vec []float64) (map[string]float64, error) {
	if len(vec) != len(s.attrs) {
		return nil, fmt.Errorf("wire: %d values for %d attributes", len(vec), len(s.attrs))
	}
	m := make(map[string]float64, len(vec))
	for i, v := range vec {
		m[s.attrs[i].Name] = v
	}
	return m, nil
}
