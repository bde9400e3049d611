package wire

import (
	"bufio"
	"fmt"
)

// inbound is one connection's read half: the buffered stream plus the
// scratch frames decode into, reused from message to message.
type inbound struct {
	rd    *bufio.Reader
	buf   []byte      // frame payload
	vals  []float64   // publish vector
	batch [][]float64 // publish_batch vectors (a fresh block per frame: notifications retain them)
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

// slots maps attribute names to vector positions — the schema knowledge a
// client learns from the hello's answer.
type slots struct {
	names []string
	index map[string]int
}

func newSlots(names []string) *slots {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return &slots{names: names, index: idx}
}

// vectorOf converts an attribute map to a slot vector. It fails (second
// return false) unless the map names exactly the schema's attributes — a
// partial event relies on server-side defaults and must travel as JSON.
func (s *slots) vectorOf(m map[string]float64) ([]float64, bool) {
	if len(m) != len(s.names) {
		return nil, false
	}
	vec := make([]float64, len(s.names))
	for name, v := range m {
		i, ok := s.index[name]
		if !ok {
			return nil, false
		}
		vec[i] = v
	}
	return vec, true
}

// vectorsOf is vectorOf over a batch: all events convert, or none does.
func (s *slots) vectorsOf(ms []map[string]float64) ([][]float64, bool) {
	if len(ms) == 0 {
		return nil, false
	}
	batch := make([][]float64, len(ms))
	for i, m := range ms {
		var ok bool
		if batch[i], ok = s.vectorOf(m); !ok {
			return nil, false
		}
	}
	return batch, true
}

// mapOf is vectorOf's inverse; it fails on a vector of the wrong arity.
func (s *slots) mapOf(vec []float64) (map[string]float64, error) {
	if len(vec) != len(s.names) {
		return nil, fmt.Errorf("wire: %d values for %d attributes", len(vec), len(s.names))
	}
	m := make(map[string]float64, len(vec))
	for i, v := range vec {
		m[s.names[i]] = v
	}
	return m, nil
}
