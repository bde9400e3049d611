package wire

import (
	"bufio"
	"fmt"

	"genas/internal/schema"
)

// codec is the one seam that knows which bytes are on a connection. It has
// two implementations, lineCodec (line.go) and frameCodec (frame.go); the
// server, client and peer-link session loops hold a codec and never ask
// which. Vectors enter and leave through the Vals and Batch fields, so the
// frame codec builds no attribute map and the line codec builds the map
// itself. Both implementations are stateless values: per-connection read
// state lives in the Inbound they are handed, the schema in the slots.
type codec interface {
	// readRequest reads the next request and its correlation id. An error
	// wrapping ErrBadMessage left the stream intact; any other ends it.
	readRequest(in *Inbound) (cid uint32, req Request, err error)
	// readResponse reads the next response. Notifications carry cid 0.
	readResponse(in *Inbound) (cid uint32, resp Response, err error)
	// appendRequest appends one encoded request to dst.
	appendRequest(dst []byte, cid uint32, req Request, sl *slots) ([]byte, error)
	// appendResponse appends one encoded response to dst.
	appendResponse(dst []byte, cid uint32, resp Response, sl *slots) ([]byte, error)
	// eventSize bounds the encoded size of one event of a publish_batch.
	eventSize(sl *slots) int
}

// Inbound is one connection's read half: the buffered stream plus the
// scratch a codec decodes into, reused from message to message.
type Inbound struct {
	rd    *bufio.Reader
	buf   []byte      // frame payload
	vals  []float64   // publish or forward vector
	batch [][]float64 // publish_batch vectors (a fresh block per frame: notifications retain them)
	ids   []string    // the ids of a grouped notification
	// size is the wire size of the message read last.
	size int
	// replies counts the replies read so far. The line protocol carries no
	// correlation ids and answers in request order: reply k answers request k.
	replies uint32
	// interned holds the id strings of the notifications read so far (a
	// client's read half only): a subscriber is notified of the same ids over
	// and over, and only the first sighting allocates the string.
	interned map[string]string
}

// NewInbound wraps a connection's buffered reader.
func NewInbound(rd *bufio.Reader) *Inbound { return &Inbound{rd: rd} }

// maxInterned bounds Inbound.interned; a full table starts over, so ids
// that churned away do not pin it.
const maxInterned = 1 << 16

// id returns a notified id as a string without allocating it twice.
func (in *Inbound) id(b []byte) string {
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

// slots maps attribute names to vector positions — the schema knowledge the
// two ends of a connection share.
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

func schemaSlots(sch *schema.Schema) *slots {
	names := make([]string, sch.N())
	for i := range names {
		names[i] = sch.At(i).Name
	}
	return newSlots(names)
}

// vectorOf converts an attribute map to a slot vector. It fails (second
// return false) unless the map names exactly the schema's attributes — a
// partial event relies on server-side defaults and must travel as JSON. A
// nil receiver (schema not known yet) converts nothing.
func (s *slots) vectorOf(m map[string]float64) ([]float64, bool) {
	if s == nil || len(m) != len(s.names) {
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
	if s == nil {
		return nil, fmt.Errorf("wire: schema unknown: cannot name %d values", len(vec))
	}
	if len(vec) != len(s.names) {
		return nil, fmt.Errorf("wire: %d values for %d attributes", len(vec), len(s.names))
	}
	m := make(map[string]float64, len(vec))
	for i, v := range vec {
		m[s.names[i]] = v
	}
	return m, nil
}

// Codec is the handle another package (federation's peer links) holds on a
// negotiated encoding: a codec bound to a schema. Values are comparable —
// two links speak the same bytes exactly when their Codecs are equal — so an
// event fanned out over many links is encoded once per distinct Codec.
type Codec struct {
	c  codec
	sl *slots
}

// LineCodec returns the JSON-line (v1) encoding over sch.
func LineCodec(sch *schema.Schema) Codec { return Codec{lineCodec{}, schemaSlots(sch)} }

// FrameCodec returns the binary frame (v2) encoding over sch.
func FrameCodec(sch *schema.Schema) Codec { return Codec{frameCodec{}, schemaSlots(sch)} }

// ReadRequest reads the next peer message. A vector payload aliases the
// read scratch and is valid until the next call. An error wrapping
// ErrBadMessage left the stream intact; any other ends the link.
func (c Codec) ReadRequest(in *Inbound) (Request, error) {
	_, req, err := c.c.readRequest(in)
	return req, err
}

// AppendRequest appends one encoded peer message to dst.
func (c Codec) AppendRequest(dst []byte, req Request) ([]byte, error) {
	return c.c.appendRequest(dst, 0, req, c.sl)
}
