// Package wire defines the protocol spoken between the GENAS daemon
// (cmd/genasd), its clients (cmd/genas) and its peers: Request and Response
// messages, carried as length-prefixed binary frames (frame.go) after one
// JSON hello line in each direction. Every connection, at either end, runs one
// reader and sends through one Outbox (outbox.go): one writer, one write per
// burst and one slow-consumer rule; a connection's notifications wait in one
// queue however many subscriptions it holds, a session's (server.go) and a
// client's (client.go) alike. The protocol
// carries the generic service's runtime definitions — profiles in the profile
// language, events in the event notation — so "all events, attributes,
// domains, and compare operators can be created and specified at runtime"
// (paper §4.2).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"genas/internal/stats"
)

// Proto names a wire protocol generation. There is one: DialConfig.Proto
// selects nothing and is kept so that callers naming ProtoV2 still compile.
type Proto int

// ProtoV2 is the binary frame protocol (see frame.go): length-prefixed
// frames, schema-indexed event vectors, correlation-id pipelining. A hello
// must advertise it.
const ProtoV2 Proto = 2

// Op enumerates request operations.
type Op string

// Request operations.
const (
	OpSubscribe   Op = "subscribe"
	OpUnsubscribe Op = "unsubscribe"
	OpPublish     Op = "publish"
	// OpPublishBatch posts several events in one frame; the broker filters
	// them against one corpus snapshot and assigns contiguous sequence
	// numbers in frame order.
	OpPublishBatch Op = "publish_batch"
	OpStats        Op = "stats"
	OpQuench       Op = "quench"
	OpSchema       Op = "schema"
	OpProfiles     Op = "profiles"
	OpPing         Op = "ping"
)

// OpHello is the first line of every connection and carries Proto. A
// client's hello names no node, and the server answers with the schema and
// its defaults. A peer's opens a peer link: Node carries the sender's overlay
// node name, Schema its schema rendering (both daemons must agree), and the
// acceptor answers with its own hello. After a peer handshake the link is a
// symmetric stream of peer frames (frame.go), never requests.
const OpHello Op = "hello"

// Request is one client→server message.
type Request struct {
	Op Op `json:"op"`
	// ID identifies the profile for subscribe/unsubscribe.
	ID string `json:"id,omitempty"`
	// Profile is a profile-language expression for subscribe.
	Profile string `json:"profile,omitempty"`
	// Priority weights the profile for user-centric optimization.
	Priority float64 `json:"priority,omitempty"`
	// Attr/Lo/Hi describe a quench query region.
	Attr string  `json:"attr,omitempty"`
	Lo   float64 `json:"lo,omitempty"`
	Hi   float64 `json:"hi,omitempty"`
	// Node is the sender's overlay node name (peer hellos).
	Node string `json:"node,omitempty"`
	// Schema is the sender's schema rendering, checked for equality during
	// the peer handshake (peer hellos).
	Schema string `json:"schema,omitempty"`
	// Proto advertises the sender's protocol generation in a hello; a hello
	// without proto ≥ 2 is refused.
	Proto int `json:"proto,omitempty"`
	// Vals and Batch carry a publish or publish_batch payload as schema-order
	// vectors, the only form an event takes in a request. Never on the wire
	// under these names: frames carry them in binary (a decoded vector
	// aliases the connection's read scratch and is valid until the next
	// read), so a publish that arrived as JSON has neither.
	Vals  []float64   `json:"-"`
	Batch [][]float64 `json:"-"`
}

// MsgType enumerates server→client message types.
type MsgType string

// Response message types.
const (
	MsgOK           MsgType = "ok"
	MsgError        MsgType = "error"
	MsgNotification MsgType = "notification"
	MsgStats        MsgType = "stats"
	MsgSchema       MsgType = "schema"
	MsgPong         MsgType = "pong"
)

// Response is one server→client message.
type Response struct {
	Type MsgType `json:"type"`
	// Op echoes the request operation for MsgOK/MsgError.
	Op Op `json:"op,omitempty"`
	// Error carries the failure text for MsgError.
	Error string `json:"error,omitempty"`
	// Profile echoes the subscription id of a subscribe or unsubscribe.
	Profile string `json:"profile,omitempty"`
	// Seq is the broker sequence number of the notified event.
	Seq uint64 `json:"seq,omitempty"`
	// Matched reports how many profiles a published event matched (for a
	// batch: the sum over the frame).
	Matched int `json:"matched,omitempty"`
	// MatchedEach reports per-event match counts for publish_batch,
	// positionally aligned with the request's Batch. A client's lives in the
	// request's waiter, valid until the waiter is released.
	MatchedEach []int `json:"matched_each,omitempty"`
	// Quenched answers quench queries.
	Quenched bool `json:"quenched,omitempty"`
	// Stats carries broker statistics.
	Stats *StatsPayload `json:"stats,omitempty"`
	// Attributes lists the schema for MsgSchema.
	Attributes []AttrPayload `json:"attributes,omitempty"`
	// Profiles lists registered subscriptions for OpProfiles.
	Profiles []ProfilePayload `json:"profiles,omitempty"`
	// Proto confirms protocol v2 in the answer to a hello.
	Proto int `json:"proto,omitempty"`
	// IDs lists the subscriptions of a connection one event matched (Profile
	// is then unset): what a notification frame carries and decodes to (valid
	// until the next read). Never on the wire under this name.
	IDs []string `json:"-"`
	// Vals is the notification payload as a schema-order vector (valid until
	// the next read). Never on the wire under this name: notification frames
	// carry it in binary.
	Vals []float64 `json:"-"`
}

// ProfilePayload describes one registered profile on the wire.
type ProfilePayload struct {
	ID       string  `json:"id"`
	Expr     string  `json:"expr"`
	Priority float64 `json:"priority,omitempty"`
}

// StatsPayload is the stats reply: the one stats record, which the broker
// fills and the server completes with the overlay and wire counters.
type StatsPayload = stats.Record

// AttrPayload describes one schema attribute on the wire.
type AttrPayload struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	// Labels lists categorical values in code order.
	Labels []string `json:"labels,omitempty"`
	// Default is the value the daemon's clients fill in when a published
	// event omits the attribute (nil: the attribute is mandatory).
	Default *float64 `json:"default,omitempty"`
}

// ErrBadMessage reports JSON — a hello line or a control frame's payload —
// that does not decode as a message.
var ErrBadMessage = errors.New("wire: bad message")

// EncodeLine marshals a message and appends '\n'.
func EncodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeRequest parses one JSON request: a hello line or a control frame's
// payload.
func DecodeRequest(line []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(line, &r); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if r.Op == "" {
		return Request{}, fmt.Errorf("%w: missing op", ErrBadMessage)
	}
	return r, nil
}

// DecodeResponse parses one JSON response: a hello's answer or a control
// frame's payload.
func DecodeResponse(line []byte) (Response, error) {
	var r Response
	if err := json.Unmarshal(line, &r); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if r.Type == "" {
		return Response{}, fmt.Errorf("%w: missing type", ErrBadMessage)
	}
	return r, nil
}
