// Package wire defines the protocol spoken between the GENAS daemon
// (cmd/genasd), its clients (cmd/genas) and its peers: Request and Response
// messages, carried as length-prefixed binary frames (frame.go) after one
// JSON hello line in each direction. The server delivers per connection — one
// queue, one forwarder and one write per burst, however many subscriptions the
// connection holds (server.go). The protocol
// carries the generic service's runtime definitions — profiles in the profile
// language, events in the event notation — so "all events, attributes,
// domains, and compare operators can be created and specified at runtime"
// (paper §4.2).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"genas/internal/event"
	"genas/internal/schema"
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

// Peer (daemon-to-daemon) operations. A federated daemon identifies itself
// with a hello line that names its node; after the handshake
// the link is a symmetric stream of peer frames in both directions (no
// responses): route_add/route_withdraw propagate profiles toward potential
// publishers, forward carries an event across the link once that link's
// routing filter matched it — so "unnecessary event information is rejected
// as early as possible" (paper §5) at every hop.
const (
	// OpHello is the first line of every connection and carries Proto. A
	// client's hello names no node, and the server answers with the schema. A
	// peer's opens a peer link: Node carries the sender's overlay node name,
	// Schema its schema rendering (both daemons must agree), and the acceptor
	// answers with its own hello.
	OpHello Op = "hello"
	// OpRouteAdd announces a profile subscribed in the sender's direction:
	// ID, Profile (profile language) and Priority describe it.
	OpRouteAdd Op = "route_add"
	// OpRouteWithdraw retracts a previously announced route by ID.
	OpRouteWithdraw Op = "route_withdraw"
	// OpForward carries one event across the link (a vector). It is
	// fire-and-forget: the receiving daemon delivers locally and forwards on
	// over its own matching links.
	OpForward Op = "forward"
)

// Request is one client→server message.
type Request struct {
	Op Op `json:"op"`
	// ID identifies the profile for subscribe/unsubscribe.
	ID string `json:"id,omitempty"`
	// Profile is a profile-language expression for subscribe.
	Profile string `json:"profile,omitempty"`
	// Priority weights the profile for user-centric optimization.
	Priority float64 `json:"priority,omitempty"`
	// Event carries publish payloads as attribute name → value.
	Event map[string]float64 `json:"event,omitempty"`
	// Events carries a publish_batch payload: one event per element, each as
	// attribute name → value.
	Events []map[string]float64 `json:"events,omitempty"`
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
	// Vals and Batch carry a publish, forward or publish_batch payload as
	// schema-order vectors. Never on the wire under these names: frames carry
	// them in binary (a decoded vector aliases the connection's read scratch
	// and is valid until the next read).
	Vals  []float64   `json:"-"`
	Batch [][]float64 `json:"-"`
}

// EventVals resolves a publish payload to a validated schema-order vector:
// the vector the frame carried when there is one, else
// the attribute map completed from d (nil: every attribute is mandatory).
func (r *Request) EventVals(sch *schema.Schema, d *event.Defaults) ([]float64, error) {
	if r.Vals != nil {
		return r.Vals, event.Validate(sch, r.Vals)
	}
	ev, err := event.FromMapWith(sch, r.Event, d)
	return ev.Vals, err
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
	// Profile identifies the matched subscription for notifications.
	Profile string `json:"profile,omitempty"`
	// Event is the notification payload (attribute name → value).
	Event map[string]float64 `json:"event,omitempty"`
	// Seq is the broker sequence number of the notified event.
	Seq uint64 `json:"seq,omitempty"`
	// Matched reports how many profiles a published event matched (for a
	// batch: the sum over the frame).
	Matched int `json:"matched,omitempty"`
	// MatchedEach reports per-event match counts for publish_batch,
	// positionally aligned with the request's Events.
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
	// Vals is the notification payload as a schema-order vector. Never on the
	// wire under this name: notification frames carry it in binary.
	Vals []float64 `json:"-"`
}

// ProfilePayload describes one registered profile on the wire.
type ProfilePayload struct {
	ID       string  `json:"id"`
	Expr     string  `json:"expr"`
	Priority float64 `json:"priority,omitempty"`
}

// StatsPayload mirrors broker.Stats on the wire, plus the federation link
// counters when the daemon is peered.
type StatsPayload struct {
	Subscriptions int     `json:"subscriptions"`
	Published     uint64  `json:"published"`
	Delivered     uint64  `json:"delivered"`
	Dropped       uint64  `json:"dropped"`
	FilterEvents  uint64  `json:"filter_events"`
	FilterOps     uint64  `json:"filter_ops"`
	MeanOps       float64 `json:"mean_ops"`
	Restructures  int     `json:"restructures,omitempty"`
	// Aggregation counters (aggregated is always true): distinct canonical
	// predicate nodes, uncovered roots the automaton indexes, the longest
	// covering chain, and subscriptions-per-canonical-node.
	Aggregated           bool    `json:"aggregated,omitempty"`
	CanonicalNodes       int     `json:"canonical_nodes,omitempty"`
	CanonicalRoots       int     `json:"canonical_roots,omitempty"`
	PosetDepth           int     `json:"poset_depth,omitempty"`
	ProfilesPerCanonical float64 `json:"profiles_per_canonical,omitempty"`
	// Node names this daemon in the overlay (federated daemons only).
	Node string `json:"fed_node,omitempty"`
	// Peers counts live peer links.
	Peers int `json:"peers,omitempty"`
	// Forwarded counts events sent over peer links; Filtered counts link
	// crossings avoided by early rejection at this daemon's links.
	Forwarded uint64 `json:"forwarded,omitempty"`
	Filtered  uint64 `json:"peer_filtered,omitempty"`
	// BytesPerEventWire is the mean wire bytes per event received on
	// publish/publish_batch frames, measured at the server.
	BytesPerEventWire float64 `json:"bytes_per_event_wire,omitempty"`
	// FramesPipelined counts request frames that were already buffered
	// behind the one being served — depth>1 pipelining observed on the wire.
	FramesPipelined uint64 `json:"frames_pipelined,omitempty"`
}

// AttrPayload describes one schema attribute on the wire.
type AttrPayload struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	// Labels lists categorical values in code order.
	Labels []string `json:"labels,omitempty"`
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
