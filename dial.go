package genas

import (
	"time"

	"genas/internal/federation"
	"genas/internal/wire"
)

// Protocol names a wire protocol generation. There is one, V2: every
// connection and peer link speaks it.
type Protocol int

// V2 is the binary frame protocol.
const V2 Protocol = 2

// DialOption configures Dial and JoinNetwork.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout time.Duration
	depth   int
	svcOpts []Option
}

// WithDialTimeout bounds the TCP connect and protocol handshake, and
// becomes the default per-request timeout of the returned Client (zero
// means no timeout).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithProtocol selects nothing: V2 is the only protocol. It is kept so that
// callers naming it still compile.
func WithProtocol(p Protocol) DialOption {
	return func(*dialConfig) {}
}

// WithPipelineDepth caps the in-flight frames per batched publish (default
// wire.DefaultPipelineDepth).
func WithPipelineDepth(n int) DialOption {
	return func(c *dialConfig) { c.depth = n }
}

// WithServiceOptions forwards service construction options to the local
// broker JoinNetwork creates. Dial ignores it (there is no local broker).
func WithServiceOptions(opts ...Option) DialOption {
	return func(c *dialConfig) { c.svcOpts = append(c.svcOpts, opts...) }
}

// Client is a connection to a remote genasd daemon. It is safe for
// concurrent use. Events travel as binary schema-order vectors and batched
// publishes pipeline.
type Client struct {
	c       *wire.Client
	timeout time.Duration
	notifs  chan RemoteNotification
}

// RemoteNotification is one matched event delivered by a remote daemon.
type RemoteNotification struct {
	// Profile is the matched subscription's id.
	Profile string
	// Seq is the daemon's sequence number for the event.
	Seq uint64
	// Event is the payload as attribute name → value. The notifications one
	// event caused on a connection share one map — the rule in-process
	// subscribers live under, where every Notification of an event shares
	// Event.Vals: read it, copy it before changing it.
	Event map[string]float64
}

// RemoteStats is a remote daemon's counter snapshot (the wire twin of
// Stats, plus federation and wire counters).
type RemoteStats struct {
	Subscriptions int
	Published     uint64
	Delivered     uint64
	Dropped       uint64
	FilterEvents  uint64
	FilterOps     uint64
	MeanOps       float64
	Restructures  int
	// Aggregation counters (Aggregated is true from every current daemon).
	Aggregated           bool
	CanonicalNodes       int
	CanonicalRoots       int
	PosetDepth           int
	ProfilesPerCanonical float64
	// Federation counters (federated daemons only).
	Node      string
	Peers     int
	Forwarded uint64
	Filtered  uint64
	// Wire-level counters: mean received bytes per published event and
	// request frames observed queued behind the one being served.
	BytesPerEventWire float64
	FramesPipelined   uint64
}

// Dial connects to a genasd daemon: one hello line each way, then binary
// frames. A daemon that does not speak protocol v2 fails the dial. Options
// bound the handshake and set the pipelining depth.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	wc, err := wire.DialWith(addr, wire.DialConfig{Timeout: cfg.timeout, PipelineDepth: cfg.depth})
	if err != nil {
		return nil, err
	}
	c := &Client{c: wc, timeout: cfg.timeout, notifs: make(chan RemoteNotification, 256)}
	go c.convertNotifications()
	return c, nil
}

// convertNotifications adapts the wire notification stream (slot vectors)
// to RemoteNotification values. A connection's daemon
// numbers every event once, so consecutive notifications with one Seq are one
// event's, and its map is built once.
func (c *Client) convertNotifications() {
	var seq uint64
	var ev map[string]float64
	for resp := range c.c.Notifications() {
		if ev == nil || resp.Seq != seq {
			seq, ev = resp.Seq, c.c.EventMap(resp)
		}
		n := RemoteNotification{Profile: resp.Profile, Seq: resp.Seq, Event: ev}
		select {
		case c.notifs <- n:
		default: // drop when the consumer lags; mirrors broker policy
		}
	}
	close(c.notifs)
}

// Notifications returns the inbound notification stream. The channel closes
// when the connection drops.
func (c *Client) Notifications() <-chan RemoteNotification { return c.notifs }

// Ping round-trips a ping.
func (c *Client) Ping() error { return c.c.Ping(c.timeout) }

// Subscribe registers a profile expression under id on the remote daemon.
func (c *Client) Subscribe(id, profileExpr string, priority float64) error {
	return c.c.Subscribe(id, profileExpr, priority, c.timeout)
}

// Unsubscribe removes a subscription registered on this connection.
func (c *Client) Unsubscribe(id string) error {
	return c.c.Unsubscribe(id, c.timeout)
}

// Publish posts an event given as attribute name → value and returns the
// number of matched profiles.
func (c *Client) Publish(values map[string]float64) (int, error) {
	return c.c.Publish(values, c.timeout)
}

// PublishValues posts one event as schema-order attribute values — the hot
// path: one small binary frame, and no map is built on either end.
func (c *Client) PublishValues(vals ...float64) (int, error) {
	return c.c.PublishVals(vals, c.timeout)
}

// PublishBatch posts several events given as attribute maps and returns
// per-event match counts. Maps that all cover the schema are sent as
// vectors, chunked into frames with up to the pipeline depth in flight at
// once. Otherwise — an event omits an attribute and leans on server-side
// defaults — the batch travels as JSON, one request at a time, split while
// it exceeds the frame size cap. On
// error the counts gathered so far are returned with it, as a lower bound on
// what the daemon committed.
func (c *Client) PublishBatch(events []map[string]float64) ([]int, error) {
	return c.c.PublishBatch(events, c.timeout)
}

// Quench asks whether the region [lo,hi] of attr has no subscribers.
func (c *Client) Quench(attr string, lo, hi float64) (bool, error) {
	return c.c.Quench(attr, lo, hi, c.timeout)
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats() (RemoteStats, error) {
	p, err := c.c.Stats(c.timeout)
	if err != nil {
		return RemoteStats{}, err
	}
	return RemoteStats{
		Subscriptions:        p.Subscriptions,
		Published:            p.Published,
		Delivered:            p.Delivered,
		Dropped:              p.Dropped,
		FilterEvents:         p.FilterEvents,
		FilterOps:            p.FilterOps,
		MeanOps:              p.MeanOps,
		Restructures:         p.Restructures,
		Aggregated:           p.Aggregated,
		CanonicalNodes:       p.CanonicalNodes,
		CanonicalRoots:       p.CanonicalRoots,
		PosetDepth:           p.PosetDepth,
		ProfilesPerCanonical: p.ProfilesPerCanonical,
		Node:                 p.Node,
		Peers:                p.Peers,
		Forwarded:            p.Forwarded,
		Filtered:             p.Filtered,
		BytesPerEventWire:    p.BytesPerEventWire,
		FramesPipelined:      p.FramesPipelined,
	}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.c.Close() }

// JoinNetwork joins a wire-level broker federation: it creates a local
// service over sch named node and dials each peer genasd daemon (which must
// be running with -node, and share the schema). The overlay must stay
// acyclic, exactly like Network's topology. Initial dials are synchronous —
// an unreachable peer fails fast — and dropped links reconnect in the
// background with route replay. WithServiceOptions configures the local
// broker.
func JoinNetwork(sch *Schema, node string, peers []string, opts ...DialOption) (*Federation, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	svc, err := NewService(sch, cfg.svcOpts...)
	if err != nil {
		return nil, err
	}
	fed, err := federation.New(svc.brk, federation.Options{
		Node:        node,
		Covering:    true,
		DialTimeout: cfg.timeout,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	f := &Federation{svc: svc, fed: fed}
	for _, addr := range peers {
		if err := fed.Dial(addr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}
