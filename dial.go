package genas

import (
	"time"

	"genas/internal/federation"
	"genas/internal/stats"
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
}

// RemoteNotification is one matched event delivered by a remote daemon:
// Profile, Seq and the Event map, which the notifications of one event share
// (read it, copy it before changing it).
type RemoteNotification = wire.Notification

// RemoteStats is a remote daemon's counter snapshot: the record its broker
// filled, completed by its wire server with the federation and wire
// counters. It has the same fields as Stats.
type RemoteStats stats.Record

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
	return &Client{c: wc, timeout: cfg.timeout}, nil
}

// Notifications returns the inbound notification stream, which buffers 256
// notifications. The channel closes when the connection drops.
func (c *Client) Notifications() <-chan RemoteNotification { return c.c.Notifications() }

// Dropped returns how many notifications were discarded because
// Notifications() was full when they arrived, as Subscription.Dropped counts
// an in-process subscriber's.
func (c *Client) Dropped() uint64 { return c.c.Dropped() }

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
// number of matched profiles. The client turns the map into a schema-order
// vector, filling what it omits from the defaults the daemon announced in
// its hello; a name outside the schema (ErrUnknownAttribute) or an omitted
// attribute without a default (ErrArity) fails before anything is sent.
func (c *Client) Publish(values map[string]float64) (int, error) {
	return c.c.Publish(values, c.timeout)
}

// PublishValues posts one event as schema-order attribute values — the hot
// path: one small binary frame, and no map is built on either end.
func (c *Client) PublishValues(vals ...float64) (int, error) {
	return c.c.PublishVals(vals, c.timeout)
}

// PublishBatch posts several events given as attribute maps and returns
// per-event match counts. The maps become vectors as in Publish — a map that
// cannot fails the whole batch before anything is sent — and travel chunked
// into frames with up to the pipeline depth in flight at once. On error the
// counts gathered so far are returned with it, as a lower bound on what the
// daemon committed.
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
	return RemoteStats(*p), nil
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
