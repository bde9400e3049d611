// Package routing implements a distributed broker overlay in the style of
// Siena (paper §2): brokers form an acyclic topology, profiles propagate
// through the network toward potential publishers, and events are rejected
// as early as possible — a broker forwards an event over a link only when a
// profile propagated from that direction matches it. Every broker runs the
// distribution-based filter engine both for its local subscribers and for
// its per-link routing filters, so the paper's tree optimizations apply at
// every hop ("Our approach can be used to reduce workload in resource
// critical environments … unnecessary event information is rejected as
// early as possible", §5).
//
// The overlay protocol lives in one place, Table: a per-broker state machine
// that holds the per-link route sets and filter engines and returns the
// messages to send instead of sending them. Network runs one Table per Node
// and executes the messages as calls on the neighbour; internal/federation
// runs the same Table per daemon and executes them over TCP.
package routing

import (
	"errors"
	"fmt"
	"sync"

	"genas/internal/broker"
	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Errors returned by the overlay.
var (
	ErrUnknownNode   = errors.New("routing: unknown node")
	ErrDuplicate     = errors.New("routing: duplicate node name")
	ErrCycle         = errors.New("routing: link would create a cycle")
	ErrSelfLink      = errors.New("routing: cannot link a node to itself")
	ErrAlreadyLinked = errors.New("routing: nodes already linked")
)

// Options configure a Network.
type Options struct {
	// Covering selects nothing: a link engine indexes only its uncovered
	// routes, and RouteCount reports those, whatever it says. Each route
	// install is one incremental covering-poset insertion. The field is kept
	// so that callers naming it still compile.
	Covering bool
	// Engine configures every filter engine in the overlay (local and
	// per-link).
	Engine core.Config
	// Broker configures the per-node local broker; left without an attribute
	// ordering and event distributions, its engine takes Engine.
	Broker broker.Options
}

// Network is a set of brokers plus their acyclic link topology.
type Network struct {
	mu     sync.RWMutex
	schema *schema.Schema
	opts   Options
	nodes  map[string]*Node
	// parent is a union-find structure guarding acyclicity.
	parent map[string]string
}

// NewNetwork creates an empty overlay over one schema.
func NewNetwork(s *schema.Schema, opts Options) *Network {
	if e := opts.Broker.Engine; e.AttrOrdering == 0 && e.EventDists == nil {
		opts.Broker.Engine = opts.Engine
	}
	return &Network{
		schema: s,
		opts:   opts,
		nodes:  make(map[string]*Node),
		parent: make(map[string]string),
	}
}

// Node is one broker in the overlay: a local broker plus the route Table
// toward its neighbours.
type Node struct {
	name  string
	local *broker.Broker

	// mu guards table and peers. It is released before any call into a
	// neighbour: the messages a table method returns are executed after
	// unlocking, so no path holds one node's lock while entering another's.
	mu    sync.RWMutex
	table *Table
	peers map[string]*Node
}

// AddNode creates a broker node.
func (nw *Network) AddNode(name string) (*Node, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	b, err := broker.New(nw.schema, nw.opts.Broker)
	if err != nil {
		return nil, err
	}
	n := &Node{
		name:  name,
		local: b,
		table: NewTable(nw.schema, nw.opts.Engine),
		peers: make(map[string]*Node),
	}
	nw.nodes[name] = n
	nw.parent[name] = name
	return n, nil
}

// Node returns a node by name.
func (nw *Network) Node(name string) (*Node, error) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	n, ok := nw.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	return n, nil
}

// find is union-find root lookup with path compression.
func (nw *Network) find(x string) string {
	for nw.parent[x] != x {
		nw.parent[x] = nw.parent[nw.parent[x]]
		x = nw.parent[x]
	}
	return x
}

// Connect links two nodes bidirectionally. The topology must stay acyclic.
// Subscriptions the two sides already hold are replayed across the new link
// in both directions (each node's own profiles plus the routes it learned
// from its other links), so connecting after subscribing routes exactly like
// subscribing after connecting. Connect excludes concurrent Subscribe and
// Unsubscribe propagation, which makes the replay a consistent cut.
func (nw *Network) Connect(a, b string) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if a == b {
		return ErrSelfLink
	}
	na, ok := nw.nodes[a]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	nb, ok := nw.nodes[b]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	if na.peer(b) != nil {
		return fmt.Errorf("%w: %s-%s", ErrAlreadyLinked, a, b)
	}
	if nw.find(a) == nw.find(b) {
		return fmt.Errorf("%w: %s-%s", ErrCycle, a, b)
	}
	nw.parent[nw.find(a)] = nw.find(b)

	// Both ends attach before either replay runs: a replayed route arriving
	// over a link its receiver does not know yet would be ignored.
	toB, toA := na.attach(nb), nb.attach(na)
	na.send(toB)
	nb.send(toA)
	return nil
}

// Subscribe registers the profile at the named node and propagates it
// through the overlay.
func (nw *Network) Subscribe(node string, p *predicate.Profile) (*broker.Subscription, error) {
	n, err := nw.Node(node)
	if err != nil {
		return nil, err
	}
	sub, err := n.local.SubscribeWith(p, broker.SubOptions{})
	if err != nil {
		return nil, err
	}
	nw.flood(n, Msg{ID: p.ID, Profile: p})
	return sub, nil
}

// Unsubscribe removes the profile from the named node and withdraws its
// propagation everywhere.
func (nw *Network) Unsubscribe(node string, id predicate.ID) error {
	n, err := nw.Node(node)
	if err != nil {
		return err
	}
	if err := n.local.Unsubscribe(id); err != nil {
		return err
	}
	nw.flood(n, Msg{ID: id})
	return nil
}

// flood carries a change of n's own subscriptions through the overlay. It
// holds the topology lock's read side, so Connect replays over a new link
// either before or after a whole flood, never in between: a withdrawal
// overtaking the replayed announcement of the same id on the new link would
// leave the route installed for good.
func (nw *Network) flood(n *Node, m Msg) {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	n.receive(Local, m)
}

// attach adds the link toward peer and returns the route replay peer must
// receive.
func (n *Node) attach(peer *Node) []Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[peer.name] = peer
	return n.table.Attach(peer.name, n.local.Profiles())
}

// peer returns the neighbour behind the named link, nil when there is none.
func (n *Node) peer(name string) *Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peers[name]
}

// receive applies one route message that arrived over the link from (Local:
// a change of this node's own subscriptions) and sends what the table asks
// for. Propagation is this recursion, depth first, which keeps every link's
// messages in order.
func (n *Node) receive(from string, m Msg) {
	n.mu.Lock()
	var out []Msg
	if m.Profile != nil {
		out = n.table.Announce(from, m.Profile)
	} else {
		out = n.table.Withdraw(from, m.ID)
	}
	n.mu.Unlock()
	n.send(out)
}

// send executes the messages n's table returned as calls on the neighbours.
// The caller has released n.mu.
func (n *Node) send(msgs []Msg) {
	for _, m := range msgs {
		n.peer(m.To).receive(n.name, m)
	}
}

// Publish posts the event at the named node. It returns the total number of
// local matches across all brokers the event reached.
func (nw *Network) Publish(node string, ev event.Event) (int, error) {
	n, err := nw.Node(node)
	if err != nil {
		return 0, err
	}
	return n.deliver(ev, Local)
}

// deliver matches locally, then forwards over the links the table accepts
// the event for. A failing link never aborts the fan-out: every healthy link
// still receives the event and the errors are joined, so the returned match
// total always covers every reachable broker.
func (n *Node) deliver(ev event.Event, from string) (int, error) {
	total, err := n.local.Publish(ev)
	if err != nil {
		return 0, err
	}
	var buf [8]string // keeps the usual fan-out off the heap
	n.mu.RLock()
	hops, err := n.table.Route(ev.Vals, from, buf[:0])
	n.mu.RUnlock()

	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("node %s: %w", n.name, err))
	}
	for _, name := range hops {
		sub, err := n.peer(name).deliver(ev, n.name)
		total += sub
		if err != nil {
			errs = append(errs, err)
		}
	}
	return total, errors.Join(errs...)
}

// Broker exposes a node's local broker.
func (n *Node) Broker() *broker.Broker { return n.local }

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// RouteCount returns the number of uncovered routes installed toward `via`
// (see Table.RouteCount).
func (n *Node) RouteCount(via string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.RouteCount(via)
}

// Stats summarizes overlay traffic.
type Stats struct {
	Nodes    int
	Messages uint64 // events forwarded across links
	Filtered uint64 // link crossings avoided by early rejection
}

// Stats returns overlay-wide counters: the sum of every node's table.
func (nw *Network) Stats() Stats {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	st := Stats{Nodes: len(nw.nodes)}
	for _, n := range nw.nodes {
		forwarded, filtered := n.table.Counters()
		st.Messages += forwarded
		st.Filtered += filtered
	}
	return st
}

// Close shuts every broker down. The node set is snapshotted under the
// lock and the brokers closed outside it: Broker.Close waits out in-flight
// deliveries, and holding nw.mu across that wait would wedge every
// Publish/Node/Stats call behind one slow Block-policy subscriber
// (genasvet: locksafe).
func (nw *Network) Close() {
	nw.mu.Lock()
	nodes := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		nodes = append(nodes, n)
	}
	nw.mu.Unlock()
	for _, n := range nodes {
		n.local.Close()
	}
}
