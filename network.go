package genas

import (
	"genas/internal/routing"
)

// Network is a distributed broker overlay in the style of Siena: brokers
// form an acyclic topology, profiles propagate toward potential publishers,
// and events cross a link only when somebody in that direction wants them.
type Network struct {
	nw *routing.Network
}

// NetworkStats is the overlay-wide counter snapshot.
type NetworkStats = routing.Stats

// NewNetwork creates a distributed broker overlay over the schema. Every
// link filter indexes only the profiles no other profile of that link covers
// (Siena-style optimization); with covering enabled the per-link route
// counts report just those, too.
func NewNetwork(sch *Schema, covering bool) *Network {
	return &Network{nw: routing.NewNetwork(sch, routing.Options{Covering: covering})}
}

// AddNode adds a broker to the overlay.
func (n *Network) AddNode(name string) error {
	_, err := n.nw.AddNode(name)
	return err
}

// Connect links two brokers. The topology must stay acyclic. Subscriptions
// made before the link exist across it afterwards: Connect replays, in both
// directions, each side's own profiles and the routes it learned from its
// other links, so Subscribe-then-Connect routes exactly like
// Connect-then-Subscribe.
func (n *Network) Connect(a, b string) error { return n.nw.Connect(a, b) }

// Subscribe registers a profile at the named broker; the profile propagates
// through the overlay so matching events published anywhere reach it.
func (n *Network) Subscribe(node string, p *Profile) (*Subscription, error) {
	sub, err := n.nw.Subscribe(node, p)
	if err != nil {
		return nil, err
	}
	id := p.ID
	return newSubscription(sub, func() error { return n.nw.Unsubscribe(node, id) }, nil), nil
}

// Unsubscribe removes a profile from the named broker and withdraws its
// routes.
func (n *Network) Unsubscribe(node, id string) error {
	return n.nw.Unsubscribe(node, ProfileID(id))
}

// Publish posts an event at the named broker and returns the number of
// matched profiles across the whole overlay.
func (n *Network) Publish(node string, ev Event) (int, error) {
	return n.nw.Publish(node, ev)
}

// Stats returns overlay-wide counters.
func (n *Network) Stats() NetworkStats { return n.nw.Stats() }

// Close shuts every broker in the overlay down.
func (n *Network) Close() { n.nw.Close() }
