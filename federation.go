package genas

import (
	"genas/internal/federation"
	"genas/internal/predicate"
)

// Federation is a local broker joined into a wire-level overlay of genasd
// daemons: the process-level twin of Network. Local subscriptions propagate
// to the peer daemons as routes, events published here cross a TCP link only
// when that link's routing filter matches, and events published anywhere in
// the federation are delivered to matching local subscriptions.
type Federation struct {
	svc *Service
	fed *federation.Fed
}

// FederationStats is the counter snapshot of one federated broker.
type FederationStats struct {
	// Node is this broker's overlay name.
	Node string
	// Peers counts live peer links.
	Peers int
	// Forwarded counts events this broker sent over a peer link; Filtered
	// counts link crossings avoided by early rejection at its links.
	Forwarded, Filtered uint64
	// Local is the local broker's counter snapshot.
	Local Stats
}

// Schema returns the federation's schema.
func (f *Federation) Schema() *Schema { return f.svc.Schema() }

// Subscribe parses a profile-language expression, registers it locally and
// announces it to the federation, so matching events published at any peer
// daemon reach this subscription. Profile ids must be unique across the
// whole federation.
func (f *Federation) Subscribe(id, profileExpr string, opts ...SubOption) (*Subscription, error) {
	p, err := predicate.Parse(f.svc.sch, predicate.ID(id), profileExpr)
	if err != nil {
		return nil, err
	}
	return f.SubscribeProfile(p, opts...)
}

// SubscribeProfile is Subscribe for an already-built profile (from
// NewProfile's builder or ParseProfile), of which it registers a copy.
func (f *Federation) SubscribeProfile(p *Profile, opts ...SubOption) (*Subscription, error) {
	sub, err := f.svc.subscribeWith(p, opts, func(id predicate.ID) error {
		if err := f.svc.brk.Unsubscribe(id); err != nil {
			return err
		}
		f.fed.ProfileRemoved(id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Announce the registered copy, which carries the SubPriority weight.
	f.fed.ProfileAdded(sub.Profile())
	return sub, nil
}

// Unsubscribe removes a local subscription and withdraws its route from the
// federation.
func (f *Federation) Unsubscribe(id string) error {
	if err := f.svc.brk.Unsubscribe(predicate.ID(id)); err != nil {
		return err
	}
	f.fed.ProfileRemoved(predicate.ID(id))
	return nil
}

// Publish posts an event given as attribute name → value: it is delivered to
// matching local subscriptions and forwarded over every peer link whose
// routing filter matches. It returns the number of local matches (remote
// delivery is asynchronous).
func (f *Federation) Publish(values map[string]float64) (int, error) {
	ev, err := f.svc.Event(values)
	if err != nil {
		return 0, err
	}
	return f.PublishEvent(ev)
}

// PublishEvent is Publish for a prebuilt event.
func (f *Federation) PublishEvent(ev Event) (int, error) {
	n, err := f.svc.brk.Publish(ev)
	if err != nil {
		return 0, err
	}
	f.fed.EventPublished(ev)
	return n, nil
}

// Stats returns the federation counter snapshot.
func (f *Federation) Stats() FederationStats {
	node, peers, forwarded, filtered := f.fed.Stats()
	return FederationStats{
		Node:      node,
		Peers:     peers,
		Forwarded: forwarded,
		Filtered:  filtered,
		Local:     f.svc.Stats(),
	}
}

// Close leaves the federation (tearing down every peer link) and shuts the
// local service down.
func (f *Federation) Close() {
	f.fed.Close()
	f.svc.Close()
}
