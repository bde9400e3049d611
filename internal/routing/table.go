package routing

import (
	"errors"
	"fmt"
	"sync/atomic"

	"genas/internal/core"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// Local stands for the owner's own subscribers and publishers wherever a
// Table method takes the link a message or an event arrived on. No link may
// be named Local.
const Local = ""

// Msg is one route message a Table asks its owner to send over link To:
// announce Profile, or, when Profile is nil, withdraw ID.
type Msg struct {
	To      string
	ID      predicate.ID
	Profile *predicate.Profile
}

// Table is one broker's routing state: what it knows about each neighbour's
// direction, what it must tell the other neighbours, and which links an event
// may cross. It is a state machine without locks or I/O. Its owner serialises
// the mutating methods under its own mutex (Route, RouteCount and Counters
// need only the read side) and sends the messages they return, each link's in
// the order returned: the protocol relies on per-link FIFO and survives
// nothing weaker. In-process nodes (Network) send by calling the neighbour,
// daemons (federation.Fed) by encoding onto the link's queue.
type Table struct {
	sch      *schema.Schema
	cfg      core.Config
	covering bool // RouteCount reports uncovered routes only
	links    map[string]*link

	forwarded atomic.Uint64 // link crossings Route accepted
	filtered  atomic.Uint64 // link crossings avoided by early rejection
}

// link is the routing state toward one neighbour: the profiles subscribed in
// that direction and the filter engine deciding forwards. The engine's poset
// keeps covered routes registered (so withdrawing their coverer re-arms them)
// but indexes only the uncovered ones, one incremental poset mutation per
// route change.
type link struct {
	routes map[predicate.ID]*predicate.Profile
	engine *core.Engine
	// broken, when set, is what every match on this link fails with. Engines
	// cannot fail on a validated event, so tests set it to pin what Route and
	// its callers do when one link errors.
	broken error
}

// NewTable creates an empty table. Every link engine is configured by cfg and
// prunes covered routes from its index either way; covering selects what
// RouteCount reports.
func NewTable(s *schema.Schema, cfg core.Config, covering bool) *Table {
	return &Table{sch: s, cfg: cfg, covering: covering, links: make(map[string]*link)}
}

// fanout appends one message about id for every link except from.
func (t *Table) fanout(msgs []Msg, from string, id predicate.ID, p *predicate.Profile) []Msg {
	for name := range t.links {
		if name != from {
			msgs = append(msgs, Msg{To: name, ID: id, Profile: p})
		}
	}
	return msgs
}

// Attach adds the link to the named neighbour and returns the replay it must
// receive: locals (the owner's own subscriptions) first, then every route
// learned from the other links. A link already attached under that name is
// displaced first, and the withdrawals of its routes precede the replay: the
// neighbour's own replay re-announces whatever it still has, so a subscriber
// lost while the link was dark leaves no stale route at third-party brokers.
func (t *Table) Attach(name string, locals []*predicate.Profile) []Msg {
	msgs := t.Detach(name)
	for _, p := range locals {
		msgs = append(msgs, Msg{To: name, ID: p.ID, Profile: p})
	}
	for _, o := range t.links {
		for _, p := range o.routes {
			msgs = append(msgs, Msg{To: name, ID: p.ID, Profile: p})
		}
	}
	t.links[name] = &link{
		routes: make(map[predicate.ID]*predicate.Profile),
		engine: core.NewEngine(t.sch, t.cfg),
	}
	return msgs
}

// Detach removes a link and returns the withdrawals of its routes for the
// remaining links.
func (t *Table) Detach(name string) []Msg {
	l, ok := t.links[name]
	if !ok {
		return nil
	}
	delete(t.links, name)
	msgs := make([]Msg, 0, len(l.routes)*len(t.links))
	for id := range l.routes {
		msgs = t.fanout(msgs, name, id, nil)
	}
	return msgs
}

// Announce installs p as a route toward the link it arrived on (Local: a
// subscription of the owner's, which the table does not store) and returns
// the announcements for every other link; the topology is acyclic, so
// propagation terminates. An announcement identical to the installed route
// returns nothing: a reconnect replay of n unchanged routes must not cause n
// engine mutations and an overlay-wide re-broadcast. The same id with a
// changed profile replaces the route and is announced again.
func (t *Table) Announce(from string, p *predicate.Profile) []Msg {
	if from != Local {
		l, ok := t.links[from]
		if !ok {
			return nil
		}
		if old, ok := l.routes[p.ID]; ok {
			if old.Priority == p.Priority && old.Render(t.sch) == p.Render(t.sch) {
				return nil
			}
			_ = l.engine.RemoveProfile(p.ID) // cannot fail: the id is registered
		}
		l.routes[p.ID] = p
		_ = l.engine.AddProfile(p) // cannot fail: the id is not registered
	}
	return t.fanout(nil, from, p.ID, p)
}

// Withdraw removes the route id from the link it arrived on (Local: the
// owner's subscription ended) and returns the withdrawals for every other
// link. An id the link does not hold returns nothing.
func (t *Table) Withdraw(from string, id predicate.ID) []Msg {
	if from != Local {
		l, ok := t.links[from]
		if !ok {
			return nil
		}
		if _, ok := l.routes[id]; !ok {
			return nil
		}
		delete(l.routes, id)
		_ = l.engine.RemoveProfile(id) // cannot fail: the id is registered
	}
	return t.fanout(nil, from, id, nil)
}

// Route appends to dst the links, other than the one the event arrived on,
// whose filter accepts it, and counts every decision: an accepted crossing is
// one forward; a link with no routes and a link whose routes all reject the
// event are one filtered crossing each. A failing link is skipped without
// aborting the others, and the failures are joined in the error.
func (t *Table) Route(vals []float64, from string, dst []string) ([]string, error) {
	var errs []error
	for name, l := range t.links {
		if name == from {
			continue
		}
		accepts, err := l.accepts(vals)
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("link %s: %w", name, err))
		case accepts:
			t.forwarded.Add(1)
			dst = append(dst, name)
		default:
			// Early rejection: nobody beyond this link wants the event.
			t.filtered.Add(1)
		}
	}
	return dst, errors.Join(errs...)
}

func (l *link) accepts(vals []float64) (bool, error) {
	if l.broken != nil {
		return false, l.broken
	}
	if len(l.routes) == 0 {
		return false, nil
	}
	return l.engine.MatchAny(vals)
}

// RouteCount returns the number of routes toward the named link (0 when it is
// not attached). With covering that is the link poset's root count: covered
// routes stay registered but uncounted.
func (t *Table) RouteCount(name string) int {
	l, ok := t.links[name]
	if !ok {
		return 0
	}
	if t.covering {
		return l.engine.AggStats().Roots
	}
	return len(l.routes)
}

// Counters returns how many link crossings Route accepted and how many it
// avoided.
func (t *Table) Counters() (forwarded, filtered uint64) {
	return t.forwarded.Load(), t.filtered.Load()
}
