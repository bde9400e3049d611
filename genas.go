// Package genas is a generic parameterized event notification service with
// distribution-based event filtering.
//
// GENAS reproduces the system of Hinze & Bittner, "Efficient
// Distribution-Based Event Filtering" (ICDCS Workshops 2002): a
// content-based publish/subscribe service whose profile-tree filter is
// restructured according to the observed event and profile distributions.
// Attributes with high selectivity move to the top tree levels (Measures
// A1–A3) and, inside every tree node, a search tree weighted by event
// probability (Measure V1) puts the frequent values near its root, so
// frequent events finish early and hopeless events are rejected early.
//
// # Quick start
//
//	sch := genas.MustSchema(
//		genas.Attr("temperature", genas.MustNumericDomain(-30, 50)),
//		genas.Attr("humidity", genas.MustNumericDomain(0, 100)),
//	)
//	svc, _ := genas.NewService(sch, genas.WithAdaptive())
//	defer svc.Close()
//
//	sub, _ := genas.NewProfile("heat-alarm").
//		Where("temperature", genas.GE(35)).
//		Subscribe(svc, genas.SubBuffer(256))
//	go func() {
//		for n := range sub.C() {
//			fmt.Println("notified:", n.Event.Render(sch))
//		}
//	}()
//	svc.PublishValues(41, 80)
//
// The profile language is the equivalent string front-end
// (svc.Subscribe("heat-alarm", "profile(temperature >= 35)")), and
// Publish(map[string]float64{...}) the convenient map front-end; the builder
// paths above are the allocation-free hot paths. See MIGRATION.md for the
// v0→v1 mapping and API.txt for the gated public surface.
//
// The packages under internal/ implement the machinery: the profile tree
// automaton, the selectivity measures and cost model, the distribution
// catalog, the adaptive component, the broker, the Siena-style overlay and
// the experiment harness regenerating every figure of the paper.
package genas

import (
	"context"
	"fmt"
	"sync"
	"time"

	"genas/internal/broker"
	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/event"
	"genas/internal/hook"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/stats"
)

// Re-exported types: the public names of the service's data vocabulary.
// These aliases are the supported v1 names; the packages they point into are
// internal and not importable by callers. Behavioral types (Subscription,
// Stats, Network) are concrete types of this package — see subscription.go,
// network.go and the Stats type below.
type (
	// Schema is the ordered attribute set of a service instance.
	Schema = schema.Schema
	// Attribute is one named, typed attribute.
	Attribute = schema.Attribute
	// Domain is an attribute's value domain.
	Domain = schema.Domain
	// Interval is a possibly half-open value interval.
	Interval = schema.Interval
	// Profile is a conjunctive subscription.
	Profile = predicate.Profile
	// ProfileID identifies a profile.
	ProfileID = predicate.ID
	// Event is a primitive event.
	Event = event.Event
	// Notification is a delivered match.
	Notification = broker.Notification
)

// Domain constructors re-exported from the schema package.
var (
	// NewNumericDomain returns the continuous interval domain [lo, hi].
	NewNumericDomain = schema.NewNumericDomain
	// NewIntegerDomain returns the integer grid domain {lo, …, hi}.
	NewIntegerDomain = schema.NewIntegerDomain
	// NewCategoricalDomain returns a label-coded domain.
	NewCategoricalDomain = schema.NewCategoricalDomain
	// NewSchema builds a schema from attributes.
	NewSchema = schema.New
	// MustSchema is NewSchema that panics on error.
	MustSchema = schema.MustNew
	// ParseSchema reads a schema spec string, e.g.
	// "temperature=numeric[-30,50]; state=cat{ok,alarm}".
	ParseSchema = schema.ParseSpec
)

// Attr is a convenience constructor for schema attributes.
func Attr(name string, d Domain) Attribute { return Attribute{Name: name, Domain: d} }

// MustNumericDomain is NewNumericDomain that panics on error, for static
// schemas in examples and tests.
func MustNumericDomain(lo, hi float64) Domain {
	d, err := schema.NewNumericDomain(lo, hi)
	if err != nil {
		panic(err)
	}
	return d
}

// MustIntegerDomain is NewIntegerDomain that panics on error.
func MustIntegerDomain(lo, hi int) Domain {
	d, err := schema.NewIntegerDomain(lo, hi)
	if err != nil {
		panic(err)
	}
	return d
}

// Option configures a Service.
type Option func(*options) error

type options struct {
	broker         broker.Options
	eventDistNames map[string]string
	defaultVals    map[string]float64
}

// WithAdaptive enables the adaptive filter component: the service maintains
// an event history and restructures the profile tree when the observed
// distribution drifts.
func WithAdaptive() Option {
	return func(o *options) error {
		o.broker.Adaptive = true
		return nil
	}
}

// WithAdaptivePolicy tunes the adaptation loop. window is the number of
// events between drift checks and the length of the history a check reads —
// the window that just closed, nothing older. threshold is the
// total-variation distance between that window and the distribution the
// tree is ordered for, beyond what sampling noise explains, at which an
// attribute counts as drifted and the nodes testing it are re-weighed.
// reorderAttributes rebuilds the tree with Measure A2 instead.
func WithAdaptivePolicy(window int, threshold float64, reorderAttributes bool) Option {
	return func(o *options) error {
		o.broker.Adaptive = true
		o.broker.Policy.Window = window
		o.broker.Policy.Threshold = threshold
		o.broker.Policy.ReorderAttributes = reorderAttributes
		return nil
	}
}

// WithAggregation selects nothing and is kept for callers written when
// canonical subscription aggregation was optional. Every service aggregates:
// structurally equivalent profiles intern to one canonical predicate node,
// the nodes form a covering poset, and the filter automaton indexes only the
// poset's roots. Matched canonical nodes are expanded back to concrete
// subscription ids at delivery time, so per-subscription semantics
// (priorities, buffers, counters) are untouched.
func WithAggregation() Option {
	return func(*options) error { return nil }
}

// WithAttrOrdering selects the attribute ordering measure: "natural", "A1",
// "A2" or "A3".
func WithAttrOrdering(name string) Option {
	return func(o *options) error {
		switch name {
		case "natural":
			o.broker.Engine.AttrOrdering = core.AttrNatural
		case "A1":
			o.broker.Engine.AttrOrdering = core.AttrA1
		case "A2":
			o.broker.Engine.AttrOrdering = core.AttrA2
		case "A3":
			o.broker.Engine.AttrOrdering = core.AttrA3
		default:
			return fmt.Errorf("genas: unknown attribute ordering %q", name)
		}
		return nil
	}
}

// WithShards sets the automata per engine: the engine's one covering poset
// splits its roots over n automata by node index, and every event walks all
// of them into one expansion. The match set is the one-automaton engine's;
// a churn op edits only the automata its roots fall in, under the
// engine's one writer lock. n ≤ 0 selects GOMAXPROCS; n == 1 keeps one
// automaton.
func WithShards(n int) Option {
	return func(o *options) error {
		o.broker.Shards = core.ResolveShards(n)
		return nil
	}
}

// WithSubscriptionBuffer sets the default notification buffer per
// subscription (overridable per subscription with SubBuffer).
func WithSubscriptionBuffer(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return ErrBadBuffer
		}
		o.broker.DefaultBuffer = n
		return nil
	}
}

// WithDefaults configures fallback values for event attributes a publisher
// may omit: an event missing a configured attribute is filled with its
// default instead of being rejected. Attributes without a default stay
// mandatory. This is the explicit, opt-in replacement for the silent
// zero-filling the wire protocol performed before publish events required
// every attribute.
func WithDefaults(byAttr map[string]float64) Option {
	return func(o *options) error {
		o.defaultVals = byAttr
		return nil
	}
}

// WithEventDistributions configures predefined per-attribute event
// distributions by catalog name ("equal", "gauss", "relgauss-low",
// "95% high", "d17", …). The paper's algorithm "can either work based on
// predefined distributions for the observed events, or it has to maintain a
// history of events" (§5); this option is the predefined mode, WithAdaptive
// the history mode. The option must be applied after the schema is known,
// so it is evaluated lazily inside NewService.
func WithEventDistributions(byAttr map[string]string) Option {
	return func(o *options) error {
		o.eventDistNames = byAttr
		return nil
	}
}

// Service is the public face of one GENAS broker instance.
type Service struct {
	sch      *schema.Schema
	brk      *broker.Broker
	defaults *event.Defaults
	builders sync.Pool // *EventBuilder: Publish(map) fills one per event
}

// The wire server and the experiment harness live inside this module and
// need the underlying broker; external callers must not. The bridge is an
// internal package, so installing it here keeps the public surface sealed.
func init() {
	hook.BrokerOf = func(service any) *broker.Broker { return service.(*Service).brk }
	hook.DefaultsOf = func(service any) *event.Defaults { return service.(*Service).defaults }
}

// NewService creates a local event notification service over the schema.
func NewService(sch *Schema, opts ...Option) (*Service, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.eventDistNames != nil {
		ds := make([]dist.Dist, sch.N())
		for i := 0; i < sch.N(); i++ {
			name, ok := o.eventDistNames[sch.At(i).Name]
			if !ok {
				name = "equal"
			}
			sh, err := dist.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("genas: attribute %s: %w", sch.At(i).Name, err)
			}
			ds[i] = dist.New(sh, sch.At(i).Domain)
		}
		o.broker.Engine.EventDists = ds
		// Predefined distributions imply the distribution-aware attribute
		// ordering unless the caller chose one explicitly.
		if o.broker.Engine.AttrOrdering == 0 || o.broker.Engine.AttrOrdering == core.AttrNatural {
			o.broker.Engine.AttrOrdering = core.AttrA2
		}
	}
	b, err := broker.New(sch, o.broker)
	if err != nil {
		return nil, err
	}
	svc := &Service{sch: sch, brk: b}
	svc.builders.New = func() any { return svc.NewEvent() }
	if o.defaultVals != nil {
		d, err := event.NewDefaults(sch, o.defaultVals)
		if err != nil {
			b.Close()
			return nil, err
		}
		svc.defaults = d
	}
	return svc, nil
}

// Schema returns the service schema.
func (s *Service) Schema() *Schema { return s.sch }

// Subscribe parses a profile-language expression and registers it:
//
//	svc.Subscribe("alarm", "profile(temperature >= 35; humidity >= 90)",
//		genas.SubBuffer(256), genas.SubPriority(2))
//
// The profile language is one of two equivalent front-ends; see NewProfile
// for the typed builder.
func (s *Service) Subscribe(id, profileExpr string, opts ...SubOption) (*Subscription, error) {
	p, err := predicate.Parse(s.sch, predicate.ID(id), profileExpr)
	if err != nil {
		return nil, err
	}
	return s.SubscribeProfile(p, opts...)
}

// SubscribeProfile registers a copy of an already-built profile (from
// NewProfile's builder or ParseProfile): the service never writes p, so one
// profile may be subscribed to several services at once.
func (s *Service) SubscribeProfile(p *Profile, opts ...SubOption) (*Subscription, error) {
	return s.subscribeWith(p, opts, nil)
}

// subscribeWith is the shared registration path behind Service and
// Federation subscriptions. stop overrides the unsubscribe hook (nil keeps
// the plain broker unsubscribe); Federation uses it to withdraw the route
// from its peers. The options apply to the subscription's own record; a
// SubHandler's handler goes to the broker, whose delivery workers call it.
func (s *Service) subscribeWith(p *Profile, opts []SubOption, stop func(predicate.ID) error) (*Subscription, error) {
	sub := &Subscription{brk: s.brk, stop: stop}
	for _, opt := range opts {
		if err := opt(&sub.o); err != nil {
			return nil, err
		}
	}
	bs, err := s.brk.SubscribeWith(p, sub.o.broker)
	if err != nil {
		return nil, err
	}
	sub.sub = bs
	return sub, nil
}

// Unsubscribe removes a subscription.
func (s *Service) Unsubscribe(id string) error {
	return s.brk.Unsubscribe(predicate.ID(id))
}

// Event builds a validated event from attribute name → value. Every schema
// attribute must be present unless WithDefaults covers the omission.
func (s *Service) Event(values map[string]float64) (Event, error) {
	return event.FromMapWith(s.sch, values, s.defaults)
}

// Publish posts an event given as attribute name → value and returns the
// number of matched profiles. The values are filled into a pooled vector and
// copied only when a profile matched, so the caller may reuse its map; a
// name lookup per attribute is the map's cost over PublishValues.
func (s *Service) Publish(values map[string]float64) (int, error) {
	return s.publishMap(nil, values)
}

// PublishCtx is Publish with a cancellation context: it refuses to start on
// a done context, and delivery blocked on a SubBlocking subscriber aborts
// (counting a drop) when the context is canceled.
func (s *Service) PublishCtx(ctx context.Context, values map[string]float64) (int, error) {
	return s.publishMap(ctx, values)
}

// publishMap sets values on a pooled builder, which applies the defaults,
// validates and publishes as Service.Event and PublishEvent would: a bad map
// is refused before a done context.
func (s *Service) publishMap(ctx context.Context, values map[string]float64) (int, error) {
	eb := s.builders.Get().(*EventBuilder)
	defer s.builders.Put(eb)
	for name, v := range values {
		eb.Set(name, v)
	}
	return eb.publish(ctx)
}

// PublishValues posts one event given positionally in schema order — the
// zero-allocation publish path: no map is built, the slice is only read
// during matching, and the event value materializes only when at least one
// profile matched. WithDefaults does not apply (every value is present by
// construction).
//
//genas:hotpath
func (s *Service) PublishValues(vals ...float64) (int, error) {
	return s.brk.PublishValues(vals)
}

// PublishValuesCtx is PublishValues with a cancellation context (see
// PublishCtx).
//
//genas:hotpath
func (s *Service) PublishValuesCtx(ctx context.Context, vals ...float64) (int, error) {
	return s.brk.PublishValuesCtx(ctx, vals)
}

// PublishEvent posts a prebuilt event, refusing values outside the schema
// (ErrArity, ErrOutOfDomain) as every publish path does. The service keeps
// no reference to ev.Vals, so the caller may reuse the slice.
func (s *Service) PublishEvent(ev Event) (int, error) { return s.brk.Publish(ev) }

// PublishBatch posts a slice of prebuilt events as one batch, as a run of
// PublishEvent calls would: every event is validated before any is
// published, then each is matched in order in the caller's goroutine,
// sequence numbers are assigned contiguously in slice order, and
// notifications are delivered in event order. It returns the per-event match
// counts. Parallelism comes from concurrent publishers. The service keeps no
// reference to evs or their Vals, so the caller may reuse them.
func (s *Service) PublishBatch(evs []Event) ([]int, error) {
	return s.brk.PublishBatch(evs)
}

// PublishBatchCtx is PublishBatch with a cancellation context (see
// PublishCtx). Events already matched stay matched — the batch is not
// transactional.
func (s *Service) PublishBatchCtx(ctx context.Context, evs []Event) ([]int, error) {
	return s.brk.PublishBatchCtx(ctx, evs)
}

// ParseEvent reads the paper's event notation ("event(temperature=30; …)"),
// a categorical value by label or code. An attribute WithDefaults covers may
// be omitted, as in Publish.
func (s *Service) ParseEvent(text string) (Event, error) { return event.Parse(s.sch, text, s.defaults) }

// ParseProfile reads the profile language without subscribing.
func (s *Service) ParseProfile(id, text string) (*Profile, error) {
	return predicate.Parse(s.sch, predicate.ID(id), text)
}

// Quenched reports whether events with attribute attr inside [lo, hi] are
// guaranteed to match nothing, so providers may suppress them at the source
// (Elvin-style quenching).
func (s *Service) Quenched(attr string, lo, hi float64) (bool, error) {
	i, err := s.sch.Index(attr)
	if err != nil {
		return false, err
	}
	return s.brk.Quenched(i, schema.Closed(lo, hi)), nil
}

// Stats is the service counter snapshot: the one stats record the broker
// fills and the wire carries, so it has the same fields as RemoteStats.
// In process, the federation and wire fields (Node through
// FramesPipelined) stay zero. MeanOps is FilterOps / FilterEvents.
type Stats stats.Record

// Stats returns the current counters.
func (s *Service) Stats() Stats { return Stats(s.brk.Stats()) }

// Restructures reports how many adaptive restructures have happened (0
// without WithAdaptive).
func (s *Service) Restructures() int {
	if a := s.brk.Adaptor(); a != nil {
		return a.Restructures()
	}
	return 0
}

// ExpectedOpsPerEvent evaluates the analytic cost model (Eq. 2 of the
// paper) under the service's current event distribution estimate, over the
// automata events walk now: it predicts what the matcher pays per event and
// changes nothing.
func (s *Service) ExpectedOpsPerEvent() (float64, error) {
	a, err := s.brk.Engine().Analyze()
	if err != nil {
		return 0, err
	}
	return a.TotalOps, nil
}

// Close shuts the service down; all subscription channels are closed. The
// handlers of SubHandler subscriptions still receive what was queued
// before, and the service's delivery workers then end; Close does not wait
// for them, so a handler may call it.
func (s *Service) Close() { s.brk.Close() }

// Now returns the current time; exposed so examples produce deterministic
// output under `go test` by overriding it.
var Now = time.Now

// Group is a set of subscriptions sharing one ordered notification channel:
// all notifications triggered by one published event arrive contiguously and
// in publish order, which composite event detection depends on.
type Group struct {
	brk  *broker.Broker
	q    *broker.Queue
	ids  []ProfileID
	once sync.Once
}

// C returns the group's merged notification channel.
func (g *Group) C() <-chan Notification { return g.q.C() }

// IDs returns the member profile ids.
func (g *Group) IDs() []ProfileID { return append([]ProfileID(nil), g.ids...) }

// Close unsubscribes every member; the channel closes when the last member
// is gone.
func (g *Group) Close() {
	g.once.Do(func() {
		for _, id := range g.ids {
			_ = g.brk.Unsubscribe(id)
		}
	})
}

// SubscribeGroup registers several profiles (id → profile-language
// expression) that deliver over a single ordered channel: notifications of
// one published event arrive contiguously and in publish order.
// Registration is atomic — on any failure no profile remains subscribed.
func (s *Service) SubscribeGroup(buffer int, primitives map[string]string) (*Group, error) {
	profiles := make([]*Profile, 0, len(primitives))
	for id, expr := range primitives {
		p, err := s.ParseProfile(id, expr)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	return s.subscribeGroup(buffer, profiles)
}

// subscribeGroup registers the profiles as members of one broker queue whose
// owner's reference spans only the registration, so the channel closes with
// the last member. On a failing member it unsubscribes those registered
// before it.
func (s *Service) subscribeGroup(buffer int, profiles []*Profile) (*Group, error) {
	q, err := s.brk.NewQueue(buffer)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("genas: a group needs at least one profile: %w", ErrBadProfile)
	}
	g := &Group{brk: s.brk, q: q}
	for _, p := range profiles {
		if _, err := q.Subscribe(p); err != nil {
			g.Close()
			return nil, err
		}
		g.ids = append(g.ids, p.ID)
	}
	return g, nil
}
