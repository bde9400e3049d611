// Package genas is a generic parameterized event notification service with
// distribution-based event filtering.
//
// GENAS reproduces the system of Hinze & Bittner, "Efficient
// Distribution-Based Event Filtering" (ICDCS Workshops 2002): a
// content-based publish/subscribe service whose profile-tree filter is
// restructured according to the observed event and profile distributions.
// Attributes with high selectivity move to the top tree levels (Measures
// A1–A3) and, inside every tree node, values are tested in order of
// descending probability (Measures V1–V3), so frequent events finish early
// and hopeless events are rejected as early as possible.
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
	"time"

	"genas/internal/adaptive"
	"genas/internal/broker"
	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/event"
	"genas/internal/hook"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// Re-exported types: the public names of the service's data vocabulary.
// These aliases are the supported v1 names; the packages they point into are
// internal and not importable by callers. Behavioral types (Subscription,
// Stats, Network) are concrete types of this package — see subscription.go,
// network.go and the Stats struct below.
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

// WithAdaptive enables the adaptive filter component with event-centric
// optimization: the service maintains an event history and restructures the
// profile tree when the observed distribution drifts.
func WithAdaptive() Option {
	return func(o *options) error {
		o.broker.Adaptive = true
		o.broker.Policy.Goal = adaptive.EventCentric
		return nil
	}
}

// WithUserCentricAdaptive enables adaptation optimizing for high-priority
// profiles (Measure V3): "faster notifications for profiles with high
// priority".
func WithUserCentricAdaptive() Option {
	return func(o *options) error {
		o.broker.Adaptive = true
		o.broker.Policy.Goal = adaptive.UserCentric
		return nil
	}
}

// WithAdaptivePolicy tunes the adaptation loop. window is the number of
// events between drift checks and the length of the history a check reads —
// the window that just closed, nothing older. threshold is the
// total-variation distance between that window and the distribution the
// tree is ordered for, beyond what sampling noise explains, at which an
// attribute counts as drifted and the nodes testing it are re-sorted.
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

// WithBinarySearch switches the within-node search to binary search (the
// baseline of Aguilera et al. / Gough & Smith).
func WithBinarySearch() Option {
	return WithSearch("binary")
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

// WithSearch selects the within-node search strategy by name: "weighted"
// (the default, tree.DefaultSearch: a search tree per node balanced by event
// probability), "linear" (the paper's ordered scan with the lookup-table
// early-termination rule), "binary", "interpolation" or "hash" (the further
// strategies of the paper's outlook, §5).
func WithSearch(name string) Option {
	return func(o *options) error {
		switch name {
		case tree.DefaultSearch.String():
			o.broker.Engine.Search = tree.DefaultSearch
		case "linear":
			o.broker.Engine.Search = tree.SearchLinear
		case "binary":
			o.broker.Engine.Search = tree.SearchBinary
		case "interpolation":
			o.broker.Engine.Search = tree.SearchInterpolation
		case "hash":
			o.broker.Engine.Search = tree.SearchHash
		default:
			return fmt.Errorf("genas: unknown search strategy %q", name)
		}
		return nil
	}
}

// WithValueMeasure selects the static value ordering: "natural", "event"
// (V1), "profile" (V2) or "event*profile" (V3), each optionally suffixed
// "-asc" for ascending order.
func WithValueMeasure(name string) Option {
	return func(o *options) error {
		m, err := parseValueMeasure(name)
		if err != nil {
			return err
		}
		o.broker.Engine.ValueMeasure = m
		return nil
	}
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

// WithShards partitions the filter engine and the broker's delivery state
// into n shards: profiles hash across n independent profile trees, each with
// its own lock and selectivity state, and events are matched against all
// shards with a merge step. The match set is identical to the single-tree
// engine; sharding changes the concurrency layout — subscription churn and
// adaptive restructuring lock one shard at a time instead of stopping the
// world, and parallel publishers stop serializing on broker-wide state.
// n ≤ 0 selects GOMAXPROCS; n == 1 keeps the classic single-tree engine.
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

func parseValueMeasure(name string) (core.ValueMeasure, error) {
	switch name {
	case "natural":
		return core.ValueNatural, nil
	case "natural-desc":
		return core.ValueNaturalDesc, nil
	case "event":
		return core.ValueEvent, nil
	case "event-asc":
		return core.ValueEventAsc, nil
	case "profile":
		return core.ValueProfile, nil
	case "profile-asc":
		return core.ValueProfileAsc, nil
	case "event*profile":
		return core.ValueCombined, nil
	case "event*profile-asc":
		return core.ValueCombinedAsc, nil
	default:
		//genas:allow senterr construction-time config validation; misspelled option names are not a matchable runtime condition
		return 0, fmt.Errorf("genas: unknown value measure %q", name)
	}
}

// Service is the public face of one GENAS broker instance.
type Service struct {
	sch      *schema.Schema
	brk      *broker.Broker
	defaults *event.Defaults
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
		if o.broker.Engine.ValueMeasure == 0 || o.broker.Engine.ValueMeasure == core.ValueNatural {
			// Predefined distributions imply the distribution-aware
			// ordering unless the caller chose a measure explicitly.
			o.broker.Engine.ValueMeasure = core.ValueEvent
		}
		if o.broker.Engine.AttrOrdering == 0 || o.broker.Engine.AttrOrdering == core.AttrNatural {
			o.broker.Engine.AttrOrdering = core.AttrA2
		}
	}
	b, err := broker.New(sch, o.broker)
	if err != nil {
		return nil, err
	}
	svc := &Service{sch: sch, brk: b}
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

// SubscribeProfile registers an already-built profile (from NewProfile's
// builder or ParseProfile).
func (s *Service) SubscribeProfile(p *Profile, opts ...SubOption) (*Subscription, error) {
	return s.subscribeWith(p, opts, nil)
}

// subscribeWith is the shared registration path behind Service and
// Federation subscriptions. stop overrides the unsubscribe hook (nil keeps
// the plain broker unsubscribe); Federation uses it to withdraw the route
// from its peers.
func (s *Service) subscribeWith(p *Profile, opts []SubOption, stop func(predicate.ID) error) (*Subscription, error) {
	var o subOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.priority != 0 {
		// Register a copy rather than mutating the caller's profile: the
		// same *Profile may be shared with (or already live in) another
		// service whose engine reads Priority during restructuring. The
		// predicate slice is immutable after construction, so a shallow
		// copy suffices.
		clone := *p
		clone.Priority = o.priority
		p = &clone
	}
	sub, err := s.brk.SubscribeWith(p, o.broker)
	if err != nil {
		return nil, err
	}
	if stop == nil {
		stop = s.brk.Unsubscribe
	}
	id := p.ID
	return newSubscription(sub, func() error { return stop(id) }, &o), nil
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
// number of matched profiles. The map is convenient but allocates; use
// PublishValues or an EventBuilder (Service.NewEvent) on hot paths.
func (s *Service) Publish(values map[string]float64) (int, error) {
	ev, err := s.Event(values)
	if err != nil {
		return 0, err
	}
	return s.brk.Publish(ev)
}

// PublishCtx is Publish with a cancellation context: it refuses to start on
// a done context, and delivery blocked on a SubBlocking subscriber aborts
// (counting a drop) when the context is canceled.
func (s *Service) PublishCtx(ctx context.Context, values map[string]float64) (int, error) {
	ev, err := s.Event(values)
	if err != nil {
		return 0, err
	}
	return s.brk.PublishCtx(ctx, ev)
}

// PublishValues posts one event given positionally in schema order — the
// zero-allocation publish path: no map is built, the slice is only read
// during matching, and the event value materializes only when at least one
// profile matched. WithDefaults does not apply (every value is present by
// construction).
//
//genas:hotpath
func (s *Service) PublishValues(vals ...float64) (int, error) {
	if err := event.Validate(s.sch, vals); err != nil {
		return 0, err
	}
	return s.brk.PublishValues(vals)
}

// PublishValuesCtx is PublishValues with a cancellation context (see
// PublishCtx).
//
//genas:hotpath
func (s *Service) PublishValuesCtx(ctx context.Context, vals ...float64) (int, error) {
	if err := event.Validate(s.sch, vals); err != nil {
		return 0, err
	}
	return s.brk.PublishValuesCtx(ctx, vals)
}

// PublishEvent posts a prebuilt event.
func (s *Service) PublishEvent(ev Event) (int, error) { return s.brk.Publish(ev) }

// PublishBatch posts a slice of prebuilt events as one batch: the events are
// filtered concurrently against a single corpus snapshot, sequence numbers
// are assigned contiguously in slice order, and notifications are delivered
// in event order. It returns the per-event match counts. Batching amortizes
// lock acquisition and tree-root dispatch across the slice, so it is the
// preferred ingestion path for high-rate publishers.
func (s *Service) PublishBatch(evs []Event) ([]int, error) {
	return s.brk.PublishBatch(evs)
}

// PublishBatchCtx is PublishBatch with a cancellation context (see
// PublishCtx). Events already matched stay matched — the batch is not
// transactional.
func (s *Service) PublishBatchCtx(ctx context.Context, evs []Event) ([]int, error) {
	return s.brk.PublishBatchCtx(ctx, evs)
}

// ParseEvent reads the paper's event notation ("event(temperature=30; …)").
func (s *Service) ParseEvent(text string) (Event, error) { return event.Parse(s.sch, text) }

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

// Stats is the service counter snapshot.
type Stats struct {
	// Subscriptions is the number of live subscriptions.
	Subscriptions int
	// Published counts posted events, Delivered notifications that reached a
	// subscriber buffer, Dropped notifications discarded for slow consumers.
	Published, Delivered, Dropped uint64
	// FilterEvents and FilterOps carry the engine's operation accounting
	// (the paper's comparisons-per-event metric); MeanOps is their ratio.
	FilterEvents, FilterOps uint64
	MeanOps                 float64
	// Restructures counts adaptive tree restructures (0 without
	// WithAdaptive).
	Restructures int
	// Aggregated is always true: canonical subscription aggregation is the
	// service's only index. The field stays for callers that branch on it.
	Aggregated bool
	// CanonicalNodes is the number of distinct canonical predicates the
	// subscriptions intern to; CanonicalRoots of those are uncovered and
	// indexed by the automaton.
	CanonicalNodes, CanonicalRoots int
	// PosetDepth is the longest covering chain among canonical nodes.
	PosetDepth int
	// ProfilesPerCanonical is Subscriptions / CanonicalNodes (0 when empty):
	// the structural sharing factor aggregation achieves.
	ProfilesPerCanonical float64
}

// Stats returns the current counters.
func (s *Service) Stats() Stats {
	bs := s.brk.Stats()
	return Stats{
		Subscriptions:        bs.Subscriptions,
		Published:            bs.Published,
		Delivered:            bs.Delivered,
		Dropped:              bs.Dropped,
		FilterEvents:         bs.FilterEvents,
		FilterOps:            bs.FilterOps,
		MeanOps:              bs.MeanOps,
		Restructures:         s.Restructures(),
		Aggregated:           true,
		CanonicalNodes:       bs.Aggregation.Nodes,
		CanonicalRoots:       bs.Aggregation.Roots,
		PosetDepth:           bs.Aggregation.MaxDepth,
		ProfilesPerCanonical: bs.Aggregation.Ratio(),
	}
}

// Restructures reports how many adaptive restructures have happened (0
// without WithAdaptive).
func (s *Service) Restructures() int {
	if a := s.brk.Adaptor(); a != nil {
		return a.Restructures()
	}
	return 0
}

// ExpectedOpsPerEvent evaluates the analytic cost model (Eq. 2 of the
// paper) under the service's current event distribution estimate.
func (s *Service) ExpectedOpsPerEvent() (float64, error) {
	a, err := s.brk.Engine().Analyze()
	if err != nil {
		return 0, err
	}
	return a.TotalOps, nil
}

// Close shuts the service down; all subscription channels are closed.
func (s *Service) Close() { s.brk.Close() }

// Now returns the current time; exposed so examples produce deterministic
// output under `go test` by overriding it.
var Now = time.Now

// Group is a set of subscriptions sharing one ordered notification channel.
type Group = broker.Group

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
	return s.brk.SubscribeGroup(buffer, profiles...)
}
