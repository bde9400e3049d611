// Package broker implements a local event notification service: subscription
// management, the publish/filter path, per-subscriber delivery and an
// Elvin-style quenching interface ("a quenching mechanism that discards
// unneeded information without consuming resources", paper §2).
//
// The broker composes the distribution-based filter engine of internal/core
// with the adaptive component of internal/adaptive: every published event
// feeds the event history, and the filter tree restructures itself when the
// observed distribution drifts.
//
// Delivery state (subscription maps and per-profile counters) is partitioned
// with the same hash the sharded engine uses, so concurrent publishers
// contend per shard instead of on one broker-wide lock, and subscription
// churn on one shard never stalls delivery on the others.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/adaptive"
	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/sentinel"
	"genas/internal/stats"
)

// Errors returned by the broker. Each wraps the canonical sentinel of the
// public surface, so errors.Is against either the broker value or the
// re-exported genas sentinel succeeds.
var (
	ErrClosed        = fmt.Errorf("broker: %w", sentinel.ErrClosed)
	ErrUnknownSub    = fmt.Errorf("broker: %w", sentinel.ErrUnknownID)
	ErrDuplicateSub  = fmt.Errorf("broker: %w", sentinel.ErrDuplicateID)
	ErrNilProfile    = errors.New("broker: nil profile")
	ErrBadBufferSize = fmt.Errorf("broker: %w", sentinel.ErrBadBuffer)
)

// Notification is delivered to a subscriber whose profile matched an event.
type Notification struct {
	// Event is the matched event (sequence number assigned by the broker).
	Event event.Event
	// Profile identifies the subscription whose profile matched.
	Profile predicate.ID
	// Delivered is the broker-side delivery timestamp.
	Delivered time.Time
}

// sharedChan is a delivery channel possibly shared by several subscriptions
// (a Queue). The channel closes when the last reference is released: every
// member holds one, and so does a queue's owner until it closes the queue.
type sharedChan struct {
	ch     chan Notification
	refs   atomic.Int32
	closed atomic.Bool
}

// release drops one reference and closes the channel when none remain.
// Caller holds regMu.
func (sc *sharedChan) release() {
	if sc.refs.Add(-1) == 0 && sc.closed.CompareAndSwap(false, true) {
		close(sc.ch)
	}
}

// DropPolicy selects what happens to a notification when the subscriber's
// buffer is full.
type DropPolicy int

// Drop policies.
const (
	// DropNewest discards the incoming notification (the default: slow
	// subscribers never block the publish path and keep their oldest state).
	DropNewest DropPolicy = iota
	// DropOldest evicts the oldest buffered notification to make room, so a
	// lagging subscriber sees the freshest events.
	DropOldest
	// Block stalls the publisher until the subscriber drains the buffer (or
	// the subscription ends, or the publisher's context is canceled). Opt-in
	// backpressure: a subscriber that never reads stalls every publisher.
	Block
)

// SubOptions configure one subscription.
type SubOptions struct {
	// Buffer is the notification channel buffer (0 selects the broker
	// default, negative is invalid).
	Buffer int
	// Policy is the full-buffer drop policy.
	Policy DropPolicy
}

// Subscription is one subscriber registration. Notifications arrive on C();
// when the subscriber lags behind the buffer the drop policy decides between
// dropping the newest, evicting the oldest, or blocking the publisher.
// Delivery tallies live on the subscription itself (two uncontended atomics),
// realizing the paper's per-profile statistic objects without putting a mutex
// or a map on the publish path; the broker folds them into its counter store
// when the subscription ends.
type Subscription struct {
	id      predicate.ID
	profile *predicate.Profile
	shared  *sharedChan
	policy  DropPolicy
	// done closes when the subscription ends (end()), before the channel
	// itself closes: a Block-policy delivery blocked on a full buffer
	// watches it, so ending the subscription always releases its blocked
	// publishers promptly.
	done chan struct{}
	// sendMu fences Block-policy sends (read side) against the channel
	// close (write side). Block sends happen outside the delivery shard's
	// lock — a publisher stalled on one slow Block subscriber must not hold
	// a lock that registration operations or other deliveries need.
	sendMu    sync.RWMutex
	delivered atomic.Uint64
	dropped   atomic.Uint64
	closed    atomic.Bool
	// foldedDelivered/foldedDropped mark how much of the tallies the shard's
	// retired store has absorbed; written only from the subscription's
	// single Unsubscribe/Close invocation (see deliveryShard.retire).
	foldedDelivered uint64
	foldedDropped   uint64
}

// ID returns the subscription id.
func (s *Subscription) ID() predicate.ID { return s.id }

// Profile returns the subscription's profile.
func (s *Subscription) Profile() *predicate.Profile { return s.profile }

// C returns the notification channel. It is closed on Unsubscribe and on
// broker shutdown (for group members: when the whole group is gone).
func (s *Subscription) C() <-chan Notification { return s.shared.ch }

// Dropped returns how many notifications were discarded because the
// subscriber was slow (including DropOldest evictions).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many notifications reached the subscriber's buffer.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Options configure a Broker.
type Options struct {
	// Engine configuration (measures, search strategy, distributions).
	Engine core.Config
	// Shards selects the engine partition width: 0 or 1 runs the classic
	// single-tree engine, n > 1 runs an n-way sharded engine with delivery
	// state partitioned the same way.
	Shards int
	// Adaptive enables the adaptive filter component.
	Adaptive bool
	// Policy tunes adaptation (ignored unless Adaptive).
	Policy adaptive.Policy
	// DefaultBuffer is the per-subscription channel buffer (default 64).
	DefaultBuffer int
}

// deliveryShard holds the subscriptions of one partition of the id space,
// plus shard-level delivery aggregates and the per-profile counters retired
// from subscriptions that have since ended.
type deliveryShard struct {
	mu   sync.RWMutex
	subs map[predicate.ID]*Subscription
	// delivered/dropped aggregate the shard's whole history (live and
	// retired subscriptions), so Stats stays O(shards) instead of walking
	// every subscription. Contention is per shard, which is the point.
	delivered atomic.Uint64
	dropped   atomic.Uint64
	// retired accumulates the per-profile tallies of unsubscribed profiles
	// (cold path only: the publish path never touches it).
	retired *stats.Counters
}

// retire folds a dead subscription's per-profile tallies into the shard's
// counter store (the shard aggregates already include them). Delta-aware: it
// runs twice per subscription — once under the shard write lock when the
// subscription leaves the map, and once after the Block-send fence
// (retireChan), because a Block-policy delivery already parked in its select
// may record its outcome after the first fold. Both calls come from the same
// Unsubscribe/Close invocation (serialized by regMu), so the folded marks
// need no locking of their own.
func (d *deliveryShard) retire(sub *Subscription) {
	if n := sub.delivered.Load(); n > sub.foldedDelivered {
		d.retired.Add("delivered:"+string(sub.id), n-sub.foldedDelivered)
		sub.foldedDelivered = n
	}
	if n := sub.dropped.Load(); n > sub.foldedDropped {
		d.retired.Add("dropped:"+string(sub.id), n-sub.foldedDropped)
		sub.foldedDropped = n
	}
}

// Broker is the local ENS instance. It is safe for concurrent use.
type Broker struct {
	schema *schema.Schema
	filter core.Filter
	adapt  *adaptive.Adaptor

	// regMu serializes registration state changes (subscribe, unsubscribe,
	// close); the publish path only takes per-shard read locks.
	regMu  sync.Mutex
	closed atomic.Bool

	shards []*deliveryShard

	seq       atomic.Uint64
	published atomic.Uint64

	defaultBuffer int
}

// New creates a broker over schema s.
func New(s *schema.Schema, opts Options) (*Broker, error) {
	if opts.DefaultBuffer == 0 {
		opts.DefaultBuffer = 64
	}
	if opts.DefaultBuffer < 0 {
		return nil, ErrBadBufferSize
	}
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	var filter core.Filter
	if n > 1 {
		filter = core.NewSharded(s, opts.Engine, n)
	} else {
		filter = core.NewEngine(s, opts.Engine)
	}
	b := &Broker{
		schema:        s,
		filter:        filter,
		shards:        make([]*deliveryShard, n),
		defaultBuffer: opts.DefaultBuffer,
	}
	for i := range b.shards {
		b.shards[i] = &deliveryShard{
			subs:    make(map[predicate.ID]*Subscription),
			retired: stats.NewCounters(),
		}
	}
	if opts.Adaptive {
		a, err := adaptive.New(filter, opts.Policy)
		if err != nil {
			return nil, err
		}
		b.adapt = a
	}
	return b, nil
}

// Schema returns the broker's schema.
func (b *Broker) Schema() *schema.Schema { return b.schema }

// Engine exposes the underlying filter (experiments and diagnostics): a
// *core.Engine for single-shard brokers, a *core.Sharded otherwise.
func (b *Broker) Engine() core.Filter { return b.filter }

// Shards returns the delivery partition width.
func (b *Broker) Shards() int { return len(b.shards) }

// Adaptor returns the adaptive component (nil when disabled).
func (b *Broker) Adaptor() *adaptive.Adaptor { return b.adapt }

// shardFor returns the delivery shard owning id (aligned with the engine's
// profile partition).
func (b *Broker) shardFor(id predicate.ID) *deliveryShard {
	return b.shards[core.ShardOf(id, len(b.shards))]
}

// SubscribeWith registers a profile and returns its subscription, with the
// buffer and drop policy of o (zero values: the broker's default buffer,
// DropNewest). The profile ID must be unique within the broker.
func (b *Broker) SubscribeWith(p *predicate.Profile, o SubOptions) (*Subscription, error) {
	if p == nil {
		return nil, ErrNilProfile
	}
	if o.Buffer == 0 {
		o.Buffer = b.defaultBuffer
	}
	if o.Buffer < 0 {
		return nil, ErrBadBufferSize
	}
	b.regMu.Lock()
	defer b.regMu.Unlock()
	return b.register(p, &sharedChan{ch: make(chan Notification, o.Buffer)}, o.Policy)
}

// register is the one registration routine: it makes p a member of the
// delivery channel sc — a fresh one (SubscribeWith) or one that other
// subscriptions already deliver into (Queue.Subscribe, and through it
// SubscribeGroup). Caller holds regMu, which also serializes it with every
// release of sc: a channel found open here cannot close before the member
// holds its reference.
func (b *Broker) register(p *predicate.Profile, sc *sharedChan, policy DropPolicy) (*Subscription, error) {
	if b.closed.Load() || sc.closed.Load() {
		return nil, ErrClosed
	}
	shard := b.shardFor(p.ID)
	shard.mu.RLock()
	_, dup := shard.subs[p.ID]
	shard.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateSub, p.ID)
	}
	sub := &Subscription{id: p.ID, profile: p, shared: sc, policy: policy, done: make(chan struct{})}
	// Insert into the delivery map before the profile becomes matchable: the
	// reverse order would let a concurrent Publish match the profile, miss
	// it in the map and silently lose the notification.
	shard.mu.Lock()
	shard.subs[p.ID] = sub
	shard.mu.Unlock()
	if err := b.filter.AddProfile(p); err != nil {
		shard.mu.Lock()
		delete(shard.subs, p.ID)
		shard.mu.Unlock()
		return nil, err
	}
	sc.refs.Add(1)
	return sub, nil
}

// Queue is a delivery channel that subscriptions join one at a time and
// leave through Unsubscribe: the consumer is whoever drains C — a
// connection's forwarder, a group's detector — not the single subscription.
// Members deliver with the non-blocking DropNewest policy into the one
// buffer. The owner holds a reference of its own, so the channel stays open
// between subscriptions and closes once the owner has called Close and the
// last member is gone.
type Queue struct {
	b      *Broker
	shared *sharedChan
	once   sync.Once
}

// NewQueue creates an empty queue buffering up to buffer notifications.
func (b *Broker) NewQueue(buffer int) (*Queue, error) {
	if buffer <= 0 {
		return nil, ErrBadBufferSize
	}
	q := &Queue{b: b, shared: &sharedChan{ch: make(chan Notification, buffer)}}
	q.shared.refs.Store(1) // the owner's
	return q, nil
}

// C returns the queue's notification channel.
func (q *Queue) C() <-chan Notification { return q.shared.ch }

// Subscribe registers p as a member of the queue. The profile ID must be
// unique within the broker.
func (q *Queue) Subscribe(p *predicate.Profile) (*Subscription, error) {
	if p == nil {
		return nil, ErrNilProfile
	}
	q.b.regMu.Lock()
	defer q.b.regMu.Unlock()
	return q.b.register(p, q.shared, DropNewest)
}

// Close drops the owner's reference: members stay subscribed until they are
// unsubscribed, and the channel closes with the last of them.
func (q *Queue) Close() {
	q.once.Do(func() {
		q.b.regMu.Lock()
		defer q.b.regMu.Unlock()
		q.shared.release()
	})
}

// Group is a set of subscriptions delivering over one ordered channel: all
// notifications triggered by one published event arrive contiguously and in
// publish order, which composite event detection depends on.
type Group struct {
	b      *Broker
	shared *sharedChan
	ids    []predicate.ID
	once   sync.Once
}

// C returns the group's merged notification channel.
func (g *Group) C() <-chan Notification { return g.shared.ch }

// IDs returns the member profile ids.
func (g *Group) IDs() []predicate.ID { return append([]predicate.ID(nil), g.ids...) }

// Close unsubscribes every member; the channel closes when the last member
// is gone.
func (g *Group) Close() {
	g.once.Do(func() {
		for _, id := range g.ids {
			_ = g.b.Unsubscribe(id)
		}
	})
}

// SubscribeGroup registers several profiles that share one notification
// channel: a queue whose owner's reference spans only the registration, so the
// channel closes with the last member. Registration is atomic: on any failure
// no profile remains subscribed.
func (b *Broker) SubscribeGroup(buffer int, profiles ...*predicate.Profile) (*Group, error) {
	q, err := b.NewQueue(buffer)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	if len(profiles) == 0 {
		return nil, ErrNilProfile
	}
	g := &Group{b: b, shared: q.shared}
	for _, p := range profiles {
		if _, err := q.Subscribe(p); err != nil {
			g.Close() // unsubscribes the members registered so far
			return nil, err
		}
		g.ids = append(g.ids, p.ID)
	}
	return g, nil
}

// end marks the subscription closed and releases any Block-policy delivery
// waiting on its full buffer. Idempotent.
func (s *Subscription) end() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.done)
	}
}

// retireChan closes the subscription's channel reference once no send can
// touch it anymore, then folds any tallies a late Block-policy send recorded
// after the first retire. Callers must have removed the subscription from
// its delivery shard first (under the shard write lock, which waits out the
// non-blocking sends) and ended it (which releases Block-policy sends); the
// sendMu write acquisition then only waits for those sends — which record
// their per-subscription tallies under the read side — to finish.
func (s *Subscription) retireChan(shard *deliveryShard) {
	s.sendMu.Lock()
	s.shared.release()
	s.sendMu.Unlock()
	shard.retire(s)
}

// Unsubscribe removes a subscription and closes its channel.
func (b *Broker) Unsubscribe(id predicate.ID) error {
	b.regMu.Lock()
	defer b.regMu.Unlock()
	shard := b.shardFor(id)
	shard.mu.RLock()
	sub, ok := shard.subs[id]
	shard.mu.RUnlock()
	if !ok {
		if b.closed.Load() {
			return ErrClosed
		}
		return fmt.Errorf("%w: %s", ErrUnknownSub, id)
	}
	// Release blocked publishers before anything else; regMu serializes all
	// registration changes, so the map cannot change between the lookup
	// above and the removal below.
	sub.end()
	shard.mu.Lock()
	delete(shard.subs, id)
	shard.retire(sub)
	shard.mu.Unlock()
	// Close outside the shard lock: after the write section above no new
	// delivery can find the subscription, in-flight non-blocking sends
	// completed before the write lock was granted, and in-flight Block
	// sends are fenced by sendMu inside retireChan.
	sub.retireChan(shard)
	return b.filter.RemoveProfile(id)
}

// Publish filters the event and delivers notifications to every matched
// subscriber. It returns the number of matched profiles. Subscribers with the
// default DropNewest policy never block the publish path: over-full buffers
// drop (counted per subscription and broker-wide); Block-policy subscribers
// apply backpressure. The broker keeps ev.Vals: the caller hands the slice
// over.
func (b *Broker) Publish(ev event.Event) (int, error) {
	return b.publishOne(ev, true, nil)
}

// PublishCtx is Publish with a cancellation context: it refuses to start on a
// done context, and delivery blocked on a Block-policy subscriber aborts
// (counting a drop) when the context is canceled.
func (b *Broker) PublishCtx(ctx context.Context, ev event.Event) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.publishOne(ev, true, ctx.Done())
}

// PublishValues filters one positionally-encoded event without building an
// event value up front: vals is only read during matching, and an event (with
// its own copy of the values) is materialized only when at least one profile
// matched. The caller may reuse the slice immediately after the call, so a
// steady-state publisher allocates nothing for the non-matching events — the
// overwhelming majority under the paper's workloads.
//
//genas:hotpath
func (b *Broker) PublishValues(vals []float64) (int, error) {
	return b.publishOne(event.Event{Vals: vals}, false, nil)
}

// PublishValuesCtx is PublishValues with a cancellation context (see
// PublishCtx).
//
//genas:hotpath
func (b *Broker) PublishValuesCtx(ctx context.Context, vals []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.publishOne(event.Event{Vals: vals}, false, ctx.Done())
}

// arityErr reports event i of a batch (i < 0: a lone event) carrying got
// values instead of one per schema attribute.
func (b *Broker) arityErr(i, got int) error {
	if i < 0 {
		return fmt.Errorf("%w: got %d values for %d attributes", event.ErrArity, got, b.schema.N())
	}
	return fmt.Errorf("%w: event %d: got %d values for %d attributes", event.ErrArity, i, got, b.schema.N())
}

// admit is the prologue every publish entry point runs once its arity checks
// passed: it refuses on a closed broker, counts n published events and
// reserves their n consecutive sequence numbers, returning the one before
// the first.
//
//genas:hotpath
func (b *Broker) admit(n int) (uint64, error) {
	if b.closed.Load() {
		return 0, ErrClosed
	}
	b.published.Add(uint64(n))
	return b.seq.Add(uint64(n)) - uint64(n), nil
}

// publishOne is the single-event core behind Publish and PublishValues.
// Nothing on the miss branch allocates. On a match the event is stamped (its
// sequence number, and the time unless the caller set one) and delivered;
// owned says the caller handed ev.Vals over — otherwise the caller keeps the
// slice and the notifications carry a copy.
//
//genas:hotpath
func (b *Broker) publishOne(ev event.Event, owned bool, cancel <-chan struct{}) (int, error) {
	if len(ev.Vals) != b.schema.N() {
		return 0, b.arityErr(-1, len(ev.Vals))
	}
	base, err := b.admit(1)
	if err != nil {
		return 0, err
	}
	if b.adapt != nil {
		b.adapt.Observe(ev.Vals)
	}
	ids, _, err := b.filter.Match(ev.Vals)
	if err != nil || len(ids) == 0 {
		return 0, err
	}
	now := time.Now()
	if !owned {
		ev.Vals = append([]float64(nil), ev.Vals...)
	}
	ev.Seq = base + 1
	if ev.Time.IsZero() {
		ev.Time = now
	}
	b.deliver(ev, ids, now, cancel)
	return len(ids), nil
}

// PublishBatch filters a batch of events against one corpus snapshot and
// delivers the notifications in event order. It returns the per-event match
// counts, positionally aligned with the input; the input slice itself is not
// modified, so buffers may be reused across calls. The batch amortizes
// sequence assignment, adaptor bookkeeping and per-shard lock acquisition
// across the whole slice; events are matched concurrently by the engine's
// batch path.
func (b *Broker) PublishBatch(evs []event.Event) ([]int, error) {
	return b.publishBatch(evs, nil)
}

// PublishBatchCtx is PublishBatch with a cancellation context: it refuses to
// start on a done context, and deliveries blocked on Block-policy subscribers
// abort (counting drops) when the context is canceled. Events already matched
// stay matched — the batch is not transactional.
func (b *Broker) PublishBatchCtx(ctx context.Context, evs []event.Event) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.publishBatch(evs, ctx.Done())
}

// publishBatch stays apart from publishOne as far as the engine's MatchBatch
// needs: all vectors go to the matcher in one call, against one snapshot.
func (b *Broker) publishBatch(evs []event.Event, cancel <-chan struct{}) ([]int, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	for i := range evs {
		if len(evs[i].Vals) != b.schema.N() {
			return nil, b.arityErr(i, len(evs[i].Vals))
		}
	}
	base, err := b.admit(len(evs))
	if err != nil {
		return nil, err
	}

	// Stamp sequence numbers and times on a copy: like Publish, the batch
	// path must not mutate caller-visible events (a reused buffer would
	// otherwise keep its first call's timestamps forever).
	now := time.Now()
	batch := make([]event.Event, len(evs))
	vals := make([][]float64, len(evs))
	for i := range evs {
		batch[i] = evs[i]
		batch[i].Seq = base + uint64(i) + 1
		if batch[i].Time.IsZero() {
			batch[i].Time = now
		}
		vals[i] = batch[i].Vals
	}

	if b.adapt != nil {
		b.adapt.ObserveBatch(vals)
	}

	results, err := b.filter.MatchBatch(vals, 0)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(evs))
	delivered := time.Now()
	for i, r := range results {
		counts[i] = len(r.IDs)
		b.deliver(batch[i], r.IDs, delivered, cancel)
	}
	return counts, nil
}

// blockedSend is one Block-policy delivery deferred to after the shard locks
// are released.
type blockedSend struct {
	shard *deliveryShard
	sub   *Subscription
	n     Notification
}

// blockedBuf is the pooled collection buffer for Block-policy deliveries:
// steady-state delivery to Block subscribers must not grow a fresh slice per
// event. Buffers are cleared before pooling so retained capacity does not
// pin events or subscriptions.
type blockedBuf struct {
	sends []blockedSend
}

var blockedPool = sync.Pool{New: func() any { return new(blockedBuf) }}

// deliver pushes one event's notifications to the matched subscribers,
// locking only the delivery shards the matched ids live on. Non-blocking
// sends (DropNewest, DropOldest) happen under the shard read lock: channel
// close waits for the shard write lock first, so such a send can never hit a
// closing channel. Block-policy sends are collected and performed after all
// shard locks are released — a publisher stalled on one slow Block
// subscriber must not wedge registration operations or deliveries to other
// subscribers — fenced against close by the subscription's sendMu. Matched
// ids arrive grouped by shard (the sharded engine merges in shard order), so
// the lock is held across each run of same-shard ids rather than per id.
// cancel (possibly nil) aborts Block-policy sends.
//
// The notification value is built once per event, before the loop, and only
// its Profile field is stamped per matched id — after the liveness check, so
// closed or vanished subscriptions cost nothing (they previously paid a full
// event copy each).
//
//genas:hotpath
func (b *Broker) deliver(ev event.Event, ids []predicate.ID, now time.Time, cancel <-chan struct{}) {
	var shard *deliveryShard
	var buf *blockedBuf // nil unless Block-policy subscribers matched
	n := Notification{Event: ev, Delivered: now}
	for _, id := range ids {
		if next := b.shardFor(id); next != shard {
			if shard != nil {
				shard.mu.RUnlock()
			}
			shard = next
			shard.mu.RLock()
		}
		sub, ok := shard.subs[id]
		if !ok || sub.closed.Load() {
			continue
		}
		n.Profile = id
		if sub.policy == Block {
			if buf == nil {
				buf = blockedPool.Get().(*blockedBuf)
			}
			buf.sends = append(buf.sends, blockedSend{shard: shard, sub: sub, n: n})
			continue
		}
		sent, evicted := sub.send(n)
		if sent {
			sub.delivered.Add(1)
			shard.delivered.Add(1)
		} else {
			sub.dropped.Add(1)
			shard.dropped.Add(1)
		}
		if evicted > 0 {
			sub.dropped.Add(uint64(evicted))
			shard.dropped.Add(uint64(evicted))
		}
	}
	if shard != nil {
		shard.mu.RUnlock()
	}
	if buf == nil {
		return
	}
	for i := range buf.sends {
		bs := &buf.sends[i]
		if bs.sub.blockingSend(bs.n, cancel) {
			bs.shard.delivered.Add(1)
		} else {
			bs.shard.dropped.Add(1)
		}
	}
	clear(buf.sends)
	buf.sends = buf.sends[:0]
	blockedPool.Put(buf)
}

// send places n on the subscription channel under its non-blocking drop
// policy, reporting whether the notification reached the buffer and how many
// older notifications were evicted to make room. Runs with the shard read
// lock held, so the channel cannot close mid-send.
func (s *Subscription) send(n Notification) (sent bool, evicted int) {
	if s.policy == DropOldest {
		for {
			select {
			case s.shared.ch <- n:
				return true, evicted
			default:
			}
			select {
			case <-s.shared.ch:
				evicted++
			default:
				// A consumer drained the buffer between the two selects;
				// retry the send.
			}
		}
	}
	select {
	case s.shared.ch <- n: // DropNewest
		return true, 0
	default:
		return false, 0
	}
}

// blockingSend performs one Block-policy delivery outside the shard locks:
// it waits until buffer space frees, the subscription ends (done closes
// before the channel does), or the publisher's cancel channel fires (nil
// means no cancellation). sendMu (read side) fences the channel against
// retireChan's close — if the closed re-check reads false, the close cannot
// start until this send returns — and the per-subscription tallies are
// recorded under the same fence, so retireChan's final fold observes them.
func (s *Subscription) blockingSend(n Notification, cancel <-chan struct{}) bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed.Load() {
		// The subscription may be fully retired already (its final fold can
		// precede this read), so only the shard-wide drop aggregate counts
		// this outcome — the caller's else-branch handles it.
		return false
	}
	//genas:allow locksafe sendMu is the close fence, not a shard lock: the blocking wait under its read side is this function's contract
	select {
	case s.shared.ch <- n:
		s.delivered.Add(1)
		return true
	case <-s.done:
		s.dropped.Add(1)
		return false
	case <-cancel:
		s.dropped.Add(1)
		return false
	}
}

// Quenched reports whether events whose attribute attr falls inside iv are
// guaranteed to match no profile, so a provider may suppress them at the
// source (Elvin-style quenching). It is conservative: false means "someone
// might care".
func (b *Broker) Quenched(attr int, iv schema.Interval) bool {
	if attr < 0 || attr >= b.schema.N() {
		return false
	}
	dom := b.schema.At(attr).Domain
	// Hold regMu so the multi-shard scan sees one consistent registration
	// snapshot: without it, a profile migrating between scanned and
	// unscanned shards (unsubscribe+resubscribe) could hide continuous
	// coverage and yield a false "quenched". Quench queries are cold-path.
	b.regMu.Lock()
	defer b.regMu.Unlock()
	for _, shard := range b.shards {
		shard.mu.RLock()
		for _, sub := range shard.subs {
			p := sub.profile
			if !p.Constrains(attr) {
				shard.mu.RUnlock()
				return false // a don't-care profile accepts any value here
			}
			for _, piv := range p.Pred(attr).Intervals(dom) {
				if piv.Overlaps(iv) {
					shard.mu.RUnlock()
					return false
				}
			}
		}
		shard.mu.RUnlock()
	}
	return true
}

// Stats is a broker-level counter snapshot.
type Stats struct {
	Subscriptions int
	Published     uint64
	Delivered     uint64
	Dropped       uint64
	// Filter carries the engine's operation accounting.
	FilterEvents uint64
	FilterOps    uint64
	MeanOps      float64
	// Aggregation describes the shape of the engine's index: the canonical
	// subscription poset.
	Aggregation core.AggStats
}

// Stats returns the current counters.
func (b *Broker) Stats() Stats {
	var n int
	var delivered, dropped uint64
	for _, shard := range b.shards {
		shard.mu.RLock()
		n += len(shard.subs)
		shard.mu.RUnlock()
		delivered += shard.delivered.Load()
		dropped += shard.dropped.Load()
	}
	acc := b.filter.Account()
	return Stats{
		Subscriptions: n,
		Published:     b.published.Load(),
		Delivered:     delivered,
		Dropped:       dropped,
		FilterEvents:  acc.Events,
		FilterOps:     acc.Ops,
		MeanOps:       acc.MeanOps,
		Aggregation:   b.filter.AggStats(),
	}
}

// Counters returns a merged snapshot of the per-profile delivery/drop
// counters (the paper's statistic objects, §4.2): live subscription tallies
// plus the counts retired from ended subscriptions. A key appears once it
// has counted at least one notification.
func (b *Broker) Counters() []stats.Entry {
	merged := stats.NewCounters()
	for _, shard := range b.shards {
		// Retired and live tallies are read under one read lock so that a
		// concurrent Unsubscribe (which moves counts from live to retired
		// under the write lock) can never make a profile vanish from the
		// snapshot.
		shard.mu.RLock()
		for _, e := range shard.retired.Snapshot() {
			merged.Add(e.Key, e.Count)
		}
		for id, sub := range shard.subs {
			if n := sub.delivered.Load(); n > 0 {
				merged.Add("delivered:"+string(id), n)
			}
			if n := sub.dropped.Load(); n > 0 {
				merged.Add("dropped:"+string(id), n)
			}
		}
		shard.mu.RUnlock()
	}
	return merged.Snapshot()
}

// Close shuts the broker down: all subscription channels are closed and
// further operations fail with ErrClosed.
func (b *Broker) Close() {
	b.regMu.Lock()
	defer b.regMu.Unlock()
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	for _, shard := range b.shards {
		// End every subscription first so blocked Block-policy publishers
		// release; regMu (held) blocks new registrations meanwhile.
		shard.mu.RLock()
		ending := make([]*Subscription, 0, len(shard.subs))
		for _, sub := range shard.subs {
			ending = append(ending, sub)
		}
		shard.mu.RUnlock()
		for _, sub := range ending {
			sub.end()
		}
		shard.mu.Lock()
		for id, sub := range shard.subs {
			shard.retire(sub)
			delete(shard.subs, id)
		}
		shard.mu.Unlock()
		for _, sub := range ending {
			sub.retireChan(shard)
		}
	}
}
