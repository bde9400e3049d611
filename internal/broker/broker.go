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
// Matching and delivery are separate stages. The engine may split its poset
// roots over several automata (Options.Shards); delivery does not know it.
// A match yields the subscriptions themselves, so the broker keeps no table
// of its own, and every subscription counts its own deliveries and drops
// while it lives.
//
// A subscription delivers over a channel, its own or its Queue's, or, with
// a handler (SubOptions.Handler), through one of a few delivery workers
// the broker owns (worker.go): a handler subscription holds no channel,
// ring or goroutine.
//
// Counting adds no lock to the publish path: the engine books each match in
// two atomics, a subscription its outcomes in two more, and the broker keeps
// broker-wide totals beside them. Stats fills the broker's part of the one
// stats record (stats.Record). Nothing keyed by a subscription id outlives
// the subscription: after Unsubscribe its tallies survive only in the
// broker-wide totals.
package broker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// sharedChan is a Queue's delivery channel, shared by its members. The
// channel closes when the last reference is released: every member holds
// one, and so does the queue's owner until it closes the queue.
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
// buffer is full. It is a byte, so that it packs beside a subscription's
// flag.
type DropPolicy uint8

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
	// default, negative is invalid). A handler subscription has no
	// channel: Buffer caps the notifications it has queued for its worker
	// and not yet taken.
	Buffer int
	// Policy is the full-buffer drop policy.
	Policy DropPolicy
	// Priority, when not zero, replaces the profile's priority in the
	// subscription's copy; the caller's profile keeps its own.
	Priority float64
	// Handler, when not nil, receives the notifications instead of a
	// channel: a delivery worker of the broker calls it, sequentially and
	// in queue order for the subscription, and a slow handler delays the
	// handlers that share its worker.
	Handler func(Notification)
}

// Subscription is one subscriber registration. Notifications arrive on C(),
// or reach its handler through a delivery worker; when the subscriber lags
// behind the buffer the drop policy decides between dropping the newest,
// evicting the oldest, or blocking the publisher.
// Delivery tallies live on the subscription itself (two uncontended atomics),
// realizing the paper's per-profile statistic objects without putting a mutex
// or a map on the publish path; they end with the subscription.
type Subscription struct {
	// profile is the subscription's own copy of the caller's profile: its
	// id, priority and predicate column. The poset points the column at its
	// canonical node's when the two are equal (agg.Member), so duplicates
	// hold one column between them; the caller's profile is never written.
	profile predicate.Profile
	// ch is the delivery channel. A queue member's is its queue's, and
	// shared is the queue's share of it; a private subscription's is its
	// own, which it closes itself (shared is nil). A handler
	// subscription has neither.
	ch     chan Notification
	shared *sharedChan
	// handler, when not nil, is called by the worker the subscription is
	// pinned to (index worker in the broker's workers); room and skip are
	// its counted buffer, guarded by that worker's mu (worker.go).
	handler   func(Notification)
	delivered atomic.Uint64
	dropped   atomic.Uint64
	closed    atomic.Bool
	// senders counts the Block-policy sends in flight on the channel. They
	// happen outside the broker's send fence — a publisher stalled on one
	// slow Block subscriber must not hold a lock that registration
	// operations or other deliveries need — so retire waits for them to
	// leave before it closes the channel.
	senders    atomic.Int32
	room, skip int32
	worker     uint16
	policy     DropPolicy
}

// ID returns the subscription id.
func (s *Subscription) ID() predicate.ID { return s.profile.ID }

// Profile returns the registered copy of the subscription's profile: the
// caller's id and predicates, with the priority SubOptions set. Its
// predicate column may be shared with equal subscriptions; it is read-only.
func (s *Subscription) Profile() *predicate.Profile { return &s.profile }

// C returns the notification channel, nil for a handler subscription. It is
// closed on Unsubscribe and on broker shutdown (for queue members: when the
// queue is closed and its last member is gone).
func (s *Subscription) C() <-chan Notification { return s.ch }

// Dropped returns how many notifications were discarded because the
// subscriber was slow (including DropOldest evictions).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many notifications reached the subscriber's buffer
// (a handler subscription's: its worker's queue).
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Options configure a Broker.
type Options struct {
	// Engine configuration (attribute ordering, event distributions).
	Engine core.Config
	// Shards selects the automata per engine: 0 or 1 indexes every poset
	// root in one automaton, n > 1 splits the roots over n by node index
	// (core.NewSharded). There is one poset and one writer lock either way.
	Shards int
	// Adaptive enables the adaptive filter component.
	Adaptive bool
	// Policy tunes adaptation (ignored unless Adaptive).
	Policy adaptive.Policy
	// DefaultBuffer is the per-subscription channel buffer (default 64).
	DefaultBuffer int
}

// Broker is the local ENS instance. It is safe for concurrent use.
type Broker struct {
	schema *schema.Schema
	engine *core.Engine
	adapt  *adaptive.Adaptor

	// regMu serializes registration state changes (subscribe, unsubscribe,
	// close); the publish path only takes mu's read side.
	regMu  sync.Mutex
	closed atomic.Bool

	// mu is only the send/close fence: deliver checks closed and sends
	// without blocking under its read side, a subscription ends under its
	// write side.
	mu sync.RWMutex
	// ended is the broker's one end signal: a Block-policy send waiting on a
	// full buffer (counted in waiting) also waits on it, and signalEnd
	// closes it, and installs a fresh one, whenever a subscription ends
	// while some send waits. A woken send re-checks its own subscription.
	// It holds a chan struct{}; signalEnd writes it under mu's write side.
	ended   atomic.Value
	waiting atomic.Int32
	// delivered/dropped aggregate the whole history (live and ended
	// subscriptions), so Stats does not walk every subscription.
	delivered atomic.Uint64
	dropped   atomic.Uint64

	seq       atomic.Uint64
	published atomic.Uint64

	// workers deliver to the handler subscriptions (worker.go): made at
	// the first handler subscribe, their goroutines started once one is
	// registered (running), and stopped by Close. next is the round robin
	// that pins a handler subscription to one. All three change under
	// regMu; a publisher reads workers through a subscription it matched.
	workers []*worker
	next    int
	running bool

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
	b := &Broker{
		schema:        s,
		engine:        core.NewSharded(s, opts.Engine, max(opts.Shards, 1)),
		defaultBuffer: opts.DefaultBuffer,
	}
	b.ended.Store(make(chan struct{}))
	if opts.Adaptive {
		a, err := adaptive.New(b.engine, opts.Policy)
		if err != nil {
			return nil, err
		}
		b.adapt = a
	}
	return b, nil
}

// Schema returns the broker's schema.
func (b *Broker) Schema() *schema.Schema { return b.schema }

// Engine exposes the underlying filter engine (experiments and
// diagnostics). Its members are the broker's subscriptions; add or remove
// none through it.
func (b *Broker) Engine() *core.Engine { return b.engine }

// Profiles returns every subscription's own profile: its spelling, id and
// priority as subscribed, in the engine's order.
func (b *Broker) Profiles() []*predicate.Profile {
	ms := b.engine.Members()
	out := make([]*predicate.Profile, len(ms))
	for i, m := range ms {
		out[i] = m.Profile()
	}
	return out
}

// Adaptor returns the adaptive component (nil when disabled).
func (b *Broker) Adaptor() *adaptive.Adaptor { return b.adapt }

// SubscribeWith registers a copy of profile p and returns its subscription,
// with the buffer, drop policy, priority and handler of o (zero values: the
// broker's default buffer, DropNewest, p's priority, a channel). The profile
// ID must be unique within the broker. The first handler subscription
// starts the broker's delivery workers.
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
	sub := &Subscription{profile: *p, handler: o.Handler, policy: o.Policy}
	if o.Priority != 0 {
		sub.profile.Priority = o.Priority
	}
	if o.Handler != nil {
		b.pin(sub, o.Buffer)
	} else {
		sub.ch = make(chan Notification, o.Buffer)
	}
	return b.register(sub)
}

// register is the one registration routine: it makes sub, which delivers
// into its own channel or through its worker (SubscribeWith) or into its
// queue's channel (Queue.Subscribe), a member of the engine, and starts the
// workers with the first handler subscription registered. Caller holds
// regMu, which also serializes it with every release of the queue's share:
// a share found open here cannot close before the member holds its
// reference.
func (b *Broker) register(sub *Subscription) (*Subscription, error) {
	if b.closed.Load() || sub.shared != nil && sub.shared.closed.Load() {
		return nil, ErrClosed
	}
	if err := b.engine.Add(sub); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateSub, sub.profile.ID)
	}
	if sub.shared != nil {
		sub.shared.refs.Add(1)
	}
	if sub.handler != nil {
		b.startWorkers()
	}
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

// Subscribe registers a copy of p as a member of the queue. The profile ID
// must be unique within the broker.
func (q *Queue) Subscribe(p *predicate.Profile) (*Subscription, error) {
	if p == nil {
		return nil, ErrNilProfile
	}
	q.b.regMu.Lock()
	defer q.b.regMu.Unlock()
	return q.b.register(&Subscription{profile: *p, ch: q.shared.ch, shared: q.shared, policy: DropNewest})
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

// end marks the subscription closed. Idempotent. Callers hold the broker's
// mu, and call signalEnd once they have ended what they end, which releases
// the Block-policy deliveries waiting on a full buffer.
func (s *Subscription) end() { s.closed.Store(true) }

// signalEnd wakes every Block-policy delivery waiting on a full buffer, if
// there is one, so that each re-checks whether its subscription has ended:
// it closes the end signal and installs a fresh one. Without a waiter it
// allocates nothing. Callers hold mu's write side, having ended their
// subscriptions first. The order is Dekker's: an ender stores closed before
// it loads waiting, and a waiter adds itself to waiting before it loads the
// signal and then closed, so either the ender sees the waiter, or the
// waiter sees its subscription closed.
func (b *Broker) signalEnd() {
	if b.waiting.Load() > 0 {
		close(b.ended.Load().(chan struct{}))
		b.ended.Store(make(chan struct{}))
	}
}

// retire closes the subscription's channel, or drops its reference to its
// queue's, once no send can touch it anymore. Callers must have ended the
// subscription first (under mu's write side, which waits out the
// non-blocking sends) and signaled the end, which releases the Block-policy
// sends; retire then only yields until those have left. The order is
// Dekker's, as in signalEnd: a Block send counts itself in senders before
// it loads closed, and the ender stores closed before retire loads senders,
// so either retire waits for the send, or the send sees the subscription
// ended and leaves the channel alone. A handler subscription has no
// channel: taking its worker's mu waits out a Block-policy send that found
// it live, and what it queued is still handled. A subscription is retired
// once: by Unsubscribe, which removed it from the engine, or by Close.
func (b *Broker) retire(s *Subscription) {
	if s.handler != nil {
		w := b.workers[s.worker]
		w.mu.Lock() // an empty critical section: taking the lock is the fence
		w.mu.Unlock()
		return
	}
	for s.senders.Load() > 0 {
		runtime.Gosched()
	}
	if s.shared != nil {
		s.shared.release()
	} else {
		close(s.ch)
	}
}

// Unsubscribe removes a subscription and closes its channel (ErrClosed after
// Close, which has closed them all). A handler subscription's handler still
// receives what was queued before.
func (b *Broker) Unsubscribe(id predicate.ID) error {
	b.regMu.Lock()
	defer b.regMu.Unlock()
	if b.closed.Load() {
		return ErrClosed
	}
	m, err := b.engine.Remove(id)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownSub, id)
	}
	sub := m.(*Subscription)
	b.mu.Lock()
	sub.end()
	b.signalEnd()
	b.mu.Unlock()
	// Close outside the fence: in-flight non-blocking sends completed before
	// the write lock was granted, later ones see the subscription ended, and
	// in-flight Block sends are waited out inside retire.
	b.retire(sub)
	return nil
}

// Publish filters the event and delivers notifications to every matched
// subscriber. It returns the number of matched profiles. Subscribers with the
// default DropNewest policy never block the publish path: over-full buffers
// drop (counted per subscription and broker-wide); Block-policy subscribers
// apply backpressure. The broker keeps no reference to ev.Vals, so the
// caller may reuse the slice: notifications carry the broker's own copy.
func (b *Broker) Publish(ev event.Event) (int, error) {
	return b.publishOne(ev, nil)
}

// PublishCtx is Publish with a cancellation context: it refuses to start on a
// done context, and delivery blocked on a Block-policy subscriber aborts
// (counting a drop) when the context is canceled.
func (b *Broker) PublishCtx(ctx context.Context, ev event.Event) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.publishOne(ev, ctx.Done())
}

// PublishValues is Publish of an untimestamped event: vals is only read
// during matching, an event is materialized only when at least one profile
// matched, and the caller may reuse the slice immediately after the call.
//
//genas:hotpath
func (b *Broker) PublishValues(vals []float64) (int, error) {
	return b.publishOne(event.Event{Vals: vals}, nil)
}

// PublishValuesCtx is PublishValues with a cancellation context (see
// PublishCtx).
//
//genas:hotpath
func (b *Broker) PublishValuesCtx(ctx context.Context, vals []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return b.publishOne(event.Event{Vals: vals}, ctx.Done())
}

// admit is the prologue every publish entry point runs once its events
// validated: it refuses on a closed broker, counts n published events and
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

// publishOne is the single-event entry behind Publish and PublishValues: it
// validates ev, reserves one sequence number and runs the core on it.
//
//genas:hotpath
func (b *Broker) publishOne(ev event.Event, cancel <-chan struct{}) (int, error) {
	if err := event.Validate(b.schema, ev.Vals); err != nil {
		return 0, err
	}
	base, err := b.admit(1)
	if err != nil {
		return 0, err
	}
	sc := publishPool.Get().(*publishScratch)
	n, err := b.publish(ev, base+1, sc, cancel)
	publishPool.Put(sc)
	return n, err
}

// PublishBatch publishes a batch of events in slice order, as a run of
// Publish calls would: each event is matched in the caller's goroutine
// against the corpus current at that moment, and the notifications are
// delivered in event order. The events get contiguous sequence numbers. It
// returns the per-event match counts, positionally aligned with the input.
// The broker keeps no reference to evs or their Vals, so the caller may
// reuse them after the call. A batch that fails validation publishes nothing.
func (b *Broker) PublishBatch(evs []event.Event) ([]int, error) {
	return b.publishBatch(nil, evs, nil)
}

// PublishBatchAppend is PublishBatch appending the counts to dst, which a
// failed batch returns as it was.
func (b *Broker) PublishBatchAppend(dst []int, evs []event.Event) ([]int, error) {
	return b.publishBatch(dst, evs, nil)
}

// PublishBatchCtx is PublishBatch with a cancellation context: it refuses to
// start on a done context, and deliveries blocked on Block-policy subscribers
// abort (counting drops) when the context is canceled. Events already matched
// stay matched — the batch is not transactional.
func (b *Broker) PublishBatchCtx(ctx context.Context, evs []event.Event) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.publishBatch(nil, evs, ctx.Done())
}

// publishBatch validates the whole batch, reserves its sequence numbers at
// once and runs the core on each event in order with one pooled scratch, so
// growing dst by the counts is its only allocation besides the values blocks.
func (b *Broker) publishBatch(dst []int, evs []event.Event, cancel <-chan struct{}) ([]int, error) {
	if len(evs) == 0 {
		return dst, nil
	}
	for i := range evs {
		if err := event.Validate(b.schema, evs[i].Vals); err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
	}
	base, err := b.admit(len(evs))
	if err != nil {
		return dst, err
	}
	counts := slices.Grow(dst, len(evs))[:len(dst)+len(evs)]
	sc := publishPool.Get().(*publishScratch)
	for i := range evs {
		if counts[len(dst)+i], err = b.publish(evs[i], base+uint64(i)+1, sc, cancel); err != nil {
			counts = dst
			break
		}
	}
	publishPool.Put(sc)
	return counts, err
}

// publish is the one per-event core: it feeds the adaptor, matches ev into
// sc and, when a profile matched, carves ev's values from sc's block, stamps
// ev (sequence number seq, and the time unless the caller set one) and
// delivers it. Nothing on the miss branch allocates. ev is a copy, so the
// caller's event is never stamped and its Vals are never retained.
//
//genas:hotpath
func (b *Broker) publish(ev event.Event, seq uint64, sc *publishScratch, cancel <-chan struct{}) (int, error) {
	if b.adapt != nil {
		b.adapt.Observe(ev.Vals)
	}
	ms, _, err := b.engine.MatchAppend(ev.Vals, sc.ms)
	if err == nil && len(ms) > 0 {
		now := time.Now()
		ev.Vals = sc.carve(ev.Vals)
		ev.Seq = seq
		if ev.Time.IsZero() {
			ev.Time = now
		}
		b.deliver(ev, ms, now, cancel, sc)
		clear(ms)
	}
	sc.ms = ms[:0] // nil after an error: the pool's next user regrows it
	return len(ms), err
}

// publishScratch is one publisher's scratch: the subscriptions an event
// matches into, cleared after each event, the block the matched events'
// values are carved from, and the one-token channel a delivery worker wakes
// the publisher on while it waits for room in a Block-policy handler
// subscription (made at its first such wait). sync.Pool hands a scratch to
// one publisher at a time, and a batch takes one for all its events.
type publishScratch struct {
	ms    []core.Member
	block []float64
	wake  chan struct{}
}

var publishPool = sync.Pool{New: func() any { return new(publishScratch) }}

// blockVals is the size of a values block (1 KiB): a notification a
// subscriber retains pins its block.
const blockVals = 128

// carve copies vals into the block and returns the copy capped at its own
// length, so no append through it reaches the next event's. A carved range is
// never written again: a block too full for vals is replaced, not reused.
//
//genas:hotpath
func (sc *publishScratch) carve(vals []float64) []float64 {
	if cap(sc.block)-len(sc.block) < len(vals) {
		sc.block = make([]float64, 0, max(blockVals, len(vals)))
	}
	lo := len(sc.block)
	sc.block = append(sc.block, vals...)
	return sc.block[lo:len(sc.block):len(sc.block)]
}

// deliver pushes one event's notifications to the matched subscriptions,
// taking the send fence's read side once for the event. Non-blocking sends
// (DropNewest, DropOldest) happen under it: a subscription ends under the
// write side before its channel closes, so such a send can never hit a
// closing channel. Block-policy sends are collected and performed after the
// fence is released — a publisher stalled on one slow Block subscriber must
// not wedge registration operations or deliveries to other subscribers —
// fenced against close by the subscription's count of them (retire).
// cancel (possibly nil) aborts Block-policy sends.
//
// The notification value is built once per event, before the loop, and only
// its Profile field is stamped per matched subscription — after the liveness
// check, so ended subscriptions cost nothing: one that ended after the
// match is skipped even when its id already names a new subscription.
//
// ms is borrowed, not retained: deliver collects the Block-policy
// subscriptions at its front, and publish clears it for the next event.
// A handler subscription's notification is queued for its worker, under
// the same policies.
//
//genas:hotpath
func (b *Broker) deliver(ev event.Event, ms []core.Member, now time.Time, cancel <-chan struct{}, sc *publishScratch) {
	n := Notification{Event: ev, Delivered: now}
	block := ms[:0]
	b.mu.RLock()
	for _, m := range ms {
		sub := m.(*Subscription)
		if sub.closed.Load() {
			continue
		}
		if sub.policy == Block {
			block = append(block, m)
			continue
		}
		n.Profile = sub.profile.ID
		sent, evicted := b.send(sub, n)
		if sent {
			sub.delivered.Add(1)
			b.delivered.Add(1)
		} else {
			sub.dropped.Add(1)
			b.dropped.Add(1)
		}
		if evicted > 0 {
			sub.dropped.Add(uint64(evicted))
			b.dropped.Add(uint64(evicted))
		}
	}
	b.mu.RUnlock()
	for _, m := range block {
		sub := m.(*Subscription)
		n.Profile = sub.profile.ID
		if b.blockingSend(sub, n, cancel, sc) {
			b.delivered.Add(1)
		} else {
			b.dropped.Add(1)
		}
	}
}

// send places n on the subscription channel, or its worker's queue, under
// its non-blocking drop policy, reporting whether the notification reached
// the buffer and how many older notifications were evicted to make room.
// Runs with the send fence's read side held, so the channel cannot close
// mid-send.
func (b *Broker) send(s *Subscription, n Notification) (sent bool, evicted int) {
	if s.handler != nil {
		return b.workers[s.worker].offer(s, n)
	}
	if s.policy == DropOldest {
		for {
			select {
			case s.ch <- n:
				return true, evicted
			default:
			}
			select {
			case <-s.ch:
				evicted++
			default:
				// A consumer drained the buffer between the two selects;
				// retry the send.
			}
		}
	}
	select {
	case s.ch <- n: // DropNewest
		return true, 0
	default:
		return false, 0
	}
}

// blockingSend performs one Block-policy delivery to s outside the send
// fence. With the buffer full it waits until space frees, s ends, or the
// publisher's cancel channel fires (nil means no cancellation), counted as
// a waiter of the end signal, which fires before s's channel closes; the
// end of another subscription wakes it too, and it waits again. Counted in
// s.senders, it fences the channel against retire's close: while the closed
// re-check reads false, the close cannot start until this send returns. A
// handler subscription waits on its worker instead, woken on sc's channel
// (blockingQueue).
func (b *Broker) blockingSend(s *Subscription, n Notification, cancel <-chan struct{}, sc *publishScratch) bool {
	if s.handler != nil {
		if sc.wake == nil {
			sc.wake = make(chan struct{}, 1)
		}
		return b.blockingQueue(s, n, cancel, sc.wake)
	}
	s.senders.Add(1)
	defer s.senders.Add(-1)
	if s.closed.Load() {
		// The subscription has ended: only the broker-wide drop total counts
		// this outcome (the caller's else-branch).
		return false
	}
	select {
	case s.ch <- n:
		s.delivered.Add(1)
		return true
	default:
	}
	b.waiting.Add(1)
	defer b.waiting.Add(-1)
	for {
		ended := b.ended.Load().(chan struct{})
		if s.closed.Load() {
			s.dropped.Add(1)
			return false
		}
		select {
		case s.ch <- n:
			s.delivered.Add(1)
			return true
		case <-ended:
		case <-cancel:
			s.dropped.Add(1)
			return false
		}
	}
}

// Quenched reports whether events whose attribute attr falls inside iv are
// guaranteed to match no profile, so a provider may suppress them at the
// source (Elvin-style quenching). It is conservative: false means "someone
// might care". The poset's roots decide it: a subscription's answer is its
// canonical node's, and a node covering another leaves open every
// attribute the other leaves open and holds the rest to supersets of its
// values (agg.Poset.AnyRoot).
func (b *Broker) Quenched(attr int, iv schema.Interval) bool {
	if attr < 0 || attr >= b.schema.N() {
		return false
	}
	dom := b.schema.At(attr).Domain
	var ivs []schema.Interval
	return !b.engine.AnyRoot(func(p *predicate.Profile) bool {
		if !p.Constrains(attr) {
			return true // a don't-care profile accepts any value here
		}
		ivs = p.Pred(attr).AppendIntervals(ivs[:0], dom)
		return slices.ContainsFunc(ivs, iv.Overlaps)
	})
}

// Stats is the one stats record (stats.Record); the broker fills its
// broker and index fields.
type Stats = stats.Record

// Stats returns the broker's counters: subscriptions, the publish and
// delivery totals, the engine's operation account, the adaptor's
// restructures and the shape of the canonical index.
func (b *Broker) Stats() Stats {
	acc := b.engine.Account()
	ag := b.engine.AggStats()
	st := Stats{
		Subscriptions:        ag.Subscriptions,
		Published:            b.published.Load(),
		Delivered:            b.delivered.Load(),
		Dropped:              b.dropped.Load(),
		FilterEvents:         acc.Events,
		FilterOps:            acc.Ops,
		MeanOps:              acc.MeanOps,
		Aggregated:           true,
		CanonicalNodes:       ag.Nodes,
		CanonicalRoots:       ag.Roots,
		PosetDepth:           ag.MaxDepth,
		ProfilesPerCanonical: ag.Ratio(),
	}
	if b.adapt != nil {
		st.Restructures = b.adapt.Restructures()
	}
	return st
}

// Close shuts the broker down: all subscription channels are closed and
// further operations fail with ErrClosed. The delivery workers handle what
// is queued and then end; Close does not wait for them, so a handler may
// call it.
func (b *Broker) Close() {
	b.regMu.Lock()
	defer b.regMu.Unlock()
	if !b.closed.CompareAndSwap(false, true) {
		return
	}
	// Ending a subscription releases its blocked Block-policy publishers,
	// which wait outside the send fence; regMu (held) blocks new
	// registrations meanwhile. The engine keeps its members, which
	// Unsubscribe refuses once closed.
	ending := b.engine.Members()
	b.mu.Lock()
	for _, m := range ending {
		m.(*Subscription).end()
	}
	b.signalEnd()
	b.mu.Unlock()
	for _, m := range ending {
		b.retire(m.(*Subscription))
	}
	for _, w := range b.workers {
		w.halt()
	}
}
