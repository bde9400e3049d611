package genas

import (
	"context"
	"errors"
	"sync"

	"genas/internal/broker"
	"genas/internal/predicate"
)

// errHandlerMode reports channel access on a handler-driven subscription.
var errHandlerMode = errors.New("genas: subscription delivers via SubHandler; C and Next are unavailable")

// SubOption configures one subscription at Subscribe time.
type SubOption func(*subOptions) error

type subOptions struct {
	broker broker.SubOptions
}

// SubBuffer sets this subscription's notification buffer (overriding the
// service default). A SubHandler subscription has no channel: n caps the
// notifications queued for its handler and not yet taken by the worker
// that calls it, and the drop policy applies at that cap.
func SubBuffer(n int) SubOption {
	return func(o *subOptions) error {
		if n <= 0 {
			return ErrBadBuffer
		}
		o.broker.Buffer = n
		return nil
	}
}

// SubPriority sets the profile's user-centric priority weight (higher is
// more important). The subscription carries it — to the wire, to federation
// peers and to `genas profiles` — but the filter does not read it: the
// paper's Measure V3, which favors high-priority profiles, orders the scan of
// the reproduction (cmd/reproduce).
func SubPriority(w float64) SubOption {
	return func(o *subOptions) error {
		o.broker.Priority = w
		return nil
	}
}

// SubHandler delivers notifications by calling fn instead of over a
// channel: C returns nil and Next fails. fn runs sequentially and in publish
// order per subscription, on one of a few delivery goroutines the service
// owns (GOMAXPROCS of them, started by the first SubHandler subscription and
// ended after Close), not on a goroutine of its own: a slow handler delays
// the handlers that share its goroutine, so hand long work off. A slow
// handler fills the buffer like a slow channel reader would, so combine
// with SubBuffer/SubDropOldest/SubBlocking to pick the overload behavior.
func SubHandler(fn func(Notification)) SubOption {
	return func(o *subOptions) error {
		if fn == nil {
			return errors.New("genas: nil SubHandler")
		}
		o.broker.Handler = fn
		return nil
	}
}

// SubDropOldest evicts the oldest buffered notification when the buffer is
// full, so a lagging subscriber sees the freshest events instead of the
// stalest (the default drops the incoming notification).
func SubDropOldest() SubOption {
	return func(o *subOptions) error {
		o.broker.Policy = broker.DropOldest
		return nil
	}
}

// SubBlocking stalls publishers while this subscription's buffer is full —
// opt-in backpressure. A subscriber that stops reading stalls every publisher
// until it drains, unsubscribes, or the publisher's PublishCtx context is
// canceled; prefer the drop policies unless the consumer is trusted. A
// handler that publishes to a SubBlocking subscription of its own service
// can stall the service's handlers: if that subscription's buffer is full
// and its handler shares the publishing handler's delivery goroutine, the
// publish waits on the goroutine it runs on.
func SubBlocking() SubOption {
	return func(o *subOptions) error {
		o.broker.Policy = broker.Block
		return nil
	}
}

// Subscription is one live registration. Notifications arrive on C (or via
// Next), unless the subscription was created with SubHandler, in which case
// the callback receives them. Close unsubscribes.
//
// The record holds the options it was subscribed with, so that applying them
// allocates nothing of its own.
type Subscription struct {
	sub *broker.Subscription
	brk *broker.Broker
	// stop withdraws the subscription where more than its broker must let
	// go of it (a federation's routes, an overlay's); nil means
	// brk.Unsubscribe.
	stop func(predicate.ID) error
	o    subOptions

	closeOnce sync.Once
	closeErr  error
}

// ID returns the subscription id.
func (s *Subscription) ID() string { return string(s.sub.ID()) }

// Profile returns the registered copy of the subscribed profile: the
// caller's id and predicates, with the SubPriority weight when one was
// given. The service never writes the profile passed to it. The copy's
// predicate column may be shared with other subscriptions spelled alike:
// read it, never write it.
func (s *Subscription) Profile() *Profile { return s.sub.Profile() }

// C returns the notification channel. It closes when the subscription ends
// (Close, Unsubscribe, or service shutdown). Nil for handler-driven
// subscriptions.
func (s *Subscription) C() <-chan Notification {
	if s.o.broker.Handler != nil {
		return nil
	}
	return s.sub.C()
}

// Next blocks until the next notification, the context's cancellation, or
// the end of the subscription (reported as ErrClosed).
func (s *Subscription) Next(ctx context.Context) (Notification, error) {
	if s.o.broker.Handler != nil {
		//genas:allow senterr API misuse (mixing handler mode with Next), not a matchable runtime condition
		return Notification{}, errHandlerMode
	}
	select {
	case n, ok := <-s.sub.C():
		if !ok {
			return Notification{}, ErrClosed
		}
		return n, nil
	case <-ctx.Done():
		return Notification{}, ctx.Err()
	}
}

// Delivered returns how many notifications reached this subscription's
// buffer.
func (s *Subscription) Delivered() uint64 { return s.sub.Delivered() }

// Dropped returns how many notifications were discarded because the
// subscriber lagged (including SubDropOldest evictions).
func (s *Subscription) Dropped() uint64 { return s.sub.Dropped() }

// Close unsubscribes. Idempotent; the notification channel closes, and a
// SubHandler's handler still receives what was queued before. It does not
// wait for the handler, so a handler may close its own subscription.
func (s *Subscription) Close() error {
	s.closeOnce.Do(func() {
		if id := s.sub.ID(); s.stop != nil {
			s.closeErr = s.stop(id)
		} else {
			s.closeErr = s.brk.Unsubscribe(id)
		}
	})
	return s.closeErr
}
