package broker

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"genas/internal/predicate"
)

// handled subscribes a handler subscription of o to temperature >= 20 and
// returns it with the count of its handler's calls.
func handled(t *testing.T, b *Broker, o SubOptions, fn func(Notification)) (*Subscription, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	o.Handler = func(n Notification) {
		if fn != nil {
			fn(n)
		}
		calls.Add(1)
	}
	sub, err := b.SubscribeWith(predicate.MustParse(b.Schema(), "h", "profile(temperature >= 20)"), o)
	if err != nil {
		t.Fatal(err)
	}
	if sub.C() != nil {
		t.Error("a handler subscription has a channel")
	}
	return sub, &calls
}

// TestDropOldestQueueStaysBounded: a held DropOldest handler subscription
// evicts its oldest queued notification at every publish, and the worker's
// ring drops the evicted entries rather than grow: after 10 000 publishes
// it is as long as it started, and the handler then sees the two freshest.
func TestDropOldestQueueStaysBounded(t *testing.T) {
	b := newBroker(t, Options{})
	entered, release := make(chan float64, 4), make(chan struct{})
	sub, _ := handled(t, b, SubOptions{Buffer: 2, Policy: DropOldest}, func(n Notification) {
		entered <- n.Event.Vals[0]
		<-release
	})
	next := func() float64 {
		select {
		case v := <-entered:
			return v
		case <-time.After(2 * time.Second):
			t.Fatal("the handler was not called")
			return 0
		}
	}
	if _, err := b.PublishValues([]float64{20, 0}); err != nil {
		t.Fatal(err)
	}
	next() // the handler holds the first notification
	const events = 10_000
	for i := range events {
		if _, err := b.PublishValues([]float64{21 + float64(i%29), 0}); err != nil {
			t.Fatal(err)
		}
	}
	w := b.workers[sub.worker]
	w.mu.Lock()
	ring, queued := len(w.ring), w.n
	w.mu.Unlock()
	if ring != minRing || queued > minRing {
		t.Errorf("after %d evictions the ring holds %d entries in %d slots, want at most %d slots", events-2, queued, ring, minRing)
	}
	if d, dr := sub.Delivered(), sub.Dropped(); d != events+1 || dr != events-2 {
		t.Errorf("delivered %d, dropped %d, want %d and %d", d, dr, events+1, events-2)
	}
	close(release)
	for _, want := range []float64{21 + float64((events-2)%29), 21 + float64((events-1)%29)} {
		if v := next(); v != want {
			t.Errorf("the handler started on %g, want the freshest %g", v, want)
		}
	}
}

// TestBlockedHandlerWaitAllocatesNothing: a publisher waiting for room in a
// Block-policy handler subscription is woken on its scratch's channel, so
// publishes that each wait for the worker allocate only the values blocks.
func TestBlockedHandlerWaitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, which then allocate")
	}
	b := newBroker(t, Options{})
	sub, calls := handled(t, b, SubOptions{Buffer: 1, Policy: Block}, nil)
	vals := []float64{30, 10}
	const events = 4096
	// mallocs runs on one P: with room for one notification, a publish
	// waits until the worker has taken the one before.
	if n, limit := mallocs(events, func() { _, _ = b.PublishValues(vals) }), blockAllocs(events, len(vals)); n > limit {
		t.Errorf("%d waiting publishes allocate %d objects, want <= %d (the values blocks)", events, n, limit)
	}
	if got, want := calls.Load(), int64(3*events); got < want-2 || sub.Dropped() != 0 {
		t.Errorf("the handler ran %d times by the last publish and %d were dropped, want at least %d and none", got, sub.Dropped(), want-2)
	}
}

// TestCanceledHandlerWaitLeavesNoWaiter: a publisher whose context ends
// while it waits for room in a Block-policy handler subscription counts one
// drop and leaves no waiter registered with the worker.
func TestCanceledHandlerWaitLeavesNoWaiter(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	b := newBroker(t, Options{})
	held, _ := handled(t, b, SubOptions{Buffer: 1, Policy: Block}, func(Notification) { <-hold })
	vals := []float64{30, 10}
	for range 2 { // one held in the handler, one queued
		if _, err := b.PublishValues(vals); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.PublishValuesCtx(ctx, vals); err != nil {
		t.Fatal(err)
	}
	w := b.workers[held.worker]
	w.mu.Lock()
	waiters := len(w.waiters)
	w.mu.Unlock()
	if waiters != 0 || held.Dropped() != 1 {
		t.Errorf("a canceled wait left %d waiters and counted %d drops, want 0 and 1", waiters, held.Dropped())
	}
}
