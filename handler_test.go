package genas

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The handler tests: a SubHandler subscription's handler runs on one of the
// service's delivery workers, sequentially and in publish order for the
// subscription, under the subscription's buffer and drop policy. CI runs
// them under -race, twenty times.

const hot = "profile(temperature >= 35)"

// gate is a handler that reports each notification's temperature on
// entered as it starts and then waits for a token on release (or its
// close), so a test holds the worker inside it.
type gate struct {
	entered chan float64
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan float64, 64), release: make(chan struct{})}
}

func (g *gate) handle(n Notification) {
	g.entered <- n.Event.Vals[0]
	<-g.release
}

// next returns the temperature of the next notification the handler
// starts on, failing the test after ten seconds.
func (g *gate) next(t *testing.T) float64 {
	t.Helper()
	select {
	case v := <-g.entered:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("the handler was not called")
		return 0
	}
}

// idle fails the test if the handler starts on a notification within 50 ms.
func (g *gate) idle(t *testing.T) {
	t.Helper()
	select {
	case v := <-g.entered:
		t.Fatalf("the handler was called with %g, want no call", v)
	case <-time.After(50 * time.Millisecond):
	}
}

func publish(t *testing.T, svc *Service, vals ...float64) {
	t.Helper()
	if _, err := svc.PublishValues(vals...); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for ten seconds and fails the test with what if it
// never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not happen within ten seconds", what)
		}
	}
}

// TestHandlerOrder: 1 000 handler subscriptions of three policies on two
// delivery workers each see strictly increasing Seq; a SubBlocking one
// handles every event it matched, and every one handles all it counted
// delivered and did not evict. The service starts two goroutines, its workers, and they end
// after Close.
func TestHandlerOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const subs, events = 1000, 100
	type tally struct {
		last, handled atomic.Uint64
		disorder      atomic.Int64
	}
	tallies := make([]tally, subs)
	all := make([]*Subscription, subs)
	threshold := func(i int) float64 { return float64(i%80 - 30) }
	for i := range all {
		policy := []SubOption{nil, SubDropOldest(), SubBlocking()}[i%3]
		opts := []SubOption{SubBuffer(4), SubHandler(func(n Notification) {
			tl := &tallies[i]
			if n.Event.Seq <= tl.last.Load() {
				tl.disorder.Add(1)
			}
			tl.last.Store(n.Event.Seq)
			tl.handled.Add(1)
		})}
		if policy != nil {
			opts = append(opts, policy)
		}
		if all[i], err = svc.Subscribe(fmt.Sprintf("s%d", i), fmt.Sprintf("profile(temperature >= %g)", threshold(i)), opts...); err != nil {
			t.Fatal(err)
		}
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Errorf("1 000 handler subscriptions run %d goroutines more, want the 2 workers", g-base)
	}
	temps := make([]float64, events)
	for k := range temps {
		temps[k] = float64(k*37%80 - 30)
		publish(t, svc, temps[k], 50, 50)
	}
	// A DropOldest eviction counts a delivered notification dropped.
	kept := func(i int) uint64 {
		if i%3 == 1 {
			return all[i].Delivered() - all[i].Dropped()
		}
		return all[i].Delivered()
	}
	waitFor(t, "handling every notification kept", func() bool {
		for i := range all {
			if tallies[i].handled.Load() != kept(i) {
				return false
			}
		}
		return true
	})
	for i, sub := range all {
		if d := tallies[i].disorder.Load(); d > 0 {
			t.Errorf("%s saw Seq out of order %d times", sub.ID(), d)
		}
		if i%3 != 2 {
			continue
		}
		matched := uint64(0)
		for _, v := range temps {
			if v >= threshold(i) {
				matched++
			}
		}
		if got := tallies[i].handled.Load(); got != matched || sub.Dropped() != 0 {
			t.Errorf("SubBlocking %s handled %d and dropped %d, want all %d it matched", sub.ID(), got, sub.Dropped(), matched)
		}
	}
	svc.Close()
	settledGoroutines(t, base)
}

// TestHandlerBlockingNeverDrops: a slow SubBlocking handler stalls the
// publisher rather than lose a notification: it handles every event it
// matched, and the service counts no drop.
func TestHandlerBlockingNeverDrops(t *testing.T) {
	svc := alarmService(t)
	const events = 300
	var handled atomic.Int64
	sub, err := svc.Subscribe("hot", hot, SubBuffer(2), SubBlocking(), SubHandler(func(Notification) {
		time.Sleep(20 * time.Microsecond)
		handled.Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for range events {
		m, err := svc.PublishValues(40, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		matched += m
	}
	waitFor(t, "handling every notification", func() bool { return handled.Load() == events })
	if matched != events || sub.Delivered() != events || sub.Dropped() != 0 || svc.Stats().Dropped != 0 {
		t.Errorf("matched %d, delivered %d, dropped %d (service %d), want %d, %d and no drop",
			matched, sub.Delivered(), sub.Dropped(), svc.Stats().Dropped, events, events)
	}
}

// TestHandlerBlockingWaitsForTheWorker: with SubBuffer(1) and SubBlocking,
// one notification may wait for the worker; a publish beyond it blocks
// until the worker takes that one, which it does once the handler returns.
func TestHandlerBlockingWaitsForTheWorker(t *testing.T) {
	svc := alarmService(t)
	g := newGate()
	defer close(g.release)
	sub, err := svc.Subscribe("hot", hot, SubBuffer(1), SubBlocking(), SubHandler(g.handle))
	if err != nil {
		t.Fatal(err)
	}
	publish(t, svc, 40, 1, 1)
	if v := g.next(t); v != 40 {
		t.Fatalf("the handler started on %g, want 40", v)
	}
	publish(t, svc, 41, 1, 1) // waits in the buffer
	published := make(chan error, 1)
	go func() {
		_, err := svc.PublishValues(42, 1, 1)
		published <- err
	}()
	select {
	case err := <-published:
		t.Fatalf("a publish beyond the buffer must block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	g.release <- struct{}{} // the handler returns from 40: the worker takes 41
	if v := g.next(t); v != 41 {
		t.Fatalf("the handler started on %g, want 41", v)
	}
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the publisher still blocks after the worker took a notification")
	}
	if sub.Dropped() != 0 || sub.Delivered() != 3 {
		t.Errorf("delivered %d, dropped %d, want 3 and 0", sub.Delivered(), sub.Dropped())
	}
}

// TestHandlerDropOldestKeepsTheFreshest: while the handler holds one
// notification, SubBuffer(2) and SubDropOldest keep the two freshest of the
// five published after it, counting each delivered and the three evicted
// dropped, as TestSubDropOldest counts a channel's.
func TestHandlerDropOldestKeepsTheFreshest(t *testing.T) {
	svc := alarmService(t)
	g := newGate()
	sub, err := svc.Subscribe("hot", hot, SubBuffer(2), SubDropOldest(), SubHandler(g.handle))
	if err != nil {
		t.Fatal(err)
	}
	publish(t, svc, 35, 1, 1)
	if v := g.next(t); v != 35 {
		t.Fatalf("the handler started on %g, want 35", v)
	}
	for i := range 5 {
		publish(t, svc, 36+float64(i), 1, 1)
	}
	if sub.Delivered() != 6 || sub.Dropped() != 3 {
		t.Errorf("delivered %d, dropped %d, want 6 and 3 evictions", sub.Delivered(), sub.Dropped())
	}
	close(g.release)
	for _, want := range []float64{39, 40} {
		if v := g.next(t); v != want {
			t.Errorf("the handler started on %g, want the freshest %g", v, want)
		}
	}
	g.idle(t)
}

// TestHandlerPublishCtxCancel: canceling the context of a publisher
// blocked on a full SubBlocking handler subscription releases it, counting
// one drop; the notifications queued before are still handled.
func TestHandlerPublishCtxCancel(t *testing.T) {
	svc := alarmService(t)
	g := newGate()
	sub, err := svc.Subscribe("hot", hot, SubBuffer(1), SubBlocking(), SubHandler(g.handle))
	if err != nil {
		t.Fatal(err)
	}
	publish(t, svc, 40, 1, 1)
	g.next(t)
	publish(t, svc, 41, 1, 1)
	ctx, cancel := context.WithCancel(t.Context())
	published := make(chan int, 1)
	go func() {
		matched, err := svc.PublishValuesCtx(ctx, 42, 1, 1)
		if err != nil {
			t.Error(err) // matching succeeded; only delivery was canceled
		}
		published <- matched
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case matched := <-published:
		if matched != 1 {
			t.Errorf("matched = %d", matched)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled context did not release the blocked publisher")
	}
	if sub.Dropped() != 1 || sub.Delivered() != 2 {
		t.Errorf("delivered %d, dropped %d, want 2 and the canceled delivery counted", sub.Delivered(), sub.Dropped())
	}
	close(g.release)
	if v := g.next(t); v != 41 {
		t.Errorf("the handler started on %g, want 41", v)
	}
	g.idle(t)
}

// TestHandlerWorkersLifecycle: the delivery workers start with the first
// handler subscription, end after Close, and never wait on a handler that
// ends its own subscription or service, or publishes.
func TestHandlerWorkersLifecycle(t *testing.T) {
	t.Run("no handler, no goroutine", func(t *testing.T) {
		base := runtime.NumGoroutine()
		svc := alarmService(t)
		sub, err := svc.Subscribe("hot", hot)
		if err != nil {
			t.Fatal(err)
		}
		grp, err := svc.SubscribeGroup(4, map[string]string{"humid": "profile(humidity >= 90)"})
		if err != nil {
			t.Fatal(err)
		}
		defer grp.Close()
		publish(t, svc, 40, 95, 1)
		if _, err := sub.Next(t.Context()); err != nil {
			t.Fatal(err)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("a service without handler subscriptions runs %d goroutines more", g-base)
		}
	})

	t.Run("Close ends the workers", func(t *testing.T) {
		base := runtime.NumGoroutine()
		svc := alarmService(t)
		var handled atomic.Int64
		for i := range 8 {
			if _, err := svc.Subscribe(fmt.Sprintf("h%d", i), hot, SubHandler(func(Notification) { handled.Add(1) })); err != nil {
				t.Fatal(err)
			}
		}
		publish(t, svc, 40, 1, 1)
		waitFor(t, "the handlers' calls", func() bool { return handled.Load() == 8 })
		svc.Close()
		settledGoroutines(t, base)
	})

	for _, ends := range []string{"Subscription.Close", "Service.Close"} {
		t.Run(ends+" in a handler", func(t *testing.T) {
			base := runtime.NumGoroutine()
			svc := alarmService(t)
			var self atomic.Pointer[Subscription]
			returned := make(chan error, 1)
			sub, err := svc.Subscribe("hot", hot, SubHandler(func(Notification) {
				if ends == "Service.Close" {
					svc.Close()
					returned <- nil
					return
				}
				returned <- self.Load().Close()
			}))
			if err != nil {
				t.Fatal(err)
			}
			self.Store(sub)
			publish(t, svc, 40, 1, 1)
			select {
			case err := <-returned:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s called in a handler did not return", ends)
			}
			if n, err := svc.PublishValues(40, 1, 1); err == nil && n != 0 {
				t.Errorf("a publish after %s matched %d", ends, n)
			}
			svc.Close()
			settledGoroutines(t, base)
		})
	}

	t.Run("a handler publishes", func(t *testing.T) {
		// One worker: the handler publishes to a subscription its own
		// worker delivers to.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		svc := alarmService(t)
		const events = 100
		humid, err := svc.Subscribe("humid", "profile(humidity >= 90)", SubBuffer(1), SubHandler(func(Notification) {}))
		if err != nil {
			t.Fatal(err)
		}
		var handled atomic.Int64
		if _, err := svc.Subscribe("hot", hot, SubBlocking(), SubBuffer(1), SubHandler(func(Notification) {
			if _, err := svc.PublishValues(0, 95, 1); err != nil {
				t.Error(err)
			}
			handled.Add(1)
		})); err != nil {
			t.Fatal(err)
		}
		for range events {
			publish(t, svc, 40, 1, 1)
		}
		waitFor(t, "a publishing handler's every call", func() bool { return handled.Load() == events })
		if got := humid.Delivered() + humid.Dropped(); got != events {
			t.Errorf("the handlers' publishes reached humid %d times, want %d", got, events)
		}
	})

	t.Run("queued before Unsubscribe", func(t *testing.T) {
		svc := alarmService(t)
		g := newGate()
		sub, err := svc.Subscribe("hot", hot, SubBuffer(4), SubBlocking(), SubHandler(g.handle))
		if err != nil {
			t.Fatal(err)
		}
		publish(t, svc, 40, 1, 1)
		g.next(t)
		for _, v := range []float64{41, 42, 43} {
			publish(t, svc, v, 1, 1)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := svc.PublishValues(44, 1, 1); err != nil || n != 0 {
			t.Fatalf("a publish after Unsubscribe matched %d (%v)", n, err)
		}
		close(g.release)
		for _, want := range []float64{41, 42, 43} {
			if v := g.next(t); v != want {
				t.Errorf("the handler started on %g, want %g", v, want)
			}
		}
		g.idle(t)
	})
}

// Handler subscription pin: what one more SubHandler subscription of a held
// structure keeps on a 2-core x86-64 machine (Go 1.24), with SubBlocking
// and SubBuffer(16) as the benchmark subscribes: ≈ 285 B, its two records
// (genas.Subscription 88 B in the 96 B class, broker.Subscription 112 B),
// its handler's 24 B closure, its poset member and its id's map entry. With
// its own channel, 16-notification ring and goroutine it held ≈ 2 300 B of
// heap, and a 2 KiB stack besides.
const handlerSubBytes = 512

// TestHandlerSubscriptionHeldBytes pins what a handler subscription of a
// structure the service holds already costs, measured as
// TestDuplicateSubscriptionHeldBytes measures: 10 000 SubHandler,
// SubBlocking, SubBuffer(16) subscriptions of one text, each with a
// handler closure of its own, grow the heap by at most handlerSubBytes
// each.
func TestHandlerSubscriptionHeldBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes do not hold under the race detector")
	}
	const n = 10_000
	svc := alarmService(t)
	const text = "profile(temperature >= 35; humidity in [20,80])"
	ids := make([]string, n+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%d", i)
	}
	var handled atomic.Int64
	subscribe := func(i int) (*Subscription, error) {
		return svc.Subscribe(ids[i], text, SubHandler(func(Notification) { handled.Add(int64(i)) }), SubBlocking(), SubBuffer(16))
	}
	// The first subscription makes the structure, the automaton and the
	// delivery workers.
	if _, err := subscribe(n); err != nil {
		t.Fatal(err)
	}
	publish(t, svc, 40, 50, 1)
	waitFor(t, "the first notification's handling", func() bool { return handled.Load() == n })
	heap0 := liveHeap()
	subs := make([]*Subscription, n)
	for i := range subs {
		var err error
		if subs[i], err = subscribe(i); err != nil {
			t.Fatal(err)
		}
	}
	per := (liveHeap() - heap0) / n
	runtime.KeepAlive(subs) // a caller that keeps its handles
	t.Logf("a handler subscription holds %d bytes of heap (pin %d)", per, handlerSubBytes)
	if per > handlerSubBytes {
		t.Errorf("a handler subscription holds %d bytes of heap, want at most %d", per, handlerSubBytes)
	}
}
