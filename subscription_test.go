package genas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func alarmService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := NewService(monitoringSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestSubscriptionNext(t *testing.T) {
	svc := alarmService(t)
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishValues(40, 1, 1); err != nil {
		t.Fatal(err)
	}
	n, err := sub.Next(t.Context())
	if err != nil || n.Profile != "hot" {
		t.Fatalf("next = %+v, %v", n, err)
	}

	// Canceled context interrupts an idle wait.
	ctx, cancel := context.WithTimeout(t.Context(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("idle Next: %v", err)
	}

	// A closed subscription reports ErrClosed.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(t.Context()); !errors.Is(err, ErrClosed) {
		t.Errorf("Next after close: %v", err)
	}
	if err := sub.Close(); err != nil {
		t.Errorf("second Close must be a no-op: %v", err)
	}
}

func TestSubHandler(t *testing.T) {
	svc := alarmService(t)
	var got atomic.Int64
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)",
		SubHandler(func(n Notification) {
			if n.Profile == "hot" {
				got.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if sub.C() != nil {
		t.Error("handler-driven subscription must not expose its channel")
	}
	if _, err := sub.Next(t.Context()); err == nil {
		t.Error("Next on a handler-driven subscription must fail")
	}
	for i := 0; i < 10; i++ {
		if _, err := svc.PublishValues(40, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 10 {
		t.Errorf("handler saw %d of 10 notifications", got.Load())
	}
}

func TestSubDropOldest(t *testing.T) {
	svc := alarmService(t)
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)",
		SubBuffer(2), SubDropOldest())
	if err != nil {
		t.Fatal(err)
	}
	// Publish 5 matching events without reading: the buffer keeps the two
	// freshest, the three oldest are evicted.
	for i := 0; i < 5; i++ {
		if _, err := svc.PublishValues(35+float64(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	first, err := sub.Next(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sub.Next(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if first.Event.Vals[0] != 38 || second.Event.Vals[0] != 39 {
		t.Errorf("buffer kept %g, %g; want the freshest 38, 39",
			first.Event.Vals[0], second.Event.Vals[0])
	}
	if sub.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3 evictions", sub.Dropped())
	}
	if sub.Delivered() != 5 {
		t.Errorf("delivered = %d, want 5", sub.Delivered())
	}
}

func TestSubBlockingBackpressure(t *testing.T) {
	svc := alarmService(t)
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)",
		SubBuffer(1), SubBlocking())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishValues(40, 1, 1); err != nil {
		t.Fatal(err) // fills the buffer
	}
	published := make(chan error, 1)
	go func() {
		_, err := svc.PublishValues(41, 1, 1)
		published <- err
	}()
	select {
	case err := <-published:
		t.Fatalf("second publish must block on the full buffer (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Draining one notification releases the blocked publisher.
	if _, err := sub.Next(t.Context()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after drain")
	}
	if sub.Dropped() != 0 {
		t.Errorf("dropped = %d", sub.Dropped())
	}
}

func TestSubBlockingPublishCtxCancel(t *testing.T) {
	svc := alarmService(t)
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)",
		SubBuffer(1), SubBlocking())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishValues(40, 1, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	published := make(chan int, 1)
	go func() {
		matched, err := svc.PublishValuesCtx(ctx, 41, 1, 1)
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
	case <-time.After(2 * time.Second):
		t.Fatal("canceled context did not release the blocked publisher")
	}
	if sub.Dropped() != 1 {
		t.Errorf("dropped = %d, want the canceled delivery counted", sub.Dropped())
	}
}

// TestSubBlockingUnsubscribeReleases: a publisher waiting on a full
// SubBlocking buffer waits on until that subscription drains or ends. The
// end of an unrelated subscription neither releases it nor makes it drop;
// the end of its own releases it, and Close releases every waiting
// publisher at once.
func TestSubBlockingUnsubscribeReleases(t *testing.T) {
	// blocked subscribes id to text with a one-notification SubBlocking
	// buffer, fills it with the event ev, and starts publishers goroutines
	// that publish ev again, each to wait on the full buffer. The returned
	// channel closes when all of them have returned.
	blocked := func(t *testing.T, svc *Service, id, text string, ev []float64, publishers int) (*Subscription, <-chan struct{}) {
		t.Helper()
		sub, err := svc.Subscribe(id, text, SubBuffer(1), SubBlocking())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.PublishValues(ev...); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range publishers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.PublishValues(ev...); err != nil && !errors.Is(err, ErrClosed) {
					t.Error(err)
				}
			}()
		}
		published := make(chan struct{})
		go func() {
			wg.Wait()
			close(published)
		}()
		time.Sleep(20 * time.Millisecond)
		return sub, published
	}
	released := func(t *testing.T, published <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-published:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not release the blocked publisher", what)
		}
	}

	const hot = "profile(temperature >= 35)"
	heat := []float64{41, 1, 1}

	t.Run("own unsubscribe", func(t *testing.T) {
		svc := alarmService(t)
		sub, published := blocked(t, svc, "hot", hot, heat, 1)
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		released(t, published, "unsubscribe")
	})

	t.Run("unrelated unsubscribe", func(t *testing.T) {
		svc := alarmService(t)
		other, err := svc.Subscribe("humid", "profile(humidity >= 90)", SubBuffer(1), SubBlocking())
		if err != nil {
			t.Fatal(err)
		}
		sub, published := blocked(t, svc, "hot", hot, heat, 1)
		if err := other.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-published:
			t.Fatal("an unrelated unsubscribe released the blocked publisher")
		case <-time.After(50 * time.Millisecond):
		}
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("an unrelated unsubscribe dropped %d notifications", d)
		}
		for i := range 2 {
			if n, err := sub.Next(t.Context()); err != nil || n.Event.Seq != uint64(i+1) {
				t.Fatalf("notification %d = %+v, %v", i, n, err)
			}
			if i == 0 {
				released(t, published, "draining the buffer")
			}
		}
		if d, dr := sub.Delivered(), sub.Dropped(); d != 2 || dr != 0 {
			t.Errorf("delivered %d, dropped %d, want 2 and 0", d, dr)
		}
	})

	t.Run("Close", func(t *testing.T) {
		svc := alarmService(t)
		_, hotDone := blocked(t, svc, "hot", hot, heat, 3)
		_, humidDone := blocked(t, svc, "humid", "profile(humidity >= 90)", []float64{1, 95, 1}, 2)
		svc.Close()
		released(t, hotDone, "Close")
		released(t, humidDone, "Close")
	})
}

func TestPublishCtxDoneContext(t *testing.T) {
	svc := alarmService(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := svc.PublishCtx(ctx, map[string]float64{"temperature": 1, "humidity": 1, "radiation": 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("PublishCtx on done context: %v", err)
	}
	ev, err := svc.Event(map[string]float64{"temperature": 1, "humidity": 1, "radiation": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishBatchCtx(ctx, []Event{ev}); !errors.Is(err, context.Canceled) {
		t.Errorf("PublishBatchCtx on done context: %v", err)
	}
	if _, err := svc.PublishValuesCtx(ctx, 1, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("PublishValuesCtx on done context: %v", err)
	}
}

// TestSubBlockingDoesNotWedgeRegistration: a publisher stalled on one slow
// SubBlocking subscriber must not stall unrelated unsubscribes, subscribes,
// or deliveries to other subscribers.
func TestSubBlockingDoesNotWedgeRegistration(t *testing.T) {
	svc := alarmService(t)
	other, err := svc.Subscribe("other", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := svc.Subscribe("slow", "profile(temperature >= 35)",
		SubBuffer(1), SubBlocking())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishValues(40, 1, 1); err != nil {
		t.Fatal(err) // fills slow's buffer
	}
	publisherStalled := make(chan struct{})
	go func() {
		defer close(publisherStalled)
		if _, err := svc.PublishValues(41, 1, 1); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(20 * time.Millisecond)

	// Registration operations on the same shard must complete while the
	// publisher is stalled on "slow".
	done := make(chan error, 3)
	go func() { done <- other.Close() }()
	go func() {
		_, err := svc.Subscribe("late", "profile(humidity >= 90)")
		done <- err
	}()
	go func() {
		_, err := svc.PublishValues(-20, 95, 1) // matches only "late"-style profiles
		done <- err
	}()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("registration/delivery wedged behind a blocked SubBlocking publisher")
		}
	}

	// Draining releases the stalled publisher.
	if _, err := slow.Next(t.Context()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-publisherStalled:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after drain")
	}
}

func TestSentinelErrors(t *testing.T) {
	svc := alarmService(t)
	if _, err := NewService(monitoringSchema(t), WithSubscriptionBuffer(0)); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("WithSubscriptionBuffer(0): %v", err)
	}
	if _, err := svc.Subscribe("x", "profile(temperature >= 0)", SubBuffer(-1)); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("SubBuffer(-1): %v", err)
	}
	if _, err := svc.Subscribe("dup", "profile(temperature >= 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Subscribe("dup", "profile(humidity >= 0)"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: %v", err)
	}
	if _, err := svc.Subscribe("y", "profile(bogus >= 0)"); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("unknown attribute: %v", err)
	}
	if _, err := svc.Publish(map[string]float64{"bogus": 1}); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("publish unknown attribute: %v", err)
	}
	if _, err := svc.PublishValues(999, 1, 1); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("out-of-domain value: %v", err)
	}
	if err := svc.Unsubscribe("never-subscribed"); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown unsubscribe: %v", err)
	}
	closed := alarmService(t)
	sub, err := closed.Subscribe("s", "profile(temperature >= 0)")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := closed.PublishValues(1, 1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close: %v", err)
	}
	if _, err := closed.Subscribe("z", "profile(temperature >= 0)"); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close: %v", err)
	}
	if err := sub.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("subscription close after service close: %v", err)
	}
}
