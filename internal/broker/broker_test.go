package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"genas/internal/adaptive"
	"genas/internal/dist"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	return schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
	)
}

func newBroker(t *testing.T, opts Options) *Broker {
	t.Helper()
	b, err := New(testSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestPubSub(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, err := b.SubscribeWith(predicate.MustParse(s, "hot", "profile(temperature >= 35)"), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	matched, err := b.Publish(event.MustNew(s, 40, 50))
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d", matched)
	}
	select {
	case n := <-sub.C():
		if n.Profile != "hot" || n.Event.Vals[0] != 40 || n.Event.Seq != 1 {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification")
	}
	// Non-matching event: nothing delivered.
	if matched, _ := b.Publish(event.MustNew(s, 20, 50)); matched != 0 {
		t.Errorf("cold event matched %d", matched)
	}
	select {
	case n := <-sub.C():
		t.Fatalf("unexpected notification %+v", n)
	default:
	}
}

func TestSubscribeErrors(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	p := predicate.MustParse(s, "p", "profile(temperature >= 0)")
	if _, err := b.SubscribeWith(nil, SubOptions{}); !errors.Is(err, ErrNilProfile) {
		t.Error("nil profile must error")
	}
	if _, err := b.SubscribeWith(p, SubOptions{Buffer: -1}); !errors.Is(err, ErrBadBufferSize) {
		t.Error("negative buffer must error")
	}
	if _, err := b.SubscribeWith(p, SubOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeWith(p, SubOptions{}); !errors.Is(err, ErrDuplicateSub) {
		t.Error("duplicate id must error")
	}
	if err := b.Unsubscribe("nope"); !errors.Is(err, ErrUnknownSub) {
		t.Error("unknown unsubscribe must error")
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, err := b.SubscribeWith(predicate.MustParse(s, "p", "profile(temperature >= 0)"), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("p"); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("channel must be closed after unsubscribe")
	}
	// Events published after unsubscribe match nothing.
	if matched, _ := b.Publish(event.MustNew(s, 10, 10)); matched != 0 {
		t.Errorf("matched = %d after unsubscribe", matched)
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, err := b.SubscribeWith(predicate.MustParse(s, "p", "profile(temperature >= 0)"), SubOptions{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(event.MustNew(s, 10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", sub.Dropped())
	}
	st := b.Stats()
	if st.Delivered != 2 || st.Dropped != 3 || st.Published != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPublishValidation(t *testing.T) {
	b := newBroker(t, Options{})
	if _, err := b.Publish(event.Event{Vals: []float64{1}}); !errors.Is(err, event.ErrArity) {
		t.Error("wrong arity must error")
	}
}

func TestQuenched(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	if _, err := b.SubscribeWith(predicate.MustParse(s, "p", "profile(temperature >= 35)"), SubOptions{}); err != nil {
		t.Fatal(err)
	}
	if q := b.Quenched(0, schema.Closed(-30, 0)); !q {
		t.Error("cold region must be quenched")
	}
	if q := b.Quenched(0, schema.Closed(30, 40)); q {
		t.Error("overlapping region must not be quenched")
	}
	// humidity is don't-care for p: never quenched.
	if q := b.Quenched(1, schema.Closed(0, 1)); q {
		t.Error("don't-care attribute must not be quenched")
	}
	if q := b.Quenched(7, schema.Closed(0, 1)); q {
		t.Error("bad attribute index must not be quenched")
	}
	// After unsubscribing everything, every region quenches.
	if err := b.Unsubscribe("p"); err != nil {
		t.Fatal(err)
	}
	if q := b.Quenched(0, schema.Closed(30, 40)); !q {
		t.Error("empty broker must quench everything")
	}
}

func TestCloseRejectsOperations(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, _ := b.SubscribeWith(predicate.MustParse(s, "p", "profile(temperature >= 0)"), SubOptions{})
	b.Close()
	b.Close() // idempotent
	if _, open := <-sub.C(); open {
		t.Error("close must close subscription channels")
	}
	if _, err := b.Publish(event.MustNew(s, 10, 10)); !errors.Is(err, ErrClosed) {
		t.Error("publish after close must error")
	}
	if _, err := b.SubscribeWith(predicate.MustParse(s, "q", "profile(temperature >= 0)"), SubOptions{}); !errors.Is(err, ErrClosed) {
		t.Error("subscribe after close must error")
	}
}

// TestConcurrentPubSub exercises the publish path against concurrent
// subscribe/unsubscribe (run under -race).
func TestConcurrentPubSub(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Publishers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev := event.MustNew(s, -30+rng.Float64()*80, rng.Float64()*100)
				if _, err := b.Publish(ev); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(int64(g))
	}
	// Churning subscribers (drain their channels so delivery keeps flowing).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("s%d-%d", g, i)
				p := predicate.MustParse(s, predicate.ID(id), "profile(temperature >= 10)")
				sub, err := b.SubscribeWith(p, SubOptions{})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				deadline := time.After(2 * time.Millisecond)
			drain:
				for {
					select {
					case <-sub.C():
					case <-deadline:
						break drain
					}
				}
				if err := b.Unsubscribe(predicate.ID(id)); err != nil {
					t.Errorf("unsubscribe: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := b.Stats()
	if st.Published == 0 {
		t.Error("nothing published")
	}
}

// TestAdaptiveBrokerRestructures: the integrated broker restructures under a
// drifting stream and keeps delivering correctly.
func TestAdaptiveBrokerRestructures(t *testing.T) {
	b := newBroker(t, Options{
		Adaptive: true,
		Policy:   adaptive.Policy{Window: 200, Threshold: 0.1, Bins: 16},
	})
	s := b.Schema()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		expr := fmt.Sprintf("profile(temperature >= %d)", 30+rng.Intn(20))
		if _, err := b.SubscribeWith(predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), expr), SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	hot := dist.New(dist.PeakHigh(0.95), s.At(0).Domain)
	for i := 0; i < 1500; i++ {
		ev := event.MustNew(s, clampTemp(hot.Sample(rng)), rng.Float64()*100)
		if _, err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if b.Adaptor().Restructures() == 0 {
		t.Error("drifted stream must trigger restructure")
	}
	// Deliveries remain correct after restructuring.
	matched, err := b.Publish(event.MustNew(s, 49, 50))
	if err != nil {
		t.Fatal(err)
	}
	if matched == 0 {
		t.Error("hot event must match after restructure")
	}
}

func clampTemp(v float64) float64 {
	if v < -30 {
		return -30
	}
	if v > 50 {
		return 50
	}
	return v
}

func TestPerProfileCounters(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	if _, err := b.SubscribeWith(predicate.MustParse(s, "c1", "profile(temperature >= 0)"), SubOptions{Buffer: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Publish(event.MustNew(s, 10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]uint64{}
	for _, e := range b.Counters() {
		counts[e.Key] = e.Count
	}
	if counts["delivered:c1"] != 1 || counts["dropped:c1"] != 2 {
		t.Errorf("counters = %v", counts)
	}
}

func TestSubscribeGroup(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	g, err := b.SubscribeGroup(16,
		predicate.MustParse(s, "g1", "profile(temperature >= 30)"),
		predicate.MustParse(s, "g2", "profile(humidity >= 90)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IDs()) != 2 {
		t.Fatalf("ids = %v", g.IDs())
	}
	// One event matching both members yields two ordered notifications on
	// the same channel.
	if _, err := b.Publish(event.MustNew(s, 40, 95)); err != nil {
		t.Fatal(err)
	}
	got := map[predicate.ID]bool{}
	for i := 0; i < 2; i++ {
		select {
		case n := <-g.C():
			got[n.Profile] = true
		case <-time.After(time.Second):
			t.Fatal("missing group notification")
		}
	}
	if !got["g1"] || !got["g2"] {
		t.Errorf("notifications = %v", got)
	}
	// Close unsubscribes all members and closes the channel.
	g.Close()
	g.Close() // idempotent
	if _, open := <-g.C(); open {
		t.Error("group channel must close")
	}
	if b.Stats().Subscriptions != 0 {
		t.Errorf("members leaked: %d", b.Stats().Subscriptions)
	}
}

func TestSubscribeGroupErrors(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	if _, err := b.SubscribeGroup(0, predicate.MustParse(s, "x", "profile(temperature >= 0)")); !errors.Is(err, ErrBadBufferSize) {
		t.Error("zero buffer must fail")
	}
	if _, err := b.SubscribeGroup(8); !errors.Is(err, ErrNilProfile) {
		t.Error("empty group must fail")
	}
	if _, err := b.SubscribeGroup(8, nil); !errors.Is(err, ErrNilProfile) {
		t.Error("nil member must fail")
	}
	// Duplicate against an existing subscription rolls back atomically.
	if _, err := b.SubscribeWith(predicate.MustParse(s, "taken", "profile(temperature >= 0)"), SubOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := b.SubscribeGroup(8,
		predicate.MustParse(s, "fresh", "profile(temperature >= 0)"),
		predicate.MustParse(s, "taken", "profile(humidity >= 0)"),
	)
	if !errors.Is(err, ErrDuplicateSub) {
		t.Fatalf("err = %v", err)
	}
	if b.Stats().Subscriptions != 1 {
		t.Errorf("rollback leaked members: %d subs", b.Stats().Subscriptions)
	}
}

// TestGroupOrderingPreserved: notifications of sequentially published
// events arrive on the group channel in publish order — the property the
// composite sequence operator needs.
func TestGroupOrderingPreserved(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	g, err := b.SubscribeGroup(256,
		predicate.MustParse(s, "low", "profile(temperature <= 0)"),
		predicate.MustParse(s, "high", "profile(temperature >= 30)"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 50; i++ {
		temp := -10.0
		if i%2 == 1 {
			temp = 40
		}
		if _, err := b.Publish(event.MustNew(s, temp, 50)); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint64
	for i := 0; i < 50; i++ {
		select {
		case n := <-g.C():
			if n.Event.Seq <= lastSeq {
				t.Fatalf("out of order: seq %d after %d", n.Event.Seq, lastSeq)
			}
			lastSeq = n.Event.Seq
		case <-time.After(time.Second):
			t.Fatalf("missing notification %d", i)
		}
	}
}

// TestQueueJoinAndLeave: a queue is one channel that subscriptions join and
// leave one at a time. The owner's reference keeps it open between
// subscriptions; it closes once the owner has closed it and the last member
// is gone, whichever comes last, and a closed queue takes no new member.
func TestQueueJoinAndLeave(t *testing.T) {
	b := newBroker(t, Options{Shards: 2})
	s := b.Schema()
	if _, err := b.NewQueue(0); !errors.Is(err, ErrBadBufferSize) {
		t.Error("zero buffer must fail")
	}
	q, err := b.NewQueue(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Subscribe(nil); !errors.Is(err, ErrNilProfile) {
		t.Error("nil profile must fail")
	}
	sub, err := q.Subscribe(predicate.MustParse(s, "hot", "profile(temperature >= 30)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "hot", "profile(humidity >= 0)")); !errors.Is(err, ErrDuplicateSub) {
		t.Errorf("duplicate id: %v", err)
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "wet", "profile(humidity >= 90)")); err != nil {
		t.Fatal(err)
	}
	// One event, both members, one channel: contiguous, tallied per member.
	if n, err := b.Publish(event.MustNew(s, 40, 95)); err != nil || n != 2 {
		t.Fatalf("publish matched %d, %v", n, err)
	}
	for i := 0; i < 2; i++ {
		if n := <-q.C(); n.Event.Seq != 1 {
			t.Errorf("notification %d: %+v", i, n)
		}
	}
	if sub.Delivered() != 1 {
		t.Errorf("hot delivered %d", sub.Delivered())
	}
	// The last member leaves: the owner still holds the channel open, and a
	// new member can join it.
	for _, id := range []predicate.ID{"hot", "wet"} {
		if err := b.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case _, open := <-q.C():
		t.Fatalf("queue channel yielded (open=%v) while its owner holds it", open)
	default:
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "late", "profile(temperature >= 30)")); err != nil {
		t.Fatal(err)
	}
	// The owner leaves first: the channel outlives it until "late" is gone.
	q.Close()
	q.Close() // idempotent
	if _, err := q.Subscribe(predicate.MustParse(s, "later", "profile(temperature >= 30)")); err != nil {
		t.Fatal("a member may still join while the channel is open")
	}
	if _, err := b.Publish(event.MustNew(s, 40, 10)); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("late"); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("later"); err != nil {
		t.Fatal(err)
	}
	drained := 0
	for range q.C() { // terminates: the last reference closed the channel
		drained++
	}
	if drained != 2 {
		t.Errorf("drained %d queued notifications, want 2", drained)
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "never", "profile(temperature >= 30)")); !errors.Is(err, ErrClosed) {
		t.Errorf("join after the channel closed: %v", err)
	}
	if b.Stats().Subscriptions != 0 {
		t.Errorf("members leaked: %d", b.Stats().Subscriptions)
	}
}

// TestQueueClosesWithTheBroker: broker shutdown ends every member, so a
// queue whose owner already left closes; one whose owner has not closes when
// it does.
func TestQueueClosesWithTheBroker(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	q, err := b.NewQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "x", "profile(temperature >= 0)")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := q.Subscribe(predicate.MustParse(s, "y", "profile(temperature >= 0)")); !errors.Is(err, ErrClosed) {
		t.Errorf("join on a closed broker: %v", err)
	}
	q.Close()
	if _, open := <-q.C(); open {
		t.Error("queue channel must close once broker and owner are gone")
	}
}
