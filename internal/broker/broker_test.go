package broker

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
	// The domain is checked on every entry point, and a batch is checked
	// whole before any of it is published.
	ok, bad := event.Event{Vals: []float64{20, 50}}, event.Event{Vals: []float64{20, 101}}
	if _, err := b.Publish(bad); !errors.Is(err, schema.ErrValueOutOfDomain) {
		t.Errorf("Publish out of domain: %v", err)
	}
	if _, err := b.PublishBatch([]event.Event{ok, bad}); !errors.Is(err, schema.ErrValueOutOfDomain) {
		t.Errorf("PublishBatch out of domain: %v", err)
	}
	if _, err := b.PublishValues([]float64{math.NaN(), 50}); !errors.Is(err, schema.ErrValueOutOfDomain) {
		t.Errorf("PublishValues NaN: %v", err)
	}
	if n := b.Stats().Published; n != 0 {
		t.Errorf("refused events published: %d", n)
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

// TestQuenchedAsksTheRoots: Quenched, which asks the poset's roots, answers
// as a scan of every subscription's own profile does, on randomized corpora
// over a coarse grid, so that structures cover one another often, don't-care
// attributes are common (roots among them), and some predicates are empty.
// Queries include empty intervals, intervals outside the domain and bad
// attribute indices; some corpora are queried before any match links the
// poset, and some after unsubscribes promoted covered structures.
func TestQuenchedAsksTheRoots(t *testing.T) {
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	floor, _ := schema.NewIntegerDomain(0, 9)
	s := schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "floor", Domain: floor},
	)
	scan := func(b *Broker, attr int, iv schema.Interval) bool {
		if attr < 0 || attr >= s.N() {
			return false
		}
		for _, p := range b.Profiles() {
			if !p.Constrains(attr) {
				return false
			}
			for _, piv := range p.Pred(attr).Intervals(s.At(attr).Domain) {
				if piv.Overlaps(iv) {
					return false
				}
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(7))
	grid := func(attr int) float64 {
		lo, hi := s.At(attr).Domain.Interval().Lo, s.At(attr).Domain.Interval().Hi
		return lo + (hi-lo)*float64(rng.Intn(9)-1)/6 // a step beyond either end now and then
	}
	dontCare := 0 // in tenths, per corpus
	profile := func(id string) *predicate.Profile {
		var conds []string
		for len(conds) == 0 { // a profile constrains something
			conds = conds[:0]
			for attr := range s.N() {
				name, v, w := s.At(attr).Name, grid(attr), grid(attr)
				if rng.Intn(10) < dontCare {
					continue
				}
				switch rng.Intn(5) {
				case 0:
					conds = append(conds, fmt.Sprintf("%s >= %g", name, v))
				case 1:
					conds = append(conds, fmt.Sprintf("%s < %g", name, v))
				case 2:
					conds = append(conds, fmt.Sprintf("%s in [%g,%g]", name, min(v, w), max(v, w)))
				case 3:
					conds = append(conds, fmt.Sprintf("%s = %g", name, v))
				case 4:
					conds = append(conds, fmt.Sprintf("%s != %g", name, v))
				}
			}
		}
		p, err := predicate.Parse(s, predicate.ID(id), "profile("+strings.Join(conds, "; ")+")")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var outcomes [2]int
	for trial := range 1000 {
		b, err := New(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		n, dontCare = 1+rng.Intn(8), rng.Intn(5)
		for i := range n {
			if _, err := b.SubscribeWith(profile(fmt.Sprintf("p%d", i)), SubOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if trial%3 != 0 {
			if _, err := b.PublishValues([]float64{0, 50, 5}); err != nil { // links the poset
				t.Fatal(err)
			}
		}
		for round := range 3 {
			for range 20 {
				attr := rng.Intn(s.N()+2) - 1
				var iv schema.Interval
				if attr >= 0 && attr < s.N() {
					v, w := grid(attr), grid(attr)
					iv = schema.Interval{Lo: min(v, w), Hi: max(v, w), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
				}
				want := scan(b, attr, iv)
				if got := b.Quenched(attr, iv); got != want {
					t.Fatalf("trial %d round %d: Quenched(%d, %v) = %v, the member scan says %v; profiles:\n%v",
						trial, round, attr, iv, got, want, render(s, b.Profiles()))
				}
				if want {
					outcomes[1]++
				} else {
					outcomes[0]++
				}
			}
			for i := range n { // unsubscribe about a third, promoting what they covered
				if rng.Intn(3) == 0 {
					_ = b.Unsubscribe(predicate.ID(fmt.Sprintf("p%d", i)))
				}
			}
		}
		b.Close()
	}
	t.Logf("%d queries quenched, %d not", outcomes[1], outcomes[0])
	if outcomes[0] < 2000 || outcomes[1] < 2000 {
		t.Errorf("%d queries quenched and %d not: the corpora decide too few either way", outcomes[1], outcomes[0])
	}
}

// render lists profiles one a line.
func render(s *schema.Schema, ps []*predicate.Profile) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%s %s\n", p.ID, p.Render(s))
	}
	return b.String()
}

// TestCloseRejectsOperations: after Close every operation fails with
// ErrClosed. The engine still holds its members after Close, but Close has
// ended them and released their channels, so Unsubscribe of a live id or of
// a queue member must refuse rather than release a channel a second time: a
// subscription's channel holds no reference afterwards, and a queue's
// channel stays open for its owner and closes once, when the owner leaves.
func TestCloseRejectsOperations(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, _ := b.SubscribeWith(predicate.MustParse(s, "p", "profile(temperature >= 0)"), SubOptions{})
	q, err := b.NewQueue(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Subscribe(predicate.MustParse(s, "m", "profile(temperature >= 0)")); err != nil {
		t.Fatal(err)
	}
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
	for _, id := range []predicate.ID{"p", "m"} {
		if err := b.Unsubscribe(id); !errors.Is(err, ErrClosed) {
			t.Errorf("unsubscribe %s after close = %v, want ErrClosed", id, err)
		}
	}
	if sub.shared != nil {
		t.Error("a private subscription holds a queue's share")
	}
	if n := q.shared.refs.Load(); n != 1 || q.shared.closed.Load() {
		t.Fatalf("the queue holds %d references (closed %v) before its owner leaves, want 1 and open", n, q.shared.closed.Load())
	}
	q.Close()
	q.Close() // idempotent
	if _, open := <-q.C(); open || q.shared.refs.Load() != 0 {
		t.Errorf("the queue's channel is open %v with %d references after its owner left, want closed with 0", open, q.shared.refs.Load())
	}
}

// TestReusedIDGetsOnlyItsOwnMatches stages a publish racing a re-subscribe
// of one id: the event [80] is matched while x subscribes x >= 50, then x
// leaves and subscribes again as x <= 10, and only then is the match
// delivered. The match yielded the old subscription, which has ended, so the
// new one — another subscription under the same id — receives nothing.
func TestReusedIDGetsOnlyItsOwnMatches(t *testing.T) {
	dom, _ := schema.NewNumericDomain(0, 100)
	s := schema.MustNew(schema.Attribute{Name: "x", Domain: dom})
	for _, shards := range []int{1, 2} {
		b, err := New(s, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.SubscribeWith(predicate.MustParse(s, "x", "profile(x >= 50)"), SubOptions{}); err != nil {
			t.Fatal(err)
		}
		vals := []float64{80}
		ms, _, err := b.engine.MatchAppend(vals, nil)
		if err != nil || len(ms) != 1 {
			t.Fatalf("shards=%d: the event matched %d subscriptions (%v), want 1", shards, len(ms), err)
		}
		if err := b.Unsubscribe("x"); err != nil {
			t.Fatal(err)
		}
		sub, err := b.SubscribeWith(predicate.MustParse(s, "x", "profile(x <= 10)"), SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b.deliver(event.Event{Vals: vals, Seq: 1}, ms, time.Now(), nil, new(publishScratch))
		select {
		case n := <-sub.C():
			t.Errorf("shards=%d: new subscription x (x <= 10) received event %v matched under the old profile", shards, n.Event.Vals)
		default:
		}
		if n := sub.Delivered(); n != 0 {
			t.Errorf("shards=%d: new subscription x counts %d deliveries, want 0", shards, n)
		}
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

// TestPerSubscriptionCounters: a live subscription counts its own deliveries
// and drops, and the broker-wide totals count the same.
func TestPerSubscriptionCounters(t *testing.T) {
	b := newBroker(t, Options{})
	s := b.Schema()
	sub, err := b.SubscribeWith(predicate.MustParse(s, "c1", "profile(temperature >= 0)"), SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Publish(event.MustNew(s, 10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if sub.Delivered() != 1 || sub.Dropped() != 2 {
		t.Errorf("subscription counted %d delivered, %d dropped; want 1 and 2", sub.Delivered(), sub.Dropped())
	}
	if st := b.Stats(); st.Delivered != 1 || st.Dropped != 2 {
		t.Errorf("broker counted %d delivered, %d dropped; want 1 and 2", st.Delivered, st.Dropped)
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
