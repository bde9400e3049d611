package broker

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/adaptive"
	"genas/internal/event"
	"genas/internal/predicate"
)

// TestShardedBrokerDelivery: a broker of four automata delivers exactly the
// oracle match set and keeps its Stats totals and per-subscription counters
// identical to a one-automaton broker fed the same traffic.
func TestShardedBrokerDelivery(t *testing.T) {
	single := newBroker(t, Options{})
	sharded := newBroker(t, Options{Shards: 4})

	s := single.Schema()
	// pairs[i] holds subscription i on the single and the sharded broker.
	pairs := make([][2]*Subscription, 0, 40)
	for i := 0; i < 40; i++ {
		expr := fmt.Sprintf("profile(temperature >= %d)", i-20)
		id := predicate.ID(fmt.Sprintf("s%d", i))
		p1 := predicate.MustParse(s, id, expr)
		p2 := predicate.MustParse(s, id, expr)
		sub1, err := single.SubscribeWith(p1, SubOptions{Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		sub2, err := sharded.SubscribeWith(p2, SubOptions{Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]*Subscription{sub1, sub2})
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		vals := map[string]float64{
			"temperature": float64(rng.Intn(80) - 30),
			"humidity":    float64(rng.Intn(100)),
		}
		ev := mustEvent(t, s, vals)
		n1, err := single.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := sharded.Publish(ev.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("event %d: single matched %d, sharded %d", i, n1, n2)
		}
	}

	st1, st2 := single.Stats(), sharded.Stats()
	if st1.Published != st2.Published || st1.Delivered != st2.Delivered ||
		st1.Dropped != st2.Dropped || st1.FilterEvents != st2.FilterEvents {
		t.Errorf("stats diverge: single %+v vs sharded %+v", st1, st2)
	}
	// Every subscriber counted, and saw, the same notifications on both
	// brokers.
	for _, pair := range pairs {
		id, sub1, sub2 := pair[0].ID(), pair[0], pair[1]
		if sub1.Delivered() != sub2.Delivered() || sub1.Dropped() != sub2.Dropped() {
			t.Errorf("sub %s: single counted %d/%d delivered/dropped, sharded %d/%d",
				id, sub1.Delivered(), sub1.Dropped(), sub2.Delivered(), sub2.Dropped())
		}
		if got, want := len(sub2.C()), len(sub1.C()); got != want {
			t.Errorf("sub %s: sharded saw %d, single %d", id, got, want)
		}
	}
	// Quenching sees every subscription.
	if sharded.Quenched(0, s.At(0).Domain.Interval()) {
		t.Error("subscribed region reported quenched")
	}
}

// TestEmptyRestructureIsWidthBlind: an adaptive broker without
// subscriptions records the same restructure errors at every shard width —
// the engine's ErrNoProfiles, as a single-tree engine reports it.
func TestEmptyRestructureIsWidthBlind(t *testing.T) {
	errs := make(map[int][]string)
	for _, shards := range []int{1, 2} {
		b := newBroker(t, Options{Shards: shards, Adaptive: true, Policy: adaptive.Policy{Window: 64, Threshold: 0.01}})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			if _, err := b.PublishValues([]float64{rng.Float64()*80 - 30, rng.Float64() * 100}); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range b.Adaptor().Decisions() {
			errs[shards] = append(errs[shards], fmt.Sprint(d.Err))
		}
	}
	if len(errs[1]) == 0 {
		t.Fatal("no restructure recorded")
	}
	if fmt.Sprint(errs[1]) != fmt.Sprint(errs[2]) {
		t.Errorf("restructure errors differ by width:\n1 shard:  %v\n2 shards: %v", errs[1], errs[2])
	}
}

func mustEvent(t *testing.T, s interface {
	N() int
	Index(string) (int, error)
}, values map[string]float64) event.Event {
	t.Helper()
	vals := make([]float64, s.N())
	for name, v := range values {
		i, err := s.Index(name)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	return event.Event{Vals: vals}
}

// TestPublishBatch: the batch path assigns contiguous sequence numbers in
// slice order, reports per-event match counts identical to per-event
// publishing, and delivers in event order.
func TestPublishBatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := newBroker(t, Options{Shards: shards})
			oracle := newBroker(t, Options{})
			s := b.Schema()
			for i := 0; i < 20; i++ {
				expr := fmt.Sprintf("profile(humidity >= %d)", i*5)
				id := predicate.ID(fmt.Sprintf("h%d", i))
				if _, err := b.SubscribeWith(predicate.MustParse(s, id, expr), SubOptions{Buffer: 4096}); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.SubscribeWith(predicate.MustParse(s, id, expr), SubOptions{Buffer: 4096}); err != nil {
					t.Fatal(err)
				}
			}
			sub, err := b.SubscribeWith(predicate.MustParse(s, "all", "profile(temperature >= -30)"), SubOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.SubscribeWith(predicate.MustParse(s, "all", "profile(temperature >= -30)"), SubOptions{Buffer: 4096}); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(6))
			evs := make([]event.Event, 100)
			var wantCounts []int
			for i := range evs {
				vals := map[string]float64{
					"temperature": float64(rng.Intn(80) - 30),
					"humidity":    float64(rng.Intn(100)),
				}
				evs[i] = mustEvent(t, s, vals)
				n, err := oracle.Publish(evs[i].Clone())
				if err != nil {
					t.Fatal(err)
				}
				wantCounts = append(wantCounts, n)
			}

			counts, err := b.PublishBatch(evs)
			if err != nil {
				t.Fatal(err)
			}
			if len(counts) != len(evs) {
				t.Fatalf("counts = %d", len(counts))
			}
			for i := range counts {
				if counts[i] != wantCounts[i] {
					t.Fatalf("event %d: batch matched %d, oracle %d", i, counts[i], wantCounts[i])
				}
			}
			// The caller's slice is not mutated: stamping happens on a copy.
			for i := range evs {
				if evs[i].Seq != 0 || !evs[i].Time.IsZero() {
					t.Fatalf("event %d mutated in place: seq %d time %v", i, evs[i].Seq, evs[i].Time)
				}
			}
			// The catch-all subscriber received every event, in contiguous
			// slice-order sequence numbers, with times stamped.
			var prev uint64
			for len(sub.C()) > 0 {
				n := <-sub.C()
				if n.Event.Seq != prev+1 {
					t.Fatalf("delivery order: seq %d after %d", n.Event.Seq, prev)
				}
				if n.Event.Time.IsZero() {
					t.Fatalf("seq %d delivered with zero time", n.Event.Seq)
				}
				prev = n.Event.Seq
			}
			if prev != uint64(len(evs)) {
				t.Fatalf("catch-all saw up to seq %d of %d", prev, len(evs))
			}
			// Stats count one published/filtered event per batch element.
			st := b.Stats()
			if st.Published != uint64(len(evs)) || st.FilterEvents != uint64(len(evs)) {
				t.Errorf("stats after batch: %+v", st)
			}

			// Validation and closed-state errors.
			if _, err := b.PublishBatch(nil); err != nil {
				t.Errorf("empty batch: %v", err)
			}
			if _, err := b.PublishBatch([]event.Event{{Vals: []float64{1}}}); err == nil {
				t.Error("arity mismatch must fail")
			}
			b.Close()
			if _, err := b.PublishBatch(evs[:1]); err == nil {
				t.Error("publish batch on closed broker must fail")
			}
		})
	}
}
