package broker

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
)

// TestShardedBrokerDelivery: a sharded broker delivers exactly the oracle
// match set and keeps Stats/Counters totals identical to a single-shard
// broker fed the same traffic.
func TestShardedBrokerDelivery(t *testing.T) {
	single := newBroker(t, Options{})
	sharded := newBroker(t, Options{Shards: 4})
	if sharded.Shards() != 4 {
		t.Fatalf("Shards() = %d", sharded.Shards())
	}
	if _, ok := sharded.Engine().(*core.Sharded); !ok {
		t.Fatalf("sharded broker engine is %T", sharded.Engine())
	}
	if _, ok := single.Engine().(*core.Engine); !ok {
		t.Fatalf("single broker engine is %T", single.Engine())
	}

	s := single.Schema()
	subsSingle := make(map[predicate.ID]*Subscription)
	subsSharded := make(map[predicate.ID]*Subscription)
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
		subsSingle[id] = sub1
		subsSharded[id] = sub2
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
	// Per-profile counters agree entry by entry after the shard merge.
	c1, c2 := single.Counters(), sharded.Counters()
	if len(c1) != len(c2) {
		t.Fatalf("counter entries: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("counter %d: %+v vs %+v", i, c1[i], c2[i])
		}
	}
	// Every subscriber saw the same notification count on both brokers.
	for id, sub1 := range subsSingle {
		if got, want := len(subsSharded[id].C()), len(sub1.C()); got != want {
			t.Errorf("sub %s: sharded saw %d, single %d", id, got, want)
		}
	}
	// Quenching still sees all shards.
	if sharded.Quenched(0, s.At(0).Domain.Interval()) {
		t.Error("subscribed region reported quenched")
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

// TestSubscribeGroupDuplicateInSlice: a group containing the same profile id
// twice must fail with ErrDuplicateSub, not panic during rollback.
func TestSubscribeGroupDuplicateInSlice(t *testing.T) {
	b := newBroker(t, Options{Shards: 3})
	s := b.Schema()
	p1 := predicate.MustParse(s, "dup", "profile(temperature >= 0)")
	p2 := predicate.MustParse(s, "dup", "profile(humidity >= 0)")
	if _, err := b.SubscribeGroup(4, p1, p2); err == nil {
		t.Fatal("duplicate id within the group must fail")
	}
	if b.Stats().Subscriptions != 0 {
		t.Errorf("failed group left subscriptions behind: %+v", b.Stats())
	}
	// The broker stays fully usable afterwards.
	if _, err := b.SubscribeGroup(4, predicate.MustParse(s, "ok", "profile(temperature >= 0)")); err != nil {
		t.Fatal(err)
	}
}
