package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genas/internal/adaptive"
	"genas/internal/event"
	"genas/internal/predicate"
)

// TestRaceStress runs the full concurrent surface at once — 8 goroutines
// publishing (two of them in batches) while 4 churn subscriptions and the
// adaptive policy restructures per shard — and then checks every stable
// subscriber against a sequential oracle: a subscriber registered before the
// first publish must receive exactly the events its profile matches, no
// losses, no duplicates. Run under -race; the schedule noise is the point.
func TestRaceStress(t *testing.T) {
	const (
		publishers    = 8
		churners      = 4
		eventsPerPub  = 250
		totalEvents   = publishers * eventsPerPub
		stableSubs    = 12
		churnPerGorou = 40
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := newBroker(t, Options{
				Shards:   shards,
				Adaptive: true,
				// A tiny window and threshold force frequent restructures
				// (value reorders and full rebuilds) during the run.
				Policy: adaptive.Policy{Window: 64, Threshold: 0.01, ReorderAttributes: true, MinHistory: 64},
			})
			s := b.Schema()

			// Stable subscribers: registered up front, buffers sized so the
			// broker can never drop (drops would look like losses).
			stable := make([]*Subscription, stableSubs)
			for i := range stable {
				expr := fmt.Sprintf("profile(temperature >= %d)", i*6-30)
				sub, err := b.SubscribeWith(predicate.MustParse(s, predicate.ID(fmt.Sprintf("stable%d", i)), expr), SubOptions{Buffer: totalEvents})
				if err != nil {
					t.Fatal(err)
				}
				stable[i] = sub
			}

			var wg sync.WaitGroup
			published := make([][]event.Event, publishers)

			for g := 0; g < publishers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + g)))
					evs := make([]event.Event, 0, eventsPerPub)
					mk := func() event.Event {
						ev, err := event.New(s, float64(rng.Intn(80)-30), float64(rng.Intn(100)))
						if err != nil {
							panic(err)
						}
						return ev
					}
					if g < 2 {
						// Two publishers use the batched path.
						for done := 0; done < eventsPerPub; {
							n := rng.Intn(16) + 1
							if done+n > eventsPerPub {
								n = eventsPerPub - done
							}
							batch := make([]event.Event, n)
							for i := range batch {
								batch[i] = mk()
							}
							if _, err := b.PublishBatch(batch); err != nil {
								panic(err)
							}
							evs = append(evs, batch...)
							done += n
						}
					} else {
						for i := 0; i < eventsPerPub; i++ {
							ev := mk()
							if _, err := b.Publish(ev); err != nil {
								panic(err)
							}
							// Publish takes the event by value; reconstruct
							// the assigned seq from the broker stats is not
							// possible per event, so match on values instead.
							evs = append(evs, ev)
						}
					}
					published[g] = evs
				}()
			}

			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(2000 + g)))
					for i := 0; i < churnPerGorou; i++ {
						id := predicate.ID(fmt.Sprintf("churn%d-%d", g, i))
						expr := fmt.Sprintf("profile(humidity >= %d)", rng.Intn(100))
						sub, err := b.SubscribeWith(predicate.MustParse(s, id, expr), SubOptions{Buffer: 8})
						if err != nil {
							panic(err)
						}
						// Drain a little so the channel close finds a reader
						// sometimes.
						for len(sub.C()) > 4 {
							<-sub.C()
						}
						if err := b.Unsubscribe(id); err != nil {
							panic(err)
						}
					}
				}()
			}

			wg.Wait()

			// Sequential oracle: per stable profile, count the published
			// events it matches (profiles are static, so a value-level count
			// is exact — every publisher's event either matched while the
			// subscriber existed, which is always, or never).
			st := b.Stats()
			if st.Published != totalEvents {
				t.Fatalf("published %d of %d", st.Published, totalEvents)
			}
			for i, sub := range stable {
				if d := sub.Dropped(); d != 0 {
					t.Fatalf("stable%d dropped %d notifications: its buffer was sized to hold everything", i, d)
				}
				want := 0
				p := sub.Profile()
				for _, evs := range published {
					for _, ev := range evs {
						if p.Matches(ev.Vals) {
							want++
						}
					}
				}
				got := len(sub.C())
				if got != want {
					t.Errorf("stable%d: received %d notifications, oracle says %d", i, got, want)
				}
				// No duplicate seqs among the received notifications.
				seen := make(map[uint64]bool, got)
				for len(sub.C()) > 0 {
					n := <-sub.C()
					if seen[n.Event.Seq] {
						t.Fatalf("stable%d: duplicate notification for seq %d", i, n.Event.Seq)
					}
					seen[n.Event.Seq] = true
					if !p.Matches(n.Event.Vals) {
						t.Fatalf("stable%d: notified for non-matching event %v", i, n.Event.Vals)
					}
				}
			}
			if b.Adaptor().Restructures() == 0 {
				t.Error("adaptive policy never restructured during the stress run")
			}
		})
	}
}

// TestChurnRaceStress aims the stress harness at the churn path specifically:
// Block-policy subscribers with tiny buffers so publishers park on full
// channels, churner goroutines subscribing and unsubscribing Block-policy
// profiles mid-flight (an unsubscribe must release any delivery parked on
// that subscription), and the adaptive policy swapping index snapshots under
// all of it. Every stable subscriber is drained concurrently and checked
// against the same sequential oracle as TestRaceStress: exact match counts,
// no losses, no duplicate seqs. Run under -race; the interleavings between
// snapshot swaps, parked Block sends and subscription teardown are the point.
func TestChurnRaceStress(t *testing.T) {
	const (
		publishers   = 8
		churners     = 4
		eventsPerPub = 200
		totalEvents  = publishers * eventsPerPub
		stableSubs   = 8
		churnPerG    = 40
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := newBroker(t, Options{
				Shards:   shards,
				Adaptive: true,
				Policy:   adaptive.Policy{Window: 64, Threshold: 0.01, ReorderAttributes: true, MinHistory: 64},
			})
			s := b.Schema()

			// Stable Block-policy subscribers: buffers far smaller than the
			// event volume, so correctness depends on backpressure (a parked
			// publisher resuming when the drainer catches up), not on buffer
			// headroom. Block never drops, so the drained set must equal the
			// oracle exactly.
			stable := make([]*Subscription, stableSubs)
			received := make([][]event.Event, stableSubs)
			var drain sync.WaitGroup
			for i := range stable {
				expr := fmt.Sprintf("profile(temperature >= %d)", i*8-30)
				sub, err := b.SubscribeWith(
					predicate.MustParse(s, predicate.ID(fmt.Sprintf("bstable%d", i)), expr),
					SubOptions{Buffer: 4, Policy: Block},
				)
				if err != nil {
					t.Fatal(err)
				}
				stable[i] = sub
				drain.Add(1)
				go func(i int, sub *Subscription) {
					defer drain.Done()
					for n := range sub.C() {
						received[i] = append(received[i], n.Event)
					}
				}(i, sub)
			}

			var wg sync.WaitGroup
			published := make([][]event.Event, publishers)
			for g := 0; g < publishers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(4000 + g)))
					evs := make([]event.Event, 0, eventsPerPub)
					mk := func() event.Event {
						ev, err := event.New(s, float64(rng.Intn(80)-30), float64(rng.Intn(100)))
						if err != nil {
							panic(err)
						}
						return ev
					}
					if g < 2 {
						for done := 0; done < eventsPerPub; {
							n := rng.Intn(16) + 1
							if done+n > eventsPerPub {
								n = eventsPerPub - done
							}
							batch := make([]event.Event, n)
							for i := range batch {
								batch[i] = mk()
							}
							if _, err := b.PublishBatch(batch); err != nil {
								panic(err)
							}
							evs = append(evs, batch...)
							done += n
						}
					} else {
						for i := 0; i < eventsPerPub; i++ {
							ev := mk()
							if _, err := b.Publish(ev); err != nil {
								panic(err)
							}
							evs = append(evs, ev)
						}
					}
					published[g] = evs
				}(g)
			}

			// Churners register Block-policy subscriptions they mostly never
			// drain: publishers park on the full buffers and only the
			// unsubscribe releases them — the teardown fence (end, retire,
			// channel close) races live parked sends on every iteration.
			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(5000 + g)))
					for i := 0; i < churnPerG; i++ {
						id := predicate.ID(fmt.Sprintf("bchurn%d-%d", g, i))
						expr := fmt.Sprintf("profile(humidity >= %d)", rng.Intn(100))
						sub, err := b.SubscribeWith(predicate.MustParse(s, id, expr), SubOptions{Buffer: 2, Policy: Block})
						if err != nil {
							panic(err)
						}
						if rng.Intn(2) == 0 {
							// Sometimes drain one notification so the
							// unsubscribe races in-flight sends as well as
							// parked ones.
							select {
							case <-sub.C():
							default:
							}
						}
						if err := b.Unsubscribe(id); err != nil {
							panic(err)
						}
					}
				}(g)
			}

			wg.Wait()
			// Retire the stable subscriptions so their channels close and the
			// drainers finish.
			for i := range stable {
				if err := b.Unsubscribe(predicate.ID(fmt.Sprintf("bstable%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			drain.Wait()

			st := b.Stats()
			if st.Published != totalEvents {
				t.Fatalf("published %d of %d", st.Published, totalEvents)
			}
			for i, sub := range stable {
				if d := sub.Dropped(); d != 0 {
					t.Fatalf("bstable%d dropped %d notifications: Block policy must never drop", i, d)
				}
				p := sub.Profile()
				want := 0
				for _, evs := range published {
					for _, ev := range evs {
						if p.Matches(ev.Vals) {
							want++
						}
					}
				}
				if got := len(received[i]); got != want {
					t.Errorf("bstable%d: received %d notifications, oracle says %d", i, got, want)
				}
				seen := make(map[uint64]bool, len(received[i]))
				for _, ev := range received[i] {
					if seen[ev.Seq] {
						t.Fatalf("bstable%d: duplicate notification for seq %d", i, ev.Seq)
					}
					seen[ev.Seq] = true
					if !p.Matches(ev.Vals) {
						t.Fatalf("bstable%d: notified for non-matching event %v", i, ev.Vals)
					}
				}
			}
			if b.Adaptor().Restructures() == 0 {
				t.Error("adaptive policy never restructured during the stress run")
			}
		})
	}
}

// TestQueueChurnRace races publishers against subscriptions joining and
// leaving one queue while its consumer drains it, then tears everything down:
// no send may hit the closed channel, every delivered notification is either
// consumed or counted as dropped, and the consumer ends with the channel.
func TestQueueChurnRace(t *testing.T) {
	s := testSchema(t)
	b, err := New(s, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	q, err := b.NewQueue(32)
	if err != nil {
		t.Fatal(err)
	}
	var consumed atomic.Uint64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range q.C() {
			consumed.Add(1)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.PublishValues([]float64{float64((i+p)%80 - 30), float64(i % 100)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := predicate.ID(fmt.Sprintf("m%d-%d", c, i%5))
				if _, err := q.Subscribe(predicate.MustParse(s, id, fmt.Sprintf("profile(temperature >= %d)", i%80-30))); err != nil {
					t.Error(err)
					return
				}
				if err := b.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	q.Close() // no member is left: the owner's was the last reference
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the queue did not close with its last reference")
	}
	st := b.Stats()
	if st.Delivered != consumed.Load() {
		t.Errorf("delivered %d, consumed %d (dropped %d)", st.Delivered, consumed.Load(), st.Dropped)
	}
	b.Close()
}
