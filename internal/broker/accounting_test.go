package broker

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
)

// TestUnsubscribeLeavesNoState: a subscription leaves nothing behind. A
// daemon whose clients subscribe under fresh ids runs 100 000 subscribe →
// matching publish → read → unsubscribe cycles, and its heap, measured after
// a forced collection, grows by less than 1 MB. A tally kept per ended id
// would grow it by about 5 MB (50 B per cycle).
func TestUnsubscribeLeavesNoState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping grows the heap on its own")
	}
	const (
		warm   = 1_000
		cycles = 100_000
	)
	b := newBroker(t, Options{})
	s := b.Schema()
	vals := []float64{40, 50}
	cycle := func(i int) {
		id := predicate.ID("s" + strconv.Itoa(i))
		sub, err := b.SubscribeWith(predicate.MustParse(s, id, "profile(temperature >= 35)"), SubOptions{Buffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := b.PublishValues(vals); err != nil || n != 1 {
			t.Fatalf("cycle %d: publish matched %d, %v", i, n, err)
		}
		if n := <-sub.C(); n.Profile != id {
			t.Fatalf("cycle %d: notification for %q", i, n.Profile)
		}
		if err := b.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	// The first cycles fill the publish pool and the engine's scratch.
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	before := heapAfterGC()
	for i := warm; i < warm+cycles; i++ {
		cycle(i)
	}
	after := heapAfterGC()
	growth := int64(after) - int64(before)
	t.Logf("heap %d B → %d B over %d cycles: %+d B (%.1f B per cycle)",
		before, after, cycles, growth, float64(growth)/cycles)
	if growth >= 1<<20 {
		t.Errorf("the heap grew %d B over %d cycles with no live subscription, want < 1 MB", growth, cycles)
	}
	if st := b.Stats(); st.Subscriptions != 0 || st.Delivered != warm+cycles {
		t.Errorf("stats = %+v, want no subscription and %d deliveries", st, warm+cycles)
	}
}

// heapAfterGC returns the live heap after a forced collection.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCountersReconcile: lock-free accounting loses no update. Four
// publishers race through a fixed corpus, one of them in batches, against
// subscribers of both policies: DropNewest ones nobody reads until the end,
// so most of their notifications drop, and Block ones drained as they go.
// Once the publishers return, every counter equals the sequential oracle's
// figure: the events published and filtered, each subscription's deliveries
// plus drops against its brute-force match count, the broker totals against
// the subscriptions' sums, and FilterOps against the operations a sequential
// replay of the same events spends on an engine of the same shape.
func TestCountersReconcile(t *testing.T) {
	const (
		publishers = 4
		perPub     = 400
		subs       = 24
		batch      = 8
	)
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	corpus := make([][]float64, publishers*perPub)
	for i := range corpus {
		corpus[i] = []float64{float64(rng.Intn(80) - 30), float64(rng.Intn(100))}
	}
	exprs := make([]string, subs)
	for i := range exprs {
		lo, hlo := rng.Intn(70)-30, rng.Intn(80)
		exprs[i] = fmt.Sprintf("profile(temperature >= %d; humidity in [%d,%d])", lo, hlo, hlo+rng.Intn(100-hlo))
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := newBroker(t, Options{Shards: shards})
			var replay interface {
				AddProfile(*predicate.Profile) error
				Match([]float64) ([]predicate.ID, int, error)
			} = core.NewEngine(s, core.Config{})
			if shards > 1 {
				replay = core.NewSharded(s, core.Config{}, shards)
			}
			live := make([]*Subscription, subs)
			want := make([]uint64, subs)
			var drain sync.WaitGroup
			for i, expr := range exprs {
				id := predicate.ID(fmt.Sprint("p", i))
				o := SubOptions{Buffer: 4}
				if i%2 == 1 {
					o.Policy = Block
				}
				sub, err := b.SubscribeWith(predicate.MustParse(s, id, expr), o)
				if err != nil {
					t.Fatal(err)
				}
				p := predicate.MustParse(s, id, expr)
				if err := replay.AddProfile(p); err != nil {
					t.Fatal(err)
				}
				for _, vals := range corpus {
					if p.Matches(vals) {
						want[i]++
					}
				}
				live[i] = sub
				if o.Policy == Block {
					drain.Add(1)
					go func() {
						defer drain.Done()
						for range sub.C() {
						}
					}()
				}
			}

			var pubs sync.WaitGroup
			for g := 0; g < publishers; g++ {
				pubs.Add(1)
				go func() {
					defer pubs.Done()
					mine := corpus[g*perPub : (g+1)*perPub]
					if g == 0 {
						for len(mine) > 0 {
							n := min(batch, len(mine))
							evs := make([]event.Event, n)
							for i := range evs {
								evs[i] = event.Event{Vals: append([]float64(nil), mine[i]...)}
							}
							if _, err := b.PublishBatch(evs); err != nil {
								t.Error(err)
								return
							}
							mine = mine[n:]
						}
						return
					}
					for _, vals := range mine {
						if _, err := b.PublishValues(vals); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			pubs.Wait()

			st := b.Stats()
			if n := uint64(len(corpus)); st.Published != n || st.FilterEvents != n {
				t.Errorf("published %d, filtered %d events; want %d each", st.Published, st.FilterEvents, n)
			}
			var delivered, dropped uint64
			for i, sub := range live {
				if got := sub.Delivered() + sub.Dropped(); got != want[i] {
					t.Errorf("%s: %d delivered + %d dropped = %d, want its %d matches",
						sub.ID(), sub.Delivered(), sub.Dropped(), got, want[i])
				}
				if sub.policy == Block && sub.Dropped() != 0 {
					t.Errorf("%s: a blocking subscription dropped %d", sub.ID(), sub.Dropped())
				}
				delivered += sub.Delivered()
				dropped += sub.Dropped()
			}
			if st.Delivered != delivered || st.Dropped != dropped {
				t.Errorf("broker counted %d delivered, %d dropped; its subscriptions %d and %d",
					st.Delivered, st.Dropped, delivered, dropped)
			}
			if dropped == 0 {
				t.Error("no notification dropped: the DropNewest subscribers were never full")
			}
			var ops uint64
			for _, vals := range corpus {
				_, n, err := replay.Match(vals)
				if err != nil {
					t.Fatal(err)
				}
				ops += uint64(n)
			}
			if st.FilterOps != ops {
				t.Errorf("FilterOps = %d, want the sequential replay's %d", st.FilterOps, ops)
			}

			b.Close()
			drain.Wait()
		})
	}
}
