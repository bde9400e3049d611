package broker

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// mallocs returns how many heap objects n calls of f allocate in total: the
// fewest of three rounds after one warm-up call, because Mallocs also counts
// what goroutines an earlier test left winding down allocate meanwhile.
// testing.AllocsPerRun truncates its mean to a whole number, which would hide
// an amortized cost below one object per call.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// blockAllocs is the amortized ceiling on the values copies of n matched
// events of arity values each: one block per blockVals values, and 2 more for
// a scratch the collector took from the pool.
func blockAllocs(n, arity int) uint64 { return uint64((n*arity+blockVals-1)/blockVals + 2) }

// TestPublishValuesAllocations pins the publish path's allocations: a miss
// allocates nothing, and matches only their share of the values blocks their
// notifications carry. The ids are matched into a pooled buffer, the tree's
// accumulator and the expansion's walk state are pooled, so neither the
// engine's layout, nor profiles parked on the path by incremental inserts,
// nor a Block-policy subscriber adds to it.
func TestPublishValuesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, which then allocate")
	}
	hit, miss := []float64{30, 10}, []float64{-25, 90}
	cases := []struct {
		name  string
		opts  Options
		setup func(t *testing.T, b *Broker)
	}{
		{name: "engine"},
		{name: "shards=2", opts: Options{Shards: 2}},
		{name: "extras", setup: func(t *testing.T, b *Broker) {
			// Inserted into a built index, a profile that constrains only the
			// first level parks on the nodes below it.
			if _, err := b.PublishValues(hit); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				p := predicate.MustParse(b.Schema(), predicate.ID(fmt.Sprintf("x%d", i)), fmt.Sprintf("profile(temperature >= %d)", i))
				if _, err := b.SubscribeWith(p, SubOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			parked := 0
			tr := b.Engine().Tree()
			for l, level := range tr.Levels() {
				for _, id := range level {
					parked += len(tr.Node(l, id).Extra())
				}
			}
			if parked == 0 {
				t.Fatal("no profile parked on the path")
			}
		}},
		{name: "block", setup: func(t *testing.T, b *Broker) {
			p := predicate.MustParse(b.Schema(), "blk", "profile(temperature >= 20)")
			sub, err := b.SubscribeWith(p, SubOptions{Buffer: 1, Policy: Block})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for range sub.C() {
				}
			}()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newBroker(t, c.opts)
			for i := 0; i < 8; i++ {
				p := predicate.MustParse(b.Schema(), predicate.ID(fmt.Sprintf("p%d", i)), fmt.Sprintf("profile(temperature >= %d; humidity <= 50)", 2*i))
				if _, err := b.SubscribeWith(p, SubOptions{Buffer: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if c.setup != nil {
				c.setup(t, b)
			}
			for _, vals := range [][]float64{hit, miss} {
				if _, err := b.PublishValues(vals); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := b.PublishValues(hit); n == 0 {
				t.Fatal("the matching event matched nothing")
			}
			const events = 4096
			if n := mallocs(events, func() { _, _ = b.PublishValues(miss) }); n != 0 {
				t.Errorf("%d misses allocate %d objects, want 0", events, n)
			}
			if n, limit := mallocs(events, func() { _, _ = b.PublishValues(hit) }), blockAllocs(events, len(hit)); n > limit {
				t.Errorf("%d matches allocate %d objects, want <= %d (the values blocks)", events, n, limit)
			}
		})
	}
}

// TestPublishBatchAllocations pins the batch path's allocations: a batch of 8
// events allocates its counts slice and, when its events match handler, Queue
// and Block-policy subscribers, only their share of the values blocks. Its
// events share one pooled scratch.
func TestPublishBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, which then allocate")
	}
	batch := func(vals ...float64) []event.Event {
		evs := make([]event.Event, 8)
		for i := range evs {
			evs[i] = event.Event{Vals: vals}
		}
		return evs
	}
	hits, misses := batch(30, 10), batch(-25, 90)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := newBroker(t, Options{Shards: shards})
			drain := func(c <-chan Notification) {
				go func() {
					for range c {
					}
				}()
			}
			q, err := b.NewQueue(16)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			drain(q.C())
			for i := 0; i < 6; i++ {
				p := predicate.MustParse(b.Schema(), predicate.ID(fmt.Sprintf("p%d", i)), fmt.Sprintf("profile(temperature >= %d; humidity <= 50)", 2*i))
				switch i % 3 {
				case 0:
					sub, err := b.SubscribeWith(p, SubOptions{Buffer: 4})
					if err != nil {
						t.Fatal(err)
					}
					drain(sub.C())
				case 1:
					if _, err := q.Subscribe(p); err != nil {
						t.Fatal(err)
					}
				default:
					sub, err := b.SubscribeWith(p, SubOptions{Buffer: 1, Policy: Block})
					if err != nil {
						t.Fatal(err)
					}
					drain(sub.C())
				}
			}
			for _, evs := range [][]event.Event{hits, misses} {
				if _, err := b.PublishBatch(evs); err != nil {
					t.Fatal(err)
				}
			}
			if counts, _ := b.PublishBatch(hits); counts[7] != 6 {
				t.Fatalf("the matching batch's last event matched %d profiles, want 6", counts[7])
			}
			const batches = 512 // 4 096 events
			if n := mallocs(batches, func() { _, _ = b.PublishBatch(misses) }); n != batches {
				t.Errorf("%d batches of 8 that match nothing allocate %d objects, want %d (the counts)", batches, n, batches)
			}
			if n, limit := mallocs(batches, func() { _, _ = b.PublishBatch(hits) }), batches+blockAllocs(8*batches, 2); n > limit {
				t.Errorf("%d matching batches of 8 allocate %d objects, want <= %d (the counts and values blocks)", batches, n, limit)
			}
		})
	}
}

// TestRecycledIDsRaceStress races publishers, each matching into recycled id
// buffers (a batch publisher reuses one across its events), against
// subscriptions leaving and re-joining under the same ids, delivered to
// handler goroutines and to a Queue. Every event carries its own number, and
// a logical clock brackets every publish, subscribe and unsubscribe. For each Seq, the delivered profiles must be exactly the
// brute-force Profile.Matches over the subscriptions live at that moment: a
// subscription live for the whole publish must be notified if it matches,
// one live at no point of it must not be, and the ones whose lifetime only
// overlaps the publish may go either way. A buffer recycled while still in
// use would deliver a profile under the wrong event. A handler channel
// belongs to one incarnation of its id, so every notification on it must
// carry that id and match that incarnation's own profile: a match of an
// earlier incarnation delivered to a later one under the same id fails here.
// Run under -race.
func TestRecycledIDsRaceStress(t *testing.T) {
	const (
		publishers   = 4
		eventsPerPub = 300
		events       = publishers * eventsPerPub
		churners     = 2
		cycles       = 60
	)
	temp, _ := schema.NewNumericDomain(-30, 50)
	hum, _ := schema.NewNumericDomain(0, 100)
	num, _ := schema.NewIntegerDomain(0, events)
	s := schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "n", Domain: num},
	)
	// life is one subscription's lifetime on the clock: subscribe called at
	// s0 and returned at s1, unsubscribe called at u0 and returned at u1.
	type life struct {
		p              *predicate.Profile
		s0, s1, u0, u1 int64
	}
	// pub is one published event and the clock when Publish was called and
	// when it returned.
	type pub struct {
		vals   []float64
		t0, t1 int64
	}
	// note is one notification received; own is the profile of the one
	// subscription whose channel received it, nil on the shared Queue.
	type note struct {
		seq  uint64
		vals []float64
		id   predicate.ID
		own  *predicate.Profile
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b, err := New(s, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var (
				clock  atomic.Int64
				mu     sync.Mutex
				notes  []note
				drains sync.WaitGroup
			)
			handle := func(c <-chan Notification, own *predicate.Profile) {
				drains.Add(1)
				go func() {
					defer drains.Done()
					for n := range c {
						mu.Lock()
						notes = append(notes, note{n.Event.Seq, n.Event.Vals, n.Profile, own})
						mu.Unlock()
					}
				}()
			}
			q, err := b.NewQueue(4 * events)
			if err != nil {
				t.Fatal(err)
			}
			handle(q.C(), nil)

			forever := life{u0: math.MaxInt64, u1: math.MaxInt64}
			lives := make([][]life, churners+1)
			for i := 0; i < 6; i++ {
				l := forever
				if i%2 == 0 {
					l.p = predicate.MustParse(s, predicate.ID(fmt.Sprintf("h%d", i)), fmt.Sprintf("profile(temperature >= %d)", 12*i-30))
					sub, err := b.SubscribeWith(l.p, SubOptions{Buffer: events})
					if err != nil {
						t.Fatal(err)
					}
					handle(sub.C(), l.p)
				} else {
					l.p = predicate.MustParse(s, predicate.ID(fmt.Sprintf("q%d", i)), fmt.Sprintf("profile(humidity <= %d; temperature >= %d)", 15*i, 5*i-30))
					if _, err := q.Subscribe(l.p); err != nil {
						t.Fatal(err)
					}
				}
				lives[churners] = append(lives[churners], l)
			}

			var wg sync.WaitGroup
			pubs := make([][]pub, publishers)
			for g := 0; g < publishers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					reused := make([]float64, s.N())
					for i := 0; i < eventsPerPub; {
						// A batch publisher sends up to four events a call,
						// all matched into one pooled buffer.
						n := 1
						if g%3 == 2 {
							n = min(4, eventsPerPub-i)
						}
						ps := make([]pub, n)
						evs := make([]event.Event, n)
						for j := range ps {
							ps[j].vals = []float64{float64(rng.Intn(80) - 30), float64(rng.Intn(100)), float64(g*eventsPerPub + i + j)}
							evs[j] = event.Event{Vals: slices.Clone(ps[j].vals)}
						}
						t0 := clock.Add(1)
						var err error
						switch g % 3 {
						case 0:
							// The caller's buffer is reused at once: the
							// notifications must carry their own copy.
							copy(reused, ps[0].vals)
							_, err = b.PublishValues(reused)
						case 1:
							_, err = b.Publish(evs[0])
						default:
							_, err = b.PublishBatch(evs)
						}
						t1 := clock.Add(1)
						if err != nil {
							t.Error(err)
							return
						}
						for _, p := range ps {
							p.t0, p.t1 = t0, t1
							pubs[g] = append(pubs[g], p)
						}
						i += n
					}
				}()
			}
			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + g)))
					for i := 0; i < cycles; i++ {
						// Three ids per churner, each subscribed and
						// unsubscribed many times over.
						id := predicate.ID(fmt.Sprintf("c%d-%d", g, i%3))
						expr := fmt.Sprintf("profile(temperature >= %d)", rng.Intn(80)-30)
						if i%2 == 1 {
							expr = fmt.Sprintf("profile(humidity <= %d)", rng.Intn(100))
						}
						l := life{p: predicate.MustParse(s, id, expr), s0: clock.Add(1)}
						var err error
						if g == 0 {
							_, err = q.Subscribe(l.p)
						} else {
							var sub *Subscription
							if sub, err = b.SubscribeWith(l.p, SubOptions{Buffer: events}); err == nil {
								handle(sub.C(), l.p)
							}
						}
						l.s1 = clock.Add(1)
						if err != nil {
							t.Error(err)
							return
						}
						for j := rng.Intn(200); j > 0; j-- {
							clock.Add(0) // let some publishes land while it is live
						}
						l.u0 = clock.Add(1)
						err = b.Unsubscribe(id)
						l.u1 = clock.Add(1)
						if err != nil {
							t.Error(err)
							return
						}
						lives[g] = append(lives[g], l)
					}
				}()
			}
			wg.Wait()
			q.Close()
			st := b.Stats()
			b.Close()
			drains.Wait()
			if t.Failed() {
				return
			}
			if st.Dropped != 0 {
				t.Fatalf("%d notifications dropped; every buffer was sized to hold all", st.Dropped)
			}

			byID := make(map[predicate.ID][]life)
			for _, ls := range lives {
				for _, l := range ls {
					byID[l.p.ID] = append(byID[l.p.ID], l)
				}
			}
			byNum := make([]pub, events)
			for _, ps := range pubs {
				for _, p := range ps {
					byNum[int(p.vals[2])] = p
				}
			}
			// Group the notifications by Seq: one event per Seq, one
			// notification per profile.
			seqNum := make(map[uint64]int)
			got := make(map[uint64]map[predicate.ID]bool)
			for _, n := range notes {
				if n.own != nil && (n.id != n.own.ID || !n.own.Matches(n.vals)) {
					t.Fatalf("seq %d: the subscription %s %s received %v for %s, which its own profile does not match", n.seq, n.own.ID, n.own.Render(s), n.vals, n.id)
				}
				k := int(n.vals[2])
				if !slices.Equal(n.vals, byNum[k].vals) {
					t.Fatalf("seq %d: notified values %v, event %d published %v", n.seq, n.vals, k, byNum[k].vals)
				}
				if prev, ok := seqNum[n.seq]; ok && prev != k {
					t.Fatalf("seq %d carries events %d and %d", n.seq, prev, k)
				}
				seqNum[n.seq] = k
				if got[n.seq] == nil {
					got[n.seq] = make(map[predicate.ID]bool)
				}
				if got[n.seq][n.id] {
					t.Fatalf("seq %d: %s notified twice", n.seq, n.id)
				}
				got[n.seq][n.id] = true
			}
			numSeq := make(map[int]uint64, len(seqNum))
			for seq, k := range seqNum {
				if _, dup := numSeq[k]; dup {
					t.Fatalf("event %d delivered under two seqs", k)
				}
				numSeq[k] = seq
			}
			checked := 0
			for k, p := range byNum {
				delivered := got[numSeq[k]]
				for id, ls := range byID {
					must, may := false, false
					for _, l := range ls {
						if !l.p.Matches(p.vals) {
							continue
						}
						must = must || l.s1 < p.t0 && p.t1 < l.u0
						may = may || !(p.t1 < l.s0 || l.u1 < p.t0)
					}
					switch {
					case must && !delivered[id]:
						t.Errorf("event %d %v: %s was live throughout and matches, not notified", k, p.vals, id)
					case delivered[id] && !may:
						t.Errorf("event %d %v: %s notified, but no live subscription of it matches", k, p.vals, id)
					}
					if must {
						checked++
					}
				}
				for id := range delivered {
					if byID[id] == nil {
						t.Errorf("event %d: notified unknown profile %s", k, id)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no notification was certain; the test would prove nothing")
			}
		})
	}
}
