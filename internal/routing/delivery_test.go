package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/predicate"
)

// errPoisoned is what the poisoned link below fails every match with.
var errPoisoned = errors.New("poisoned link engine")

// poisonLink makes every match on the named link fail (the Table's test
// hook).
func poisonLink(t *testing.T, nw *Network, node, via string) {
	t.Helper()
	n, err := nw.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.table.links[via]
	if !ok {
		t.Fatalf("no link %s-%s", node, via)
	}
	l.broken = errPoisoned
}

// TestDeliverSurvivesPoisonedLink: when one link's engine errors, the event
// still reaches every healthy link (regression: deliver used to abort the
// remaining fan-out and silently starve peers later in the hops slice).
func TestDeliverSurvivesPoisonedLink(t *testing.T) {
	s := testSchema(t)
	// Star around B: A publishes, B fans out to C, D, E. One of B's three
	// outbound links is poisoned per sub-test, and the subscribers behind the
	// two healthy links must still be notified regardless of iteration order.
	for _, poisoned := range []string{"C", "D", "E"} {
		t.Run("poison-B-"+poisoned, func(t *testing.T) {
			nw := NewNetwork(s, Options{})
			t.Cleanup(nw.Close)
			for _, n := range []string{"A", "B", "C", "D", "E"} {
				if _, err := nw.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			for _, spoke := range []string{"A", "C", "D", "E"} {
				if err := nw.Connect("B", spoke); err != nil {
					t.Fatal(err)
				}
			}
			subs := make(map[string]*broker.Subscription)
			for _, node := range []string{"C", "D", "E"} {
				p := predicate.MustParse(s, predicate.ID("at"+node), "profile(price >= 500)")
				sub, err := nw.Subscribe(node, p)
				if err != nil {
					t.Fatal(err)
				}
				subs[node] = sub
			}
			poisonLink(t, nw, "B", poisoned)

			total, err := nw.Publish("A", event.MustNew(s, 700, 10))
			if !errors.Is(err, errPoisoned) {
				t.Fatalf("err = %v, want the poisoned link surfaced", err)
			}
			if total != 2 {
				t.Errorf("matched = %d, want 2 (both healthy links delivered)", total)
			}
			for node, sub := range subs {
				want := node != poisoned
				select {
				case <-sub.C():
					if !want {
						t.Errorf("%s notified across a poisoned link", node)
					}
				case <-time.After(200 * time.Millisecond):
					if want {
						t.Errorf("%s starved: healthy link skipped after the poisoned one errored", node)
					}
				}
			}
		})
	}
}

// TestCoveringWithdrawRearmsRoutes: unsubscribing the covering (broad)
// profile must re-arm the previously covered narrow route on every affected
// link (the rebuildLink path), so events matching only the narrow profile
// keep flowing end to end.
func TestCoveringWithdrawRearmsRoutes(t *testing.T) {
	s := testSchema(t)
	nw := lineNetwork(t, true)
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "broad", "profile(price >= 100)")); err != nil {
		t.Fatal(err)
	}
	narrow, err := nw.Subscribe("D", predicate.MustParse(s, "narrow", "profile(price >= 500)"))
	if err != nil {
		t.Fatal(err)
	}
	// While broad lives, every link from A to D carries one uncovered route.
	for _, hop := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
		n, _ := nw.Node(hop[0])
		if rc := n.RouteCount(hop[1]); rc != 1 {
			t.Errorf("%s-%s routes = %d, want 1 (narrow covered by broad)", hop[0], hop[1], rc)
		}
	}
	if err := nw.Unsubscribe("D", "broad"); err != nil {
		t.Fatal(err)
	}
	// The narrow route must be re-armed on every affected link, not just the
	// first hop.
	for _, hop := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
		n, _ := nw.Node(hop[0])
		if rc := n.RouteCount(hop[1]); rc != 1 {
			t.Errorf("after withdraw, %s-%s routes = %d, want 1 (narrow re-armed)", hop[0], hop[1], rc)
		}
	}
	if _, err := nw.Publish("A", event.MustNew(s, 700, 10)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-narrow.C():
		if n.Profile != "narrow" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("narrow starved after its covering profile was withdrawn")
	}
	if st := nw.Stats(); st.Messages != 3 {
		t.Errorf("messages = %d, want 3 (A-B-C-D)", st.Messages)
	}
}

// TestCoveringEquivalentTiebreakWithdraw: with two equivalent profiles the
// smaller id survives in the link engines (the p.ID < id tiebreak).
// Withdrawing that surviving smaller-id profile must promote the larger-id
// equivalent on every link, and delivery must keep working end to end.
func TestCoveringEquivalentTiebreakWithdraw(t *testing.T) {
	s := testSchema(t)
	nw := lineNetwork(t, true)
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "e1", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	e2, err := nw.Subscribe("D", predicate.MustParse(s, "e2", "profile(price >= 500)"))
	if err != nil {
		t.Fatal(err)
	}
	// Withdraw the surviving smaller id: e2 must be promoted on every link.
	if err := nw.Unsubscribe("D", "e1"); err != nil {
		t.Fatal(err)
	}
	for _, hop := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
		n, _ := nw.Node(hop[0])
		if rc := n.RouteCount(hop[1]); rc != 1 {
			t.Errorf("%s-%s routes = %d, want 1 (e2 promoted)", hop[0], hop[1], rc)
		}
	}
	matched, err := nw.Publish("A", event.MustNew(s, 700, 10))
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("matched = %d, want 1", matched)
	}
	select {
	case <-e2.C():
	case <-time.After(time.Second):
		t.Fatal("e2 starved after the equivalent smaller-id profile was withdrawn")
	}
}

// TestRoutingRaceStress runs concurrent publishes at every node while
// subscriptions churn across the overlay, then checks the stable subscribers
// against a sequential oracle: a profile registered before the first publish
// receives exactly the events it matches, no losses, no duplicates (the
// broker-level adaptive stress pattern lifted to the overlay). Run under
// -race; the schedule noise is the point.
func TestRoutingRaceStress(t *testing.T) {
	const (
		publishers   = 4
		churners     = 4
		eventsPerPub = 150
		totalEvents  = publishers * eventsPerPub
		stableSubs   = 8
		churnPerG    = 30
	)
	s := testSchema(t)
	nodes := []string{"A", "B", "C", "D"}
	for _, covering := range []bool{false, true} {
		t.Run(fmt.Sprintf("covering=%v", covering), func(t *testing.T) {
			// Buffers sized so a stable subscriber can never drop: a drop
			// would be indistinguishable from a lost forward.
			nw := NewNetwork(s, Options{
				Covering: covering,
				Broker:   broker.Options{DefaultBuffer: totalEvents},
			})
			t.Cleanup(nw.Close)
			for _, n := range nodes {
				if _, err := nw.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
				if err := nw.Connect(l[0], l[1]); err != nil {
					t.Fatal(err)
				}
			}

			type stable struct {
				p    *predicate.Profile
				sub  *broker.Subscription
				node string
			}
			stables := make([]stable, stableSubs)
			for i := range stables {
				expr := fmt.Sprintf("profile(price >= %d)", i*120)
				p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("stable%d", i)), expr)
				node := nodes[i%len(nodes)]
				sub, err := nw.Subscribe(node, p)
				if err != nil {
					t.Fatal(err)
				}
				stables[i] = stable{p: p, sub: sub, node: node}
			}

			var wg sync.WaitGroup
			published := make([][]event.Event, publishers)
			for g := 0; g < publishers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + g)))
					origin := nodes[g%len(nodes)]
					evs := make([]event.Event, 0, eventsPerPub)
					for i := 0; i < eventsPerPub; i++ {
						ev := event.MustNew(s, float64(rng.Intn(1001)), float64(rng.Intn(101)))
						if _, err := nw.Publish(origin, ev); err != nil {
							panic(err)
						}
						evs = append(evs, ev)
					}
					published[g] = evs
				}()
			}
			for g := 0; g < churners; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(200 + g)))
					for i := 0; i < churnPerG; i++ {
						id := predicate.ID(fmt.Sprintf("churn%d-%d", g, i))
						expr := fmt.Sprintf("profile(volume >= %d)", rng.Intn(100))
						node := nodes[rng.Intn(len(nodes))]
						if _, err := nw.Subscribe(node, predicate.MustParse(s, id, expr)); err != nil {
							panic(err)
						}
						if err := nw.Unsubscribe(node, id); err != nil {
							panic(err)
						}
					}
				}()
			}
			wg.Wait()

			// Sequential oracle: overlay delivery is synchronous with
			// Publish, so once every publisher returned, each stable buffer
			// holds its complete notification set.
			for i, st := range stables {
				if d := st.sub.Dropped(); d != 0 {
					t.Fatalf("stable%d dropped %d notifications: its buffer was sized to hold everything", i, d)
				}
				want := 0
				for _, evs := range published {
					for _, ev := range evs {
						if st.p.Matches(ev.Vals) {
							want++
						}
					}
				}
				got := len(st.sub.C())
				if got != want {
					t.Errorf("stable%d@%s: received %d notifications, oracle says %d", i, st.node, got, want)
				}
				seen := make(map[uint64]bool, got)
				for len(st.sub.C()) > 0 {
					n := <-st.sub.C()
					if !st.p.Matches(n.Event.Vals) {
						t.Fatalf("stable%d: notified for non-matching event %v", i, n.Event.Vals)
					}
					key := n.Event.Seq
					if seen[key] {
						t.Fatalf("stable%d: duplicate notification for seq %d", i, key)
					}
					seen[key] = true
				}
			}
			if st := nw.Stats(); st.Messages == 0 {
				t.Error("stress run forwarded nothing across links")
			}
		})
	}
}

// TestConnectDuringChurn: Connect's replay is a consistent cut. Subscribers
// come and go at A and at C while A is being linked to B—C; had a withdrawal
// overtaken the replayed announcement of its id on the new link, the route
// would stay installed for good. Afterwards every link must hold exactly
// the subscriptions that survived. Run under -race.
func TestConnectDuringChurn(t *testing.T) {
	const stable = 200
	s := testSchema(t)
	for round := 0; round < 20; round++ {
		nw := NewNetwork(s, Options{})
		for _, n := range []string{"A", "B", "C"} {
			if _, err := nw.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := nw.Connect("B", "C"); err != nil {
			t.Fatal(err)
		}
		// A long replay ahead of the churned ids keeps the window open.
		for i := 0; i < stable; i++ {
			id := predicate.ID(fmt.Sprintf("stable%d", i))
			if _, err := nw.Subscribe("A", predicate.MustParse(s, id, "profile(volume >= 50)")); err != nil {
				t.Fatal(err)
			}
		}
		var wg, running sync.WaitGroup
		for _, node := range []string{"A", "C"} {
			wg.Add(1)
			running.Add(1)
			go func() {
				defer wg.Done()
				var once sync.Once
				defer once.Do(running.Done)
				for i := 0; i < 40; i++ {
					if i == 4 {
						once.Do(running.Done) // Connect starts in mid-churn
					}
					id := predicate.ID(fmt.Sprintf("%s%d", node, i))
					if _, err := nw.Subscribe(node, predicate.MustParse(s, id, "profile(price >= 500)")); err != nil {
						t.Error(err)
						return
					}
					if i%4 == 0 {
						continue // every fourth subscription stays
					}
					if err := nw.Unsubscribe(node, id); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		running.Wait()
		if err := nw.Connect("A", "B"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, c := range []struct {
			node, via string
			want      int
		}{{"B", "A", stable + 10}, {"C", "B", stable + 10}, {"A", "B", 10}, {"B", "C", 10}} {
			n, _ := nw.Node(c.node)
			if rc := n.RouteCount(c.via); rc != c.want {
				t.Fatalf("round %d: %s→%s holds %d routes, %d subscriptions live beyond it", round, c.node, c.via, rc, c.want)
			}
		}
		nw.Close()
	}
}
