package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/predicate"
	"genas/internal/schema"
)

func testSchema(t testing.TB) *schema.Schema {
	t.Helper()
	price, _ := schema.NewNumericDomain(0, 1000)
	vol, _ := schema.NewNumericDomain(0, 100)
	return schema.MustNew(
		schema.Attribute{Name: "price", Domain: price},
		schema.Attribute{Name: "volume", Domain: vol},
	)
}

// lineNetwork builds A—B—C—D.
func lineNetwork(t *testing.T, covering bool) *Network {
	t.Helper()
	nw := NewNetwork(testSchema(t), Options{Covering: covering})
	for _, n := range []string{"A", "B", "C", "D"} {
		if _, err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}} {
		if err := nw.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(nw.Close)
	return nw
}

func TestTopologyErrors(t *testing.T) {
	nw := lineNetwork(t, false)
	if _, err := nw.AddNode("A"); !errors.Is(err, ErrDuplicate) {
		t.Error("duplicate node must fail")
	}
	if err := nw.Connect("A", "A"); !errors.Is(err, ErrSelfLink) {
		t.Error("self link must fail")
	}
	if err := nw.Connect("A", "B"); !errors.Is(err, ErrAlreadyLinked) {
		t.Error("duplicate link must fail")
	}
	if err := nw.Connect("A", "D"); !errors.Is(err, ErrCycle) {
		t.Error("cycle must be rejected")
	}
	if err := nw.Connect("A", "Z"); !errors.Is(err, ErrUnknownNode) {
		t.Error("unknown node must fail")
	}
	if _, err := nw.Node("Z"); !errors.Is(err, ErrUnknownNode) {
		t.Error("unknown lookup must fail")
	}
}

// TestCrossNetworkDelivery: a subscription at D receives events published at
// A, three hops away.
func TestCrossNetworkDelivery(t *testing.T) {
	nw := lineNetwork(t, false)
	s := testSchema(t)
	sub, err := nw.Subscribe("D", predicate.MustParse(s, "exp", "profile(price >= 500)"))
	if err != nil {
		t.Fatal(err)
	}
	matched, err := nw.Publish("A", event.MustNew(s, 700, 10))
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d", matched)
	}
	select {
	case n := <-sub.C():
		if n.Profile != "exp" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification across the overlay")
	}
	st := nw.Stats()
	if st.Messages != 3 {
		t.Errorf("messages = %d, want 3 (A→B→C→D)", st.Messages)
	}
}

// TestEarlyRejection: events nobody wants never cross a link.
func TestEarlyRejection(t *testing.T) {
	nw := lineNetwork(t, false)
	s := testSchema(t)
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "exp", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Publish("A", event.MustNew(s, 100, 10)); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Messages != 0 {
		t.Errorf("uninteresting event crossed %d links", st.Messages)
	}
	if st.Filtered == 0 {
		t.Error("early rejection not recorded")
	}
}

// TestLocalDeliveryDoesNotFlood: an event matching only a local profile at
// the publishing node crosses no links.
func TestLocalDeliveryDoesNotFlood(t *testing.T) {
	nw := lineNetwork(t, false)
	s := testSchema(t)
	sub, err := nw.Subscribe("A", predicate.MustParse(s, "local", "profile(price <= 100)"))
	if err != nil {
		t.Fatal(err)
	}
	matched, err := nw.Publish("A", event.MustNew(s, 50, 10))
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d", matched)
	}
	select {
	case <-sub.C():
	case <-time.After(time.Second):
		t.Fatal("local notification missing")
	}
	if st := nw.Stats(); st.Messages != 0 {
		t.Errorf("local event crossed %d links", st.Messages)
	}
}

// TestUnsubscribeWithdrawsRoutes: after unsubscribing, events stop flowing.
func TestUnsubscribeWithdrawsRoutes(t *testing.T) {
	nw := lineNetwork(t, false)
	s := testSchema(t)
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "exp", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	if err := nw.Unsubscribe("D", "exp"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Publish("A", event.MustNew(s, 700, 10)); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.Messages != 0 {
		t.Errorf("withdrawn route still forwarded %d messages", st.Messages)
	}
	// A's link toward B holds no routes anymore.
	a, _ := nw.Node("A")
	if rc := a.RouteCount("B"); rc != 0 {
		t.Errorf("A→B routes = %d", rc)
	}
}

// TestCoveringPrunesRoutes: with covering on, a broad profile absorbs a
// narrow one in the routing tables while delivery stays identical.
func TestCoveringPrunesRoutes(t *testing.T) {
	s := testSchema(t)
	for _, covering := range []bool{false, true} {
		nw := lineNetwork(t, covering)
		broad, err := nw.Subscribe("D", predicate.MustParse(s, "broad", "profile(price >= 100)"))
		if err != nil {
			t.Fatal(err)
		}
		narrow, err := nw.Subscribe("D", predicate.MustParse(s, "narrow", "profile(price >= 500)"))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := nw.Node("A")
		want := 2
		if covering {
			want = 1 // narrow is covered by broad
		}
		if rc := a.RouteCount("B"); rc != want {
			t.Errorf("covering=%v: A→B routes = %d, want %d", covering, rc, want)
		}
		// Delivery is identical either way.
		if _, err := nw.Publish("A", event.MustNew(s, 700, 10)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			sub  *broker.Subscription
			name string
		}{{broad, "broad"}, {narrow, "narrow"}} {
			select {
			case n := <-c.sub.C():
				if n.Profile != predicate.ID(c.name) {
					t.Errorf("covering=%v: wrong notification %+v", covering, n)
				}
			case <-time.After(time.Second):
				t.Fatalf("covering=%v: %s missed its notification", covering, c.name)
			}
		}
		nw.Close()
	}
}

// TestCoveringEquivalentProfiles: two equivalent profiles keep exactly one
// route, and removing the survivor re-promotes the other.
func TestCoveringEquivalentProfiles(t *testing.T) {
	s := testSchema(t)
	nw := lineNetwork(t, true)
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "e1", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Subscribe("D", predicate.MustParse(s, "e2", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Node("A")
	if rc := a.RouteCount("B"); rc != 1 {
		t.Errorf("equivalent profiles keep %d routes, want 1", rc)
	}
	if err := nw.Unsubscribe("D", "e1"); err != nil {
		t.Fatal(err)
	}
	if rc := a.RouteCount("B"); rc != 1 {
		t.Errorf("after removing e1, routes = %d, want 1 (e2 promoted)", rc)
	}
	if err := nw.Unsubscribe("D", "e2"); err != nil {
		t.Fatal(err)
	}
	if rc := a.RouteCount("B"); rc != 0 {
		t.Errorf("after removing both, routes = %d", rc)
	}
}

// TestStarTopologyFanout: a hub forwards only toward interested spokes.
func TestStarTopologyFanout(t *testing.T) {
	s := testSchema(t)
	nw := NewNetwork(s, Options{})
	t.Cleanup(nw.Close)
	if _, err := nw.AddNode("hub"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("spoke%d", i)
		if _, err := nw.AddNode(name); err != nil {
			t.Fatal(err)
		}
		if err := nw.Connect("hub", name); err != nil {
			t.Fatal(err)
		}
	}
	// Only spoke3 is interested in expensive events.
	if _, err := nw.Subscribe("spoke3", predicate.MustParse(s, "exp", "profile(price >= 500)")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Publish("spoke0", event.MustNew(s, 700, 1)); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Messages != 2 {
		t.Errorf("messages = %d, want 2 (spoke0→hub→spoke3)", st.Messages)
	}
}

// TestRandomizedOverlayAgreesWithFlatBroker: overlay delivery matches a
// single flat broker on random workloads — distribution does not change
// semantics.
func TestRandomizedOverlayAgreesWithFlatBroker(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(77))
	nw := lineNetwork(t, true)

	nodes := []string{"A", "B", "C", "D"}
	type reg struct {
		node string
		p    *predicate.Profile
	}
	var regs []reg
	for i := 0; i < 30; i++ {
		lo := float64(rng.Intn(900))
		expr := fmt.Sprintf("profile(price in [%g,%g])", lo, lo+float64(rng.Intn(100)))
		p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("r%d", i)), expr)
		node := nodes[rng.Intn(len(nodes))]
		if _, err := nw.Subscribe(node, p); err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{node, p})
	}
	for trial := 0; trial < 200; trial++ {
		ev := event.MustNew(s, float64(rng.Intn(1001)), float64(rng.Intn(101)))
		origin := nodes[rng.Intn(len(nodes))]
		got, err := nw.Publish(origin, ev)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range regs {
			if r.p.Matches(ev.Vals) {
				want++
			}
		}
		if got != want {
			t.Fatalf("event %v from %s: overlay matched %d, flat %d", ev.Vals, origin, got, want)
		}
	}
}
