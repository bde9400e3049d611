package routing

import (
	"fmt"
	"sort"
	"testing"

	"genas/internal/core"
	"genas/internal/event"
	"genas/internal/predicate"
)

// render spells a message list so tests can compare sets: "+id>link" is an
// announcement, "-id>link" a withdrawal. The order between links is the
// table's map order and means nothing, so the list is sorted.
func render(msgs []Msg) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		sign := "-"
		if m.Profile != nil {
			sign = "+"
		}
		out[i] = fmt.Sprintf("%s%s>%s", sign, m.ID, m.To)
	}
	sort.Strings(out)
	return out
}

func wantMsgs(t *testing.T, what string, got []Msg, want ...string) {
	t.Helper()
	sort.Strings(want)
	if g := render(got); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("%s: messages %v, want %v", what, g, want)
	}
}

// starTable is a table with links a, b and c, nothing routed yet.
func starTable(t *testing.T, covering bool) *Table {
	t.Helper()
	tb := NewTable(testSchema(t), core.Config{}, covering)
	for _, name := range []string{"a", "b", "c"} {
		wantMsgs(t, "attach "+name, tb.Attach(name, nil))
	}
	return tb
}

func TestTableAnnounceUnchangedAndReplaced(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, true)
	p := predicate.MustParse(s, "x", "profile(price >= 500)")
	wantMsgs(t, "first announcement", tb.Announce("a", p), "+x>b", "+x>c")

	// A replay announces what is already installed: parsed afresh, so equal
	// only by content. It must cost nothing and tell nobody.
	again := predicate.MustParse(s, "x", "profile(price >= 500)")
	wantMsgs(t, "unchanged re-announcement", tb.Announce("a", again))

	// The same id with another predicate replaces the route and travels on,
	// once per other link.
	changed := predicate.MustParse(s, "x", "profile(price >= 900)")
	wantMsgs(t, "changed re-announcement", tb.Announce("a", changed), "+x>b", "+x>c")
	if rc := tb.RouteCount("a"); rc != 1 {
		t.Errorf("routes toward a = %d, want 1 (replaced, not duplicated)", rc)
	}
	if hops, _ := tb.Route([]float64{700, 0}, "b", nil); len(hops) != 0 {
		t.Errorf("event below the replaced bound crosses %v", hops)
	}
	if hops, _ := tb.Route([]float64{950, 0}, "b", nil); fmt.Sprint(hops) != "[a]" {
		t.Errorf("event above the replaced bound crosses %v, want [a]", hops)
	}

	// A changed priority alone is a change too.
	prio := predicate.MustParse(s, "x", "profile(price >= 900)")
	prio.Priority = 3
	wantMsgs(t, "priority change", tb.Announce("a", prio), "+x>b", "+x>c")

	wantMsgs(t, "announcement over an unknown link", tb.Announce("z", p))
	wantMsgs(t, "withdrawal of an unknown id", tb.Withdraw("a", "nope"))
	wantMsgs(t, "withdrawal", tb.Withdraw("a", "x"), "-x>b", "-x>c")
	wantMsgs(t, "second withdrawal", tb.Withdraw("a", "x"))

	// The owner's own subscriptions are not stored, only told to every link.
	wantMsgs(t, "local announcement", tb.Announce(Local, p), "+x>a", "+x>b", "+x>c")
	wantMsgs(t, "local withdrawal", tb.Withdraw(Local, "x"), "-x>a", "-x>b", "-x>c")
}

func TestTableDetachWithdrawsThatLinksRoutes(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, false)
	tb.Announce("a", predicate.MustParse(s, "a1", "profile(price >= 100)"))
	tb.Announce("a", predicate.MustParse(s, "a2", "profile(price >= 200)"))
	tb.Announce("b", predicate.MustParse(s, "b1", "profile(price >= 300)"))

	wantMsgs(t, "detach a", tb.Detach("a"), "-a1>b", "-a1>c", "-a2>b", "-a2>c")
	wantMsgs(t, "detach a again", tb.Detach("a"))
	if rc := tb.RouteCount("a"); rc != 0 {
		t.Errorf("routes toward the detached link = %d", rc)
	}
	if rc := tb.RouteCount("b"); rc != 1 {
		t.Errorf("routes toward b = %d, want 1 (untouched)", rc)
	}
}

func TestTableAttachReplaysAndDisplaces(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, false)
	local := predicate.MustParse(s, "mine", "profile(volume >= 50)")
	tb.Announce("a", predicate.MustParse(s, "a1", "profile(price >= 100)"))
	tb.Announce("b", predicate.MustParse(s, "b1", "profile(price >= 300)"))

	// A new link learns the owner's subscriptions and every other link's
	// routes.
	wantMsgs(t, "attach d", tb.Attach("d", []*predicate.Profile{local}), "+mine>d", "+a1>d", "+b1>d")

	// Attach under a live name: the stale routes of the displaced link are
	// withdrawn from the others, the replay leaves them out, and in the
	// returned order every withdrawal precedes the replay.
	msgs := tb.Attach("a", []*predicate.Profile{local})
	wantMsgs(t, "displacing attach", msgs, "-a1>b", "-a1>c", "-a1>d", "+mine>a", "+b1>a")
	for i, m := range msgs {
		if (m.Profile == nil) != (i < 3) {
			t.Fatalf("message %d of %v: withdrawals must come first", i, render(msgs))
		}
	}
	if rc := tb.RouteCount("a"); rc != 0 {
		t.Errorf("routes toward the re-attached link = %d, want 0 until its peer replays", rc)
	}
}

func TestTableWithdrawRearmsCoveredRoutes(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, true)
	tb.Announce("a", predicate.MustParse(s, "broad", "profile(price >= 100)"))
	tb.Announce("a", predicate.MustParse(s, "narrow", "profile(price >= 500)"))
	if rc := tb.RouteCount("a"); rc != 1 {
		t.Fatalf("routes toward a = %d, want 1 (narrow rides under broad)", rc)
	}
	wantMsgs(t, "withdraw the coverer", tb.Withdraw("a", "broad"), "-broad>b", "-broad>c")
	if rc := tb.RouteCount("a"); rc != 1 {
		t.Errorf("routes toward a = %d, want 1 (narrow re-armed)", rc)
	}
	if hops, _ := tb.Route([]float64{700, 0}, "b", nil); fmt.Sprint(hops) != "[a]" {
		t.Errorf("event for the re-armed route crosses %v, want [a]", hops)
	}
	if hops, _ := tb.Route([]float64{300, 0}, "b", nil); len(hops) != 0 {
		t.Errorf("event only the withdrawn coverer wanted crosses %v", hops)
	}
}

// TestTableCountingRule pins the one rule both overlays now share: per
// event and per candidate link, an accepted crossing is one forward, and a
// link without routes and a link whose routes reject are one filtered
// crossing each. The link the event came in on is no candidate.
func TestTableCountingRule(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, false)
	tb.Announce("a", predicate.MustParse(s, "hi", "profile(price >= 500)"))
	tb.Announce("b", predicate.MustParse(s, "lo", "profile(price <= 100)"))
	// c stays empty.
	for _, c := range []struct {
		price               float64
		from                string
		hops                string
		forwarded, filtered uint64
	}{
		{700, Local, "[a]", 1, 2}, // a accepts, b rejects, c is empty
		{700, "a", "[]", 1, 4},    // a is where it came from; b and c filter
		{50, "c", "[b]", 2, 5},    // b accepts, a rejects
		{300, Local, "[]", 2, 8},  // nobody wants it
	} {
		hops, err := tb.Route([]float64{c.price, 0}, c.from, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(hops) != c.hops {
			t.Errorf("price %v from %q crosses %v, want %s", c.price, c.from, hops, c.hops)
		}
		if fwd, flt := tb.Counters(); fwd != c.forwarded || flt != c.filtered {
			t.Errorf("after price %v from %q: forwarded %d filtered %d, want %d and %d",
				c.price, c.from, fwd, flt, c.forwarded, c.filtered)
		}
	}
	// dst is reused, not replaced.
	buf := make([]string, 0, 4)
	hops, _ := tb.Route([]float64{700, 0}, Local, buf)
	if len(hops) != 1 || &hops[0] != &buf[:1][0] {
		t.Error("Route did not append into the buffer it was given")
	}
}

// TestConnectAfterSubscribeReplaysRoutes: a link made after the two sides
// subscribed carries the same routes as one made before, in both directions
// and for transit routes. Before Connect replayed, B's link toward A stayed
// empty and an event published at B or C never reached A's subscriber.
func TestConnectAfterSubscribeReplaysRoutes(t *testing.T) {
	s := testSchema(t)
	for _, covering := range []bool{false, true} {
		t.Run(fmt.Sprintf("covering=%v", covering), func(t *testing.T) {
			nw := NewNetwork(s, Options{Covering: covering})
			t.Cleanup(nw.Close)
			for _, n := range []string{"A", "B", "C"} {
				if _, err := nw.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			if err := nw.Connect("B", "C"); err != nil {
				t.Fatal(err)
			}
			subscribe := func(node, id, expr string) {
				t.Helper()
				if _, err := nw.Subscribe(node, predicate.MustParse(s, predicate.ID(id), expr)); err != nil {
					t.Fatal(err)
				}
			}
			subscribe("A", "a-broad", "profile(price >= 100)")
			subscribe("A", "a-narrow", "profile(price >= 500)")
			subscribe("C", "c-low", "profile(price <= 50)")
			if err := nw.Connect("A", "B"); err != nil {
				t.Fatal(err)
			}

			toA := 2
			if covering {
				toA = 1 // a-narrow rides under a-broad
			}
			for _, c := range []struct {
				node, via string
				want      int
			}{
				{"B", "A", toA}, // A's own subscriptions
				{"C", "B", toA}, // ... carried on as transit routes
				{"A", "B", 1},   // C's subscription, a transit route at B, replayed to A
				{"B", "C", 1},
			} {
				n, _ := nw.Node(c.node)
				if rc := n.RouteCount(c.via); rc != c.want {
					t.Errorf("%s→%s routes = %d, want %d", c.node, c.via, rc, c.want)
				}
			}
			for _, c := range []struct {
				origin string
				price  float64
				want   int
			}{
				{"B", 700, 2}, {"C", 700, 2}, {"C", 200, 1}, {"A", 20, 1}, {"B", 20, 1}, {"C", 70, 0},
			} {
				got, err := nw.Publish(c.origin, event.MustNew(s, c.price, 10))
				if err != nil {
					t.Fatal(err)
				}
				if got != c.want {
					t.Errorf("price %v published at %s matched %d, want %d", c.price, c.origin, got, c.want)
				}
			}
		})
	}
}

// TestNetworkAndTableChainCountAlike runs one script through a three-node
// Network and through three bare Tables chained by the schedule simulator
// (messages delivered at once, as Network does) and compares the overlay
// counters: with the counting rule in the Table, the two transports of it
// cannot disagree on the same topology and event stream.
func TestNetworkAndTableChainCountAlike(t *testing.T) {
	s := testSchema(t)
	for _, covering := range []bool{false, true} {
		nw := NewNetwork(s, Options{Covering: covering})
		t.Cleanup(nw.Close)
		sm := newSim(t, covering, []int{0, 1}) // 0—1—2
		for _, name := range sm.names {
			if _, err := nw.AddNode(name); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range sm.edges {
			if err := nw.Connect(sm.names[e[0]], sm.names[e[1]]); err != nil {
				t.Fatal(err)
			}
		}
		subscribe := func(node int, expr string) predicate.ID {
			id := sm.subscribe(node, expr)
			sm.drain()
			if _, err := nw.Subscribe(sm.names[node], predicate.MustParse(s, id, expr)); err != nil {
				t.Fatal(err)
			}
			return id
		}
		publish := func(node int, price, volume float64) {
			want := len(sm.publish(node, []float64{price, volume}))
			got, err := nw.Publish(sm.names[node], event.MustNew(s, price, volume))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("covering=%v: price %v at node %d matched %d in the Network, %d over bare Tables", covering, price, node, got, want)
			}
		}
		broad := subscribe(2, "profile(price >= 100)")
		subscribe(2, "profile(price >= 500)")
		subscribe(0, "profile(volume >= 50)")
		for _, price := range []float64{0, 300, 700} {
			for node := 0; node < 3; node++ {
				publish(node, price, 10)
				publish(node, price, 90)
			}
		}
		sm.unsubscribe(2, broad)
		sm.drain()
		if err := nw.Unsubscribe(sm.names[2], broad); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 3; node++ {
			publish(node, 300, 10)
			publish(node, 700, 10)
		}

		var forwarded, filtered uint64
		for _, tb := range sm.tables {
			fwd, flt := tb.Counters()
			forwarded += fwd
			filtered += flt
		}
		st := nw.Stats()
		if st.Messages != forwarded || st.Filtered != filtered {
			t.Errorf("covering=%v: Network forwarded %d filtered %d, bare Tables %d and %d",
				covering, st.Messages, st.Filtered, forwarded, filtered)
		}
		if forwarded == 0 || filtered == 0 {
			t.Errorf("covering=%v: script exercised forwarded=%d filtered=%d, want both", covering, forwarded, filtered)
		}
	}
}

// TestRouteDoesNotAllocate pins the link filter's yes/no probe: deciding
// which links an event crosses builds no id list, whether a link accepts the
// event or rejects it, and also on a patched automaton (incremental inserts
// park profiles in extra sets, tombstones need the liveness test).
func TestRouteDoesNotAllocate(t *testing.T) {
	s := testSchema(t)
	tb := starTable(t, true)
	tb.Announce("a", predicate.MustParse(s, "hi", "profile(price >= 500)"))
	var buf [8]string
	route := func(price float64, want int) {
		t.Helper()
		vals := []float64{price, 10}
		if dst, err := tb.Route(vals, Local, buf[:0]); err != nil || len(dst) != want {
			t.Fatalf("price %v: routed to %v (%v), want %d links", price, dst, err, want)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = tb.Route(vals, Local, buf[:0]) }); n != 0 {
			t.Errorf("price %v: Route allocates %v times per event", price, n)
		}
	}
	route(900, 1) // accepted by a
	route(100, 0) // rejected by a; b and c hold no routes
	tb.Announce("a", predicate.MustParse(s, "any", "profile(volume >= 0)"))
	tb.Announce("a", predicate.MustParse(s, "lo", "profile(price <= 50)"))
	tb.Withdraw("a", "hi")
	route(900, 1)
	tb.Withdraw("a", "any")
	route(900, 0)
	route(20, 1)
}
