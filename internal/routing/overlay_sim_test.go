package routing

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"genas/internal/core"
	"genas/internal/predicate"
	"genas/internal/schema"
)

// sim drives bare Tables, one per broker of a tree, the way a transport
// would: every message a table returns is queued on the connection to the
// neighbour it names and applied there later, in order. That per-connection
// FIFO is what federation guarantees and all the protocol claims to need, so
// the simulator never drops, reorders or duplicates inside a live
// connection. What it does vary is everything else: when each queued message
// is applied, when a connection dies (what it still carried is lost), which
// end notices, and when the link comes back, possibly while one end still
// holds the dead link's routes and is displaced.
//
// Subscription ids are never reused. The protocol keys a link's routes by
// id, so an id that moves to another broker while its old withdrawal is
// still travelling can be withdrawn at third parties by that withdrawal;
// federation documents ids as unique overlay-wide, and the simulator keeps
// to that.
type sim struct {
	t      testing.TB
	s      *schema.Schema
	names  []string
	tables []*Table
	locals []map[predicate.ID]*predicate.Profile
	edges  [][2]int // parent, child
	alive  []bool   // per edge: the connection exists
	// queue holds, per directed pair, the messages sent and not yet applied.
	queue  map[[2]int][]Msg
	nextID int

	// What the schedule exercised (see TestOverlayScheduleOracle).
	cutReconnects    int // link re-made after both ends had dropped it
	displacements    int // link re-made while an end still held routes of the dead one
	coverWithdrawals int // withdrawal of a route that covered another on its link
}

// newSim builds the tree in which node i+1 hangs under parents[i], every
// link up.
func newSim(t testing.TB, parents []int) *sim {
	sm := &sim{t: t, s: testSchema(t), queue: make(map[[2]int][]Msg)}
	for i := 0; i <= len(parents); i++ {
		sm.names = append(sm.names, fmt.Sprintf("n%d", i))
		sm.tables = append(sm.tables, NewTable(sm.s, core.Config{}))
		sm.locals = append(sm.locals, make(map[predicate.ID]*predicate.Profile))
	}
	for i, p := range parents {
		sm.edges = append(sm.edges, [2]int{p, i + 1})
		sm.alive = append(sm.alive, false)
		sm.reconnect(i)
	}
	sm.cutReconnects = 0 // making the tree is no reconnect
	return sm
}

func (sm *sim) index(name string) int {
	for i, n := range sm.names {
		if n == name {
			return i
		}
	}
	sm.t.Fatalf("table names unknown link %q", name)
	return -1
}

func (sm *sim) edge(a, b int) int {
	for e, ends := range sm.edges {
		if ends == [2]int{a, b} || ends == [2]int{b, a} {
			return e
		}
	}
	sm.t.Fatalf("table of n%d names n%d, which is no neighbour", a, b)
	return -1
}

func (sm *sim) attached(a, b int) bool {
	_, ok := sm.tables[a].links[sm.names[b]]
	return ok
}

// post queues what node from's table asked to send. Within one answer no
// two messages for one link concern the same id, so sorting them (map order
// would make a schedule irreproducible) changes nothing the protocol sees.
// A message for a dead connection is lost, as a write to a dead socket is.
func (sm *sim) post(from int, msgs []Msg) {
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].To != msgs[j].To {
			return msgs[i].To < msgs[j].To
		}
		return msgs[i].ID < msgs[j].ID
	})
	for _, m := range msgs {
		to := sm.index(m.To)
		if sm.alive[sm.edge(from, to)] {
			sm.queue[[2]int{from, to}] = append(sm.queue[[2]int{from, to}], m)
		}
	}
}

func (sm *sim) sortedLocals(node int) []*predicate.Profile {
	out := make([]*predicate.Profile, 0, len(sm.locals[node]))
	for _, p := range sm.locals[node] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (sm *sim) subscribe(node int, expr string) predicate.ID {
	id := predicate.ID(fmt.Sprintf("s%d", sm.nextID))
	sm.nextID++
	sm.replace(node, id, expr)
	return id
}

// replace (re-)announces id at node with the profile expr spells.
func (sm *sim) replace(node int, id predicate.ID, expr string) {
	p := predicate.MustParse(sm.s, id, expr)
	sm.locals[node][id] = p
	sm.post(node, sm.tables[node].Announce(Local, p))
}

func (sm *sim) unsubscribe(node int, id predicate.ID) {
	delete(sm.locals[node], id)
	sm.post(node, sm.tables[node].Withdraw(Local, id))
}

// pending lists the directed pairs with queued messages, in a fixed order.
func (sm *sim) pending() [][2]int {
	var out [][2]int
	for pair, q := range sm.queue {
		if len(q) > 0 {
			out = append(out, pair)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1]
	})
	return out
}

// step applies the oldest message of the k-th busy connection.
func (sm *sim) step(k int) bool {
	busy := sm.pending()
	if len(busy) == 0 {
		return false
	}
	pair := busy[k%len(busy)]
	m := sm.queue[pair][0]
	sm.queue[pair] = sm.queue[pair][1:]
	from, to := pair[0], pair[1]
	tb := sm.tables[to]
	if m.Profile != nil {
		sm.post(to, tb.Announce(sm.names[from], m.Profile))
		return true
	}
	if l := tb.links[sm.names[from]]; l != nil && l.routes[m.ID] != nil {
		for id, q := range l.routes {
			if id != m.ID && predicate.Covers(sm.s, l.routes[m.ID], q) && !predicate.Covers(sm.s, q, l.routes[m.ID]) {
				sm.coverWithdrawals++
				break
			}
		}
	}
	sm.post(to, tb.Withdraw(sm.names[from], m.ID))
	return true
}

func (sm *sim) drain() {
	for sm.step(0) {
	}
}

// cut kills edge e's connection, if it lives, with everything in flight, and
// lets the chosen ends notice (drop the link and withdraw its routes from
// their other links). An end that does not notice keeps the dead link's
// routes until a later cut makes it notice or a reconnect displaces them.
func (sm *sim) cut(e int, parentNotices, childNotices bool) {
	a, b := sm.edges[e][0], sm.edges[e][1]
	sm.alive[e] = false
	delete(sm.queue, [2]int{a, b})
	delete(sm.queue, [2]int{b, a})
	if parentNotices {
		sm.post(a, sm.tables[a].Detach(sm.names[b]))
	}
	if childNotices {
		sm.post(b, sm.tables[b].Detach(sm.names[a]))
	}
}

// reconnect makes edge e's connection anew, if it is dead: both ends attach
// (each displacing whatever it still held for the dead link) before either
// replay is applied, as the hello exchange guarantees.
func (sm *sim) reconnect(e int) {
	if sm.alive[e] {
		return
	}
	a, b := sm.edges[e][0], sm.edges[e][1]
	stale := 0
	for _, ends := range [][2]int{{a, b}, {b, a}} {
		if l := sm.tables[ends[0]].links[sm.names[ends[1]]]; l != nil {
			stale += len(l.routes)
		}
	}
	switch {
	case stale > 0:
		sm.displacements++
	case !sm.attached(a, b) && !sm.attached(b, a):
		sm.cutReconnects++
	}
	sm.alive[e] = true
	toB := sm.tables[a].Attach(sm.names[b], sm.sortedLocals(a))
	toA := sm.tables[b].Attach(sm.names[a], sm.sortedLocals(b))
	sm.post(a, toB)
	sm.post(b, toA)
}

// publish carries an event from node through the overlay as the tables
// route it and returns the ids of the subscriptions it reached.
func (sm *sim) publish(node int, vals []float64) []predicate.ID {
	var reached []predicate.ID
	var visit func(node int, from string)
	visit = func(node int, from string) {
		for _, p := range sm.sortedLocals(node) {
			if p.Matches(vals) {
				reached = append(reached, p.ID)
			}
		}
		hops, err := sm.tables[node].Route(vals, from, nil)
		if err != nil {
			sm.t.Fatalf("route at n%d: %v", node, err)
		}
		for _, name := range hops {
			if next := sm.index(name); sm.alive[sm.edge(node, next)] {
				visit(next, sm.names[node])
			}
		}
	}
	visit(node, Local)
	sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
	return reached
}

// oracle is the flat broker: every live subscription, wherever it lives,
// matched by brute force.
func (sm *sim) oracle(vals []float64) []predicate.ID {
	var want []predicate.ID
	for node := range sm.locals {
		for id, p := range sm.locals[node] {
			if p.Matches(vals) {
				want = append(want, id)
			}
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func (sm *sim) quiescent() bool {
	for _, up := range sm.alive {
		if !up {
			return false
		}
	}
	return len(sm.pending()) == 0
}

// checkPublish compares one publish with the oracle: exactly at quiescence,
// and as a subset while routes are still travelling or links are down (an
// event may then miss subscribers, but is never delivered twice or wrongly).
func (sm *sim) checkPublish(node int, vals []float64) {
	sm.t.Helper()
	exact := sm.quiescent()
	got, want := sm.publish(node, vals), sm.oracle(vals)
	if exact && fmt.Sprint(got) != fmt.Sprint(want) {
		sm.t.Fatalf("event %v at n%d reached %v, flat oracle says %v", vals, node, got, want)
	}
	i := 0
	for _, id := range got {
		for i < len(want) && want[i] < id {
			i++
		}
		if i == len(want) || want[i] != id {
			sm.t.Fatalf("event %v at n%d reached %v, not within the oracle's %v", vals, node, got, want)
		}
		i++
	}
}

// beyond collects the subscriptions living on b's side of edge a—b.
func (sm *sim) beyond(a, b int, into map[predicate.ID]*predicate.Profile) {
	for id, p := range sm.locals[b] {
		into[id] = p
	}
	for _, e := range sm.edges {
		for _, ends := range [][2]int{e, {e[1], e[0]}} {
			if ends[0] == b && ends[1] != a {
				sm.beyond(b, ends[1], into)
			}
		}
	}
}

// settle brings every link up, applies everything queued, and checks the
// converged overlay: every link holds exactly the subscriptions living
// beyond it, in their current spelling; RouteCount is that set pruned by the
// quadratic covering oracle; and probe events from every broker reach
// exactly the flat oracle's subscribers.
func (sm *sim) settle() {
	sm.t.Helper()
	for e := range sm.edges {
		sm.reconnect(e)
	}
	sm.drain()
	for _, e := range sm.edges {
		for _, ends := range [][2]int{e, {e[1], e[0]}} {
			a, b := ends[0], ends[1]
			l := sm.tables[a].links[sm.names[b]]
			want := make(map[predicate.ID]*predicate.Profile)
			sm.beyond(a, b, want)
			if len(l.routes) != len(want) {
				sm.t.Fatalf("n%d→n%d holds %d routes, %d subscriptions live beyond it", a, b, len(l.routes), len(want))
			}
			uncovered := 0
			for id, p := range want {
				r, ok := l.routes[id]
				if !ok || r.Render(sm.s) != p.Render(sm.s) {
					sm.t.Fatalf("n%d→n%d: route %s is %v, the subscription is %s", a, b, id, r, p.Render(sm.s))
				}
				if !CoveredByOther(sm.s, p, want) {
					uncovered++
				}
			}
			if rc := sm.tables[a].RouteCount(sm.names[b]); rc != uncovered {
				sm.t.Fatalf("n%d→n%d RouteCount = %d, the covering oracle keeps %d of %d", a, b, rc, uncovered, len(want))
			}
		}
	}
	for node := range sm.names {
		for _, price := range []float64{0, 150, 450, 500, 550, 950} {
			for _, volume := range []float64{0, 15, 60, 90} {
				sm.checkPublish(node, []float64{price, volume})
			}
		}
	}
}

// simProfiles nest, so covering has something to prune and to re-arm.
var simProfiles = []string{
	"profile(price >= 100)",
	"profile(price >= 500)",
	"profile(price >= 900)",
	"profile(price in [400,600])",
	"profile(price in [450,550])",
	"profile(price in [450,550]; volume >= 50)",
	"profile(volume >= 50)",
	"profile(volume >= 80)",
	"profile(price <= 300)",
	"profile(price in [100,200]; volume in [10,20])",
	"profile(price >= 500)", // twice: equivalent profiles under different ids
}

// runSchedule decodes a byte script into a tree of 3–6 brokers and a
// schedule over it, runs it, and settles. Every script is valid; bytes past
// the end read as zero.
func runSchedule(t testing.TB, script []byte) *sim {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	// head's low bit once chose covering, which every link now does.
	head := next()
	parents := make([]int, 2+head>>1%4)
	for i := range parents {
		parents[i] = next() % (i + 1)
	}
	sm := newSim(t, parents)
	n, edges := len(sm.names), len(sm.edges)
	pick := func(node int) (predicate.ID, bool) {
		ids := sm.sortedLocals(node)
		if len(ids) == 0 {
			return "", false
		}
		return ids[next()%len(ids)].ID, true
	}
	for len(script) > 0 {
		switch op := next() % 16; op {
		case 0, 1, 2, 3:
			sm.subscribe(next()%n, simProfiles[next()%len(simProfiles)])
		case 4, 5:
			node := next() % n
			if id, ok := pick(node); ok {
				sm.unsubscribe(node, id)
			}
		case 6:
			node := next() % n
			if id, ok := pick(node); ok {
				sm.replace(node, id, simProfiles[next()%len(simProfiles)])
			}
		case 7, 8, 9, 10:
			sm.step(next())
		case 11:
			for i := 0; i < 8; i++ {
				sm.step(next())
			}
		case 12:
			who := next()
			sm.cut(next()%edges, who&1 == 0, who&2 == 0)
		case 13:
			sm.reconnect(next() % edges)
		case 14:
			// Every end still holding a dead link notices.
			for e, up := range sm.alive {
				if !up {
					sm.cut(e, true, true)
				}
			}
		case 15:
			sm.checkPublish(next()%n, []float64{float64(next() % 21 * 50), float64(next() % 11 * 10)})
		}
	}
	sm.settle()
	return sm
}

// FuzzOverlaySchedule searches for a schedule after which the overlay does
// not converge to the flat oracle.
func FuzzOverlaySchedule(f *testing.F) {
	f.Add([]byte{})
	// Chain n0—n1—n2: a coverer and a profile it covers at n2,
	// eight deliveries, the coverer withdrawn, one more delivery.
	f.Add([]byte{1, 0, 1, 0, 2, 0, 0, 2, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0, 7, 0})
	// Star of five around n0: two subscriptions at n1 delivered,
	// n0—n1 dies and only n1 notices, n1 drops a subscription and n2 gains
	// one behind the dead link, the link comes back into n0's stale routes,
	// and an event is published while the replays still travel.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 12, 1, 0, 4, 1, 0, 0, 2, 6, 13, 0, 15, 2, 10, 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		script := make([]byte, 40+rng.Intn(200))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("longer schedules only repeat shorter ones")
		}
		runSchedule(t, script)
	})
}

// TestOverlayScheduleOracle runs seeded random schedules and asserts that
// between them they exercised what the simulator exists for, so a change to
// the script decoding cannot silently stop generating it.
func TestOverlayScheduleOracle(t *testing.T) {
	var cutReconnects, displacements, coverWithdrawals int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 60+rng.Intn(240))
		rng.Read(script)
		sm := runSchedule(t, script)
		if sm.cutReconnects > 0 {
			cutReconnects++
		}
		if sm.displacements > 0 {
			displacements++
		}
		if sm.coverWithdrawals > 0 {
			coverWithdrawals++
		}
	}
	t.Logf("schedules with a cut-and-reconnect: %d, a displacement: %d, a withdrawn coverer: %d",
		cutReconnects, displacements, coverWithdrawals)
	if cutReconnects == 0 || displacements == 0 || coverWithdrawals == 0 {
		t.Error("the seeded schedules no longer cover all three")
	}
}
