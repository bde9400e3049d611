package federation_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/federation"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/wire"
)

const rpcTimeout = 5 * time.Second

// daemon is one in-process genasd twin: broker + wire server + federation
// overlay on a loopback listener.
type daemon struct {
	t    *testing.T
	brk  *broker.Broker
	srv  *wire.Server
	fed  *federation.Fed
	addr string
	stop func()
}

const testSpec = "temperature=numeric[-30,50]; humidity=numeric[0,100]"

// startDaemon boots a federated daemon and dials the given peers
// synchronously (they must already be up).
func startDaemon(t *testing.T, node, spec string, peers ...string) *daemon {
	t.Helper()
	sch, err := schema.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(brk, federation.Options{
		Node:     node,
		Covering: true,
		RetryMin: 20 * time.Millisecond,
		RetryMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(brk, nil)
	srv.SetOverlay(fed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ctx, ln); err != nil {
			t.Errorf("serve %s: %v", node, err)
		}
	}()
	d := &daemon{t: t, brk: brk, srv: srv, fed: fed, addr: ln.Addr().String()}
	d.stop = func() {
		fed.Close()
		cancel()
		srv.Close()
		wg.Wait()
		brk.Close()
	}
	t.Cleanup(d.stop)
	for _, p := range peers {
		if err := fed.Dial(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	// Generous: the slow path (1500-route replay, O(n²) covering work)
	// shares one core with every other -race test package in CI; a passing
	// wait returns as soon as the condition holds regardless.
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChainDelivery: three daemons in a chain A—B—C. A profile subscribed at
// C matches an event published at A three processes away; a non-matching
// publish is rejected at A's link (never crossing a wire), and an event
// matching only B's local subscriber is early-rejected at B's link to C.
func TestChainDelivery(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)
	c := startDaemon(t, "C", testSpec, b.addr)

	subC := dial(t, c.addr)
	if err := subC.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	// The route must propagate C → B → A.
	waitFor(t, "route at A", func() bool { return a.fed.RouteCount("B") == 1 })
	waitFor(t, "route at B", func() bool { return b.fed.RouteCount("C") == 1 })

	pubA := dial(t, a.addr)
	if _, err := pubA.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-subC.Notifications():
		if n.Profile != "hot" || n.Event["temperature"] != 41 {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification across two wire hops")
	}
	_, _, forwardedA, _ := a.fed.Stats()
	if forwardedA != 1 {
		t.Errorf("A forwarded %d, want 1", forwardedA)
	}

	// A non-matching event is rejected at A's link: it never crosses a wire.
	if _, err := pubA.Publish(map[string]float64{"temperature": -20, "humidity": 10}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "early rejection at A", func() bool {
		_, _, fwd, filtered := a.fed.Stats()
		return filtered >= 1 && fwd == 1
	})

	// An event matching only B's local subscriber crosses A→B but is
	// early-rejected at B's link to C: filtering happens at the link, not
	// the endpoint.
	subB := dial(t, b.addr)
	if err := subB.Subscribe("humid", "profile(humidity >= 50)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "humid route at A", func() bool { return a.fed.RouteCount("B") == 2 })
	if _, err := pubA.Publish(map[string]float64{"temperature": 20, "humidity": 80}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "early rejection at B", func() bool {
		_, _, _, filtered := b.fed.Stats()
		return filtered >= 1
	})
	select {
	case n := <-subB.Notifications():
		if n.Profile != "humid" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's local subscriber starved")
	}
	// C must never see the humid event.
	select {
	case n := <-subC.Notifications():
		t.Fatalf("C notified for an event it never subscribed to: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}

	// Wire-level stats carry the federation counters.
	st, err := pubA.Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "A" || st.Peers != 1 || st.Forwarded < 1 || st.Filtered < 1 {
		t.Errorf("stats payload = %+v", st)
	}
}

// TestCoveringPrunesPeerRoutes: covering pruning applies per peer link — a
// broad profile absorbs a narrow one in every upstream link engine, while
// withdrawal of the broad profile re-arms the narrow route.
func TestCoveringPrunesPeerRoutes(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)

	c := dial(t, b.addr)
	if err := c.Subscribe("narrow", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("broad", "profile(temperature >= 10)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	// Covering prunes narrow from A's link engine toward B.
	waitFor(t, "covered routes at A", func() bool { return a.fed.RouteCount("B") == 1 })
	// Withdrawing broad re-arms narrow.
	if err := c.Unsubscribe("broad", rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "narrow re-armed at A", func() bool { return a.fed.RouteCount("B") == 1 })
	pub := dial(t, a.addr)
	if _, err := pub.Publish(map[string]float64{"temperature": 40, "humidity": 5}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		if n.Profile != "narrow" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("narrow starved after its covering profile was withdrawn")
	}
}

// TestDisconnectWithdrawsRoutes: when a client connection drops, its
// subscriptions are withdrawn from the whole overlay.
func TestDisconnectWithdrawsRoutes(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)

	c := dial(t, b.addr)
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route at A", func() bool { return a.fed.RouteCount("B") == 1 })
	_ = c.Close()
	waitFor(t, "route withdrawn at A", func() bool { return a.fed.RouteCount("B") == 0 })
}

// TestReconnectReplaysRoutes: when the dialed peer dies and comes back on
// the same address, the link re-forms and the route set is replayed, so
// delivery resumes without re-subscribing.
func TestReconnectReplaysRoutes(t *testing.T) {
	// Daemon A is restartable: we manage its lifecycle by hand.
	sch, err := schema.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	startA := func(addr string) (string, func()) {
		brk, err := broker.New(sch, broker.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fed, err := federation.New(brk, federation.Options{Node: "A", Covering: true})
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(brk, nil)
		srv.SetOverlay(fed)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(ctx, ln)
		}()
		return ln.Addr().String(), func() {
			fed.Close()
			cancel()
			srv.Close()
			wg.Wait()
			brk.Close()
		}
	}

	addrA, stopA := startA("127.0.0.1:0")
	b := startDaemon(t, "B", testSpec)
	b.fed.DialRetry(addrA)

	c := dial(t, b.addr)
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial link", func() bool { return b.fed.RouteCount("A") == 0 && len(b.fed.Peers()) == 1 })

	// Kill A; B's supervisor must notice and keep retrying.
	stopA()
	waitFor(t, "link down at B", func() bool { return len(b.fed.Peers()) == 0 })

	// Restart A on the same address: the link re-forms and B replays the
	// subscription route, so a publish at A reaches C's subscriber again.
	if _, stop2 := startA(addrA); true {
		defer stop2()
	}
	waitFor(t, "link re-formed", func() bool { return len(b.fed.Peers()) == 1 })

	pub := dial(t, addrA)
	// The replayed route may still be in flight; publish until delivered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pub.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-c.Notifications():
			if n.Profile != "hot" {
				t.Fatalf("notification = %+v", n)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("replayed route never delivered after reconnect")
		}
	}
}

// TestHandshakeRejections: schema mismatch, self-peering, non-federated
// daemons and a peer that hangs up mid-handshake all fail the dial with a
// useful error.
func TestHandshakeRejections(t *testing.T) {
	a := startDaemon(t, "A", testSpec)

	// Schema mismatch.
	schB, err := schema.ParseSpec("pressure=numeric[0,2000]")
	if err != nil {
		t.Fatal(err)
	}
	brkB, err := broker.New(schB, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brkB.Close)
	fedB, err := federation.New(brkB, federation.Options{Node: "B"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fedB.Close)
	if err := fedB.Dial(a.addr); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch dial err = %v", err)
	}

	// Self-peering (same node name).
	brkA2, err := broker.New(a.brk.Schema(), broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brkA2.Close)
	fedA2, err := federation.New(brkA2, federation.Options{Node: "A"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fedA2.Close)
	if err := fedA2.Dial(a.addr); err == nil || !strings.Contains(err.Error(), "own node name") {
		t.Errorf("self-peer dial err = %v", err)
	}

	// A non-federated daemon rejects peer hellos.
	sch, _ := schema.ParseSpec(testSpec)
	brkP, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brkP.Close)
	srvP := wire.NewServer(brkP, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = srvP.Serve(ctx, ln) }()
	t.Cleanup(srvP.Close)
	fedC, err := federation.New(brkP, federation.Options{Node: "C"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fedC.Close)
	if err := fedC.Dial(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "not federated") {
		t.Errorf("non-federated dial err = %v", err)
	}

	// A peer that hangs up without answering the hello.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mute.Close() })
	go func() {
		if conn, err := mute.Accept(); err == nil {
			_ = conn.Close()
		}
	}()
	if err := fedC.Dial(mute.Addr().String()); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Errorf("hung-up handshake dial err = %v", err)
	}

	// New without a node name fails.
	if _, err := federation.New(brkP, federation.Options{}); err == nil {
		t.Error("missing node name must fail")
	}
}

// TestPeerFrameErrors: a peer link survives malformed frames — bad profile
// expressions, invalid forwarded events, payloads that do not decode and
// frames that are not peer frames are logged and skipped, and subsequent
// valid frames still apply.
func TestPeerFrameErrors(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	if got := a.fed.Node(); got != "A" {
		t.Errorf("Node() = %q", got)
	}

	conn, err := net.Dial("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	write := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	// Manual handshake as peer "Z".
	write(peerHello("Z", a.brk.Schema()))
	waitFor(t, "link up", func() bool { return len(a.fed.Peers()) == 1 })

	// Garbage of every kind...
	write(wire.AppendRouteAddFrame(nil, "bad", "profile(bogus >= 0)", 0))
	write(wire.AppendForwardFrame(nil, []float64{9999}))
	write(wire.AppendRouteWithdrawFrame(nil, "never-added"))
	write([]byte{0, 0, 0, 3, wire.FrameForward, 1, 2}) // a payload that does not decode
	write([]byte{0, 0, 0, 1, 0x7F})                    // not a peer frame
	// ...must not kill the link: a valid route still lands.
	write(wire.AppendRouteAddFrame(nil, "ok", "profile(temperature >= 35)", 1))
	waitFor(t, "valid route after garbage", func() bool { return a.fed.RouteCount("Z") == 1 })

	// A valid forward still delivers to A's local broker.
	sub := dial(t, a.addr)
	if err := sub.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	write(wire.AppendForwardFrame(nil, []float64{41, 10}))
	select {
	case n := <-sub.Notifications():
		if n.Profile != "hot" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forward after garbage frames never delivered")
	}

	// Dropping the peer withdraws its routes.
	_ = conn.Close()
	waitFor(t, "link torn down", func() bool { return len(a.fed.Peers()) == 0 && a.fed.RouteCount("Z") == 0 })
}

// TestDisplacedLinkWithdrawsStaleRoutes: when a peer reconnects before its
// old connection's death is detected, the displaced link's routes must be
// withdrawn from the rest of the overlay — the peer's replay re-adds only
// what it still has, so a subscription dropped while the link was dark does
// not leave stale routes at third-party brokers.
func TestDisplacedLinkWithdrawsStaleRoutes(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)

	connect := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", b.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if _, err := conn.Write(peerHello("Z", b.brk.Schema())); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	old := connect()
	if _, err := old.Write(wire.AppendRouteAddFrame(nil, "hot", "profile(temperature >= 35)", 0)); err != nil {
		t.Fatal(err)
	}
	// Z's route propagates through B to A.
	waitFor(t, "route at A", func() bool { return a.fed.RouteCount("B") == 1 })

	// Z reconnects (the old conn still looks alive to B) without the route.
	_ = connect()
	waitFor(t, "stale route withdrawn at A", func() bool { return a.fed.RouteCount("B") == 0 })
	waitFor(t, "stale route withdrawn at B", func() bool { return b.fed.RouteCount("Z") == 0 })
}

// TestFrameOnDisplacedLinkIsIgnored: a route message that arrives on a link
// a reconnect has displaced must not touch its successor's routes. Over TCP
// the displaced conn is closed, so only a frame already buffered could still
// arrive; here B reads each link's frames from a pipe the test feeds, which
// makes the late frame certain.
func TestFrameOnDisplacedLinkIsIgnored(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)
	hello := wire.Request{Op: wire.OpHello, Node: "Z", Schema: b.brk.Schema().String(), Proto: int(wire.ProtoV2)}
	// link runs B's end of a peer link to Z: inbound frames are whatever is
	// written to the returned pipe, outbound ones are discarded.
	link := func() (*io.PipeWriter, <-chan struct{}) {
		near, far := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, far) }()
		pr, pw := io.Pipe()
		t.Cleanup(func() { _ = pw.Close() })
		done := make(chan struct{})
		go func() {
			defer close(done)
			b.fed.HandlePeer(near, bufio.NewReader(pr), hello)
		}()
		return pw, done
	}
	routeAdd := func(w io.Writer, id string) {
		t.Helper()
		if _, err := w.Write(wire.AppendRouteAddFrame(nil, id, "profile(temperature >= 35)", 0)); err != nil {
			t.Fatal(err)
		}
	}

	old, oldDone := link()
	routeAdd(old, "hot")
	waitFor(t, "route at A", func() bool { return a.fed.RouteCount("B") == 1 })
	cur, _ := link() // Z reconnects without the route
	waitFor(t, "stale route withdrawn at A", func() bool { return a.fed.RouteCount("B") == 0 })

	routeAdd(old, "late")
	_ = old.Close()
	<-oldDone // the displaced reader has handled "late" and its own teardown
	if n := b.fed.RouteCount("Z"); n != 0 {
		t.Fatalf("a frame on the displaced link installed %d route(s) on its successor", n)
	}
	routeAdd(cur, "live")
	waitFor(t, "successor link still routes", func() bool { return a.fed.RouteCount("B") == 1 })
}

// TestCloseDuringTraffic: closing a federated broker while publishes and
// link drops race it must not panic (regression: Close used to leave links
// in the peer maps with closed queues, so a concurrent forward or withdraw
// hit a closed channel).
func TestCloseDuringTraffic(t *testing.T) {
	for i := 0; i < 5; i++ {
		a := startDaemon(t, "A", testSpec)
		b := startDaemon(t, "B", testSpec, a.addr)
		c := startDaemon(t, "C", testSpec, b.addr)

		cli := dial(t, c.addr)
		if err := cli.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "route at A", func() bool { return a.fed.RouteCount("B") == 1 })

		var wg sync.WaitGroup
		stop := make(chan struct{})
		pub := dial(t, a.addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pub.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(i) * 5 * time.Millisecond)
		// Close B mid-flood: its two links die while A keeps forwarding.
		b.fed.Close()
		close(stop)
		wg.Wait()
	}
}

// TestHelloAfterSubscribeRejected: a client connection that already holds
// subscriptions (and therefore a notification writer) cannot turn itself
// into a peer link: a hello after the first line is refused.
func TestHelloAfterSubscribeRejected(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	conn, err := net.Dial("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(conn)
	hello, _ := wire.EncodeLine(wire.Request{Op: wire.OpHello, Proto: int(wire.ProtoV2)})
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadLine(rd); err != nil { // the schema
		t.Fatal(err)
	}
	// Control frames, by hand: [u32 length][0x03][u32 cid][JSON request].
	control := func(cid uint32, req wire.Request) []byte {
		js, _ := json.Marshal(req)
		b := binary.BigEndian.AppendUint32(nil, uint32(5+len(js)))
		b = binary.BigEndian.AppendUint32(append(b, 0x03), cid)
		return append(b, js...)
	}
	sub := control(1, wire.Request{Op: wire.OpSubscribe, ID: "hot", Profile: "profile(temperature >= 35)"})
	peer := control(2, wire.Request{Op: wire.OpHello, Node: "Z", Schema: a.brk.Schema().String(), Proto: int(wire.ProtoV2)})
	if _, err := conn.Write(append(sub, peer...)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var sawReject bool
	for !sawReject {
		_, payload, err := wire.ReadFrame(rd, &buf)
		if err != nil {
			t.Fatalf("hello after subscribe was not rejected: %v", err)
		}
		sawReject = strings.Contains(string(payload), "first line")
	}
	if n := len(a.fed.Peers()); n != 0 {
		t.Errorf("rejected hello still created %d peer links", n)
	}
}

// TestLargeRouteReplay: a route set larger than the steady-state outbound
// queue must replay in full on connect instead of overflowing the queue and
// flapping the link forever.
func TestLargeRouteReplay(t *testing.T) {
	const routes = 1500 // > the forward budget, which route messages ignore
	sch, err := schema.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	a := startDaemon(t, "A", testSpec)

	// B carries a big local subscription set before it ever dials A
	// (covering off so nothing prunes).
	brkB, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(brkB.Close)
	for i := 0; i < routes; i++ {
		// Disjoint humidity slivers: no profile covers another, so every
		// route must survive at A even with covering enabled there.
		lo := float64(i) * 0.06
		p := predicate.MustParse(sch, predicate.ID(fmt.Sprintf("r%d", i)),
			fmt.Sprintf("profile(humidity in [%g,%g])", lo, lo+0.05))
		if _, err := brkB.SubscribeWith(p, broker.SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	fedB, err := federation.New(brkB, federation.Options{Node: "B", Covering: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fedB.Close)
	if err := fedB.Dial(a.addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full replay at A", func() bool { return a.fed.RouteCount("B") == routes })
	if n := len(fedB.Peers()); n != 1 {
		t.Errorf("link flapped during replay: %d peers", n)
	}
}

// peerHello is the hello line of a peer daemon named node.
func peerHello(node string, sch *schema.Schema) []byte {
	hello, _ := wire.EncodeLine(wire.Request{Op: wire.OpHello, Node: node, Schema: sch.String(), Proto: int(wire.ProtoV2)})
	return hello
}

// answeringPeer accepts one connection on a fresh listener, reads its hello
// and answers with reply, then holds the connection until the dialer leaves.
func answeringPeer(t *testing.T, reply wire.Request) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		rd := bufio.NewReader(conn)
		if _, err := wire.ReadLine(rd); err != nil {
			return
		}
		line, _ := wire.EncodeLine(reply)
		if _, err := conn.Write(line); err != nil {
			return
		}
		_, _ = rd.ReadByte()
	}()
	return ln.Addr().String()
}

// TestMissingNodeRejected: a peer whose hello answer names no node is
// refused.
func TestMissingNodeRejected(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	addr := answeringPeer(t, wire.Request{Op: wire.OpHello, Schema: a.brk.Schema().String(), Proto: int(wire.ProtoV2)})
	if err := a.fed.Dial(addr); err == nil || !strings.Contains(err.Error(), "missing node") {
		t.Errorf("dial err = %v, want a missing-node error", err)
	}
}

// TestDialRefusesPreV2Peer: a peer whose hello answer does not advertise
// protocol v2 — a daemon from before PR 10, or one pinned to v1 — fails
// the dial with an error naming v2.
func TestDialRefusesPreV2Peer(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	addr := answeringPeer(t, wire.Request{Op: wire.OpHello, Node: "old", Schema: a.brk.Schema().String()})
	if err := a.fed.Dial(addr); err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("dial err = %v, want an error naming protocol v2", err)
	}
	if n := len(a.fed.Peers()); n != 0 {
		t.Errorf("the refused peer left %d links", n)
	}
}

// rawPeer accepts one connection on a fresh listener and completes the peer
// handshake by hand as node "raw" speaking v2, announcing one route that
// every event matches. It hands the connection over once the handshake is
// done: what the peer then does with it is the test's business.
func rawPeer(t *testing.T, sch *schema.Schema) (addr string, conns <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	out := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		rd := bufio.NewReader(conn)
		if _, err := wire.ReadLine(rd); err != nil {
			t.Errorf("raw peer: reading the hello: %v", err)
			return
		}
		route := wire.AppendRouteAddFrame(nil, "all", "profile(temperature >= -30)", 0)
		if _, err := conn.Write(append(peerHello("raw", sch), route...)); err != nil {
			t.Errorf("raw peer: %v", err)
			return
		}
		out <- conn
	}()
	return ln.Addr().String(), out
}

// TestForwardDoesNotAllocate pins the send path of one hop: deciding that a
// link accepts an event, encoding it once and copying it into the link's
// outbox allocates nothing once the buffers are warm, and the link's writer
// sends what gathered without allocating either.
func TestForwardDoesNotAllocate(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	addr, conns := rawPeer(t, a.brk.Schema())
	if err := a.fed.Dial(addr); err != nil {
		t.Fatal(err)
	}
	conn := <-conns
	defer func() { _ = conn.Close() }()
	var received atomic.Int64
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	waitFor(t, "the raw peer's route", func() bool { return a.fed.RouteCount("raw") == 1 })

	// The whole hop is measured: the events are offered, the link's writer puts
	// their frames on the wire and the peer reads them. (Mallocs counts every
	// goroutine of the process; nothing else is running.)
	ev := event.Event{Vals: []float64{20, 50}}
	frame := int64(len(wire.AppendForwardFrame(nil, ev.Vals)))
	var sent int64
	hop := func(events int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < events; i++ {
			a.fed.EventPublished(ev)
		}
		sent += int64(events) * frame
		waitFor(t, "the forwarded frames", func() bool { return received.Load() >= sent })
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	hop(100)            // the outbox, its spare and the encoding scratch grow to size
	const events = 1000 // under the forward budget: the writer need not keep up
	if allocs := hop(events); allocs/events != 0 && !raceEnabled {
		t.Errorf("forwarding %d accepted events over one v2 link allocated %d times", events, allocs)
	}
	if got := received.Load(); got != sent {
		t.Errorf("peer received %d bytes of the %d forwarded", got, sent)
	}
}

func forwardedFiltered(f *federation.Fed) (uint64, uint64) {
	_, _, fwd, flt := f.Stats()
	return fwd, flt
}

// syncLog is a log sink the test can read while goroutines still write.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// settledGoroutines returns the goroutine count once the goroutines of the
// tests before have finished exiting: two samples 10 ms apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// slowConn is a peer link's end of a pipe whose other end never reads. It
// turns whatever write deadline the link's writer sets into one slowDeadline
// away, so the test sees the write deadline expire without waiting out the
// real one.
type slowConn struct{ net.Conn }

const slowDeadline = 500 * time.Millisecond

func (c slowConn) SetWriteDeadline(time.Time) error {
	return c.Conn.SetWriteDeadline(time.Now().Add(slowDeadline))
}

// TestSlowPeerDropsForwards: a peer link follows the rule every connection
// follows. A pipe has no buffer, so once the peer stops reading, the link's
// writer blocks in its write and everything else gathers in the outbox. While
// it is blocked, forwards beyond the budget are dropped and counted — logged
// once, not once per frame — and the link stays up; route messages are never
// dropped, so every one queued before the deadline is in the outbox. At the
// write deadline the link is torn down, its routes are withdrawn and none of
// its goroutines stays behind. While it lives, the link runs exactly two
// goroutines: its reader and its writer.
func TestSlowPeerDropsForwards(t *testing.T) {
	sch, err := schema.ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	var logs syncLog
	fed, err := federation.New(brk, federation.Options{Node: "A", Covering: true, Logger: log.New(&logs, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	before := settledGoroutines()

	ours, theirs := net.Pipe()
	defer func() { _ = theirs.Close() }()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		fed.HandlePeer(slowConn{ours}, bufio.NewReader(ours), wire.Request{Op: wire.OpHello, Node: "mute", Schema: sch.String(), Proto: int(wire.ProtoV2)})
	}()
	if _, err := wire.ReadLine(bufio.NewReader(theirs)); err != nil { // the hello reply
		t.Fatal(err)
	}
	if _, err := theirs.Write(wire.AppendRouteAddFrame(nil, "all", "profile(temperature >= -30)", 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the mute peer's route", func() bool { return fed.RouteCount("mute") == 1 })
	if n := runtime.NumGoroutine() - before; n != 2 {
		t.Errorf("a live peer link runs %d goroutines, want 2: its reader and its writer", n)
	}
	out := fed.OutboxOf("mute")
	// From here on the peer never reads again.

	// The first forward leaves the outbox for a write that never completes.
	ev := event.Event{Vals: []float64{20, 50}}
	frame := len(wire.AppendForwardFrame(nil, ev.Vals))
	fed.EventPublished(ev)
	waitFor(t, "the writer to take the first forward", func() bool {
		bytes, _ := out.Pending()
		return bytes == 0
	})
	const events = 3000
	for i := 1; i < events; i++ {
		fed.EventPublished(ev)
	}
	// Local subscriptions announce routes toward the peer behind the full
	// budget of forwards. Disjoint, so that none covers another.
	routes := 0
	for i := 0; i < 3; i++ {
		p := predicate.MustParse(sch, predicate.ID(fmt.Sprint("local", i)), fmt.Sprintf("profile(humidity in [%d,%d])", 10*i, 10*i+5))
		fed.ProfileAdded(p)
		routes += len(wire.AppendRouteAddFrame(nil, string(p.ID), p.Render(sch), p.Priority))
	}
	bytes, waiting := out.Pending()
	if waiting != federation.ForwardBudget || bytes != waiting*frame+routes {
		t.Errorf("outbox holds %d bytes in %d forwards, want the budget's %d forwards of %d bytes and %d bytes of routes",
			bytes, waiting, federation.ForwardBudget, frame, routes)
	}
	if d := fed.DroppedForwards(); d != events-1-federation.ForwardBudget {
		t.Errorf("%d forwards dropped of %d offered with a budget of %d", d, events, federation.ForwardBudget)
	}
	if peers := fed.Peers(); len(peers) != 1 {
		t.Errorf("dropping forwards cut the link: peers %v", peers)
	}

	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("the link outlived its write deadline")
	}
	if peers := fed.Peers(); len(peers) != 0 || fed.RouteCount("mute") != 0 {
		t.Errorf("after the deadline: peers %v, %d routes from the peer", peers, fed.RouteCount("mute"))
	}
	if n := strings.Count(logs.String(), "cannot keep up"); n != 1 {
		t.Errorf("%d \"cannot keep up\" log lines, want one:\n%s", n, logs.String())
	}
	if !strings.Contains(logs.String(), "i/o timeout") {
		t.Errorf("the link did not end at its write deadline:\n%s", logs.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines left behind by the torn-down link", n-before)
	}
}

// TestStatsReplyCountsDroppedForwards: the forwards a peer link's full
// outbox refused reach the operator. A daemon's stats reply over the wire
// carries exactly Fed.DroppedForwards, beside the link counters.
func TestStatsReplyCountsDroppedForwards(t *testing.T) {
	d := startDaemon(t, "A", testSpec)
	sch := d.brk.Schema()
	ours, theirs := net.Pipe()
	defer func() { _ = theirs.Close() }()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		d.fed.HandlePeer(slowConn{ours}, bufio.NewReader(ours), wire.Request{Op: wire.OpHello, Node: "mute", Schema: sch.String(), Proto: int(wire.ProtoV2)})
	}()
	if _, err := wire.ReadLine(bufio.NewReader(theirs)); err != nil { // the hello reply
		t.Fatal(err)
	}
	if _, err := theirs.Write(wire.AppendRouteAddFrame(nil, "all", "profile(temperature >= -30)", 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the mute peer's route", func() bool { return d.fed.RouteCount("mute") == 1 })
	// The peer never reads: past the budget, forwards drop.
	ev := event.Event{Vals: []float64{20, 50}}
	for i := 0; i < 2*federation.ForwardBudget; i++ {
		d.fed.EventPublished(ev)
	}
	dropped := d.fed.DroppedForwards()
	if dropped == 0 {
		t.Fatal("no forward dropped")
	}
	st, err := dial(t, d.addr).Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedForwards != dropped || st.Node != "A" || st.Forwarded == 0 {
		t.Errorf("stats reply: %d forwards dropped, node %q, %d forwarded; want %d dropped at node A",
			st.DroppedForwards, st.Node, st.Forwarded, dropped)
	}
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("the link outlived its write deadline")
	}
}

// TestMixedCodecFanOut: a daemon with two links — once one of each codec,
// now both speaking frames — forwards one event over both, encoded once, in
// order, and nothing is lost when a burst gathers in the outboxes and leaves
// in a few writes. ProtoV2Peers, kept for the benchmark, counts every link.
func TestMixedCodecFanOut(t *testing.T) {
	a := startDaemon(t, "A", testSpec)
	b := startDaemon(t, "B", testSpec, a.addr)
	c := startDaemon(t, "C", testSpec, b.addr)
	waitFor(t, "B's links", func() bool { return len(b.fed.Peers()) == 2 && len(c.fed.Peers()) == 1 })
	if n := b.fed.ProtoV2Peers(); n != 2 {
		t.Fatalf("ProtoV2Peers = %d at B, want its 2 links", n)
	}
	subA, subC := dial(t, a.addr), dial(t, c.addr)
	for id, sub := range map[string]*wire.Client{"hotA": subA, "hotC": subC} {
		if err := sub.Subscribe(id, "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "routes at B", func() bool { return b.fed.RouteCount("A") == 1 && b.fed.RouteCount("C") == 1 })

	pub := dial(t, b.addr)
	const events = 200
	batch := make([][]float64, events)
	for i := range batch {
		batch[i] = []float64{35 + float64(i%10), float64(i % 100)}
	}
	if _, err := pub.PublishValsBatch(batch, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	for name, sub := range map[string]*wire.Client{"A": subA, "C": subC} {
		for i := 0; i < events; i++ {
			select {
			case n := <-sub.Notifications():
				if got := n.Event["humidity"]; got != float64(i%100) {
					t.Fatalf("%s: notification %d carries humidity %v: forwards left their order", name, i, got)
				}
			case <-time.After(rpcTimeout):
				t.Fatalf("%s: notification %d of %d never arrived", name, i, events)
			}
		}
	}
}
