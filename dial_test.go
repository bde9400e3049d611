package genas

import (
	"bufio"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"genas/internal/hook"
	"genas/internal/wire"
)

// startPlainDaemon boots an in-process genasd twin without federation.
func startPlainDaemon(t *testing.T, sch *Schema, opts ...Option) (addr string) {
	t.Helper()
	svc, err := NewService(sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return serveService(t, svc)
}

// serveService serves svc over the wire on a loopback listener, as genasd
// does, until the test ends.
func serveService(t *testing.T, svc *Service) (addr string) {
	t.Helper()
	srv := wire.NewServer(hook.BrokerOf(svc), nil)
	srv.SetDefaults(hook.DefaultsOf(svc))
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
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestDialClient drives the redesigned client surface end to end: typed
// options, the positional publish hot path, batched publishes, notifications
// and the wire counters in Stats.
func TestDialClient(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startPlainDaemon(t, sch)

	c, err := Dial(addr, WithDialTimeout(5*time.Second), WithPipelineDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("hot", "profile(temperature >= 35)", 1); err != nil {
		t.Fatal(err)
	}

	// Map publish, positional publish and a batch — all against the same
	// subscription.
	if matched, err := c.Publish(map[string]float64{"temperature": 41, "humidity": 10, "radiation": 3}); err != nil || matched != 1 {
		t.Fatalf("Publish = %d %v", matched, err)
	}
	if matched, err := c.PublishValues(45, 10, 3); err != nil || matched != 1 {
		t.Fatalf("PublishValues = %d %v", matched, err)
	}
	counts, err := c.PublishBatch([]map[string]float64{
		{"temperature": 40, "humidity": 1, "radiation": 1},
		{"temperature": 0, "humidity": 1, "radiation": 1},
	})
	if err != nil || len(counts) != 2 || counts[0] != 1 || counts[1] != 0 {
		t.Fatalf("PublishBatch = %v %v", counts, err)
	}

	// Three matches, three notifications — as name→value maps.
	for i := 0; i < 3; i++ {
		select {
		case n := <-c.Notifications():
			if n.Profile != "hot" || n.Event["temperature"] < 35 {
				t.Fatalf("notification = %+v", n)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("notification %d never arrived", i)
		}
	}

	if q, err := c.Quench("temperature", -30, 0); err != nil || !q {
		t.Fatalf("Quench = %v %v", q, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 || st.Published != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesPerEventWire <= 0 {
		t.Errorf("BytesPerEventWire = %g, want > 0", st.BytesPerEventWire)
	}
	if err := c.Unsubscribe("hot"); err != nil {
		t.Fatal(err)
	}
}

// TestStatsIsOneRecord: the daemon's stats reply is the record its broker
// filled. After a fixed script — subscriptions, single and batched
// publishes that drift enough to restructure, an unsubscribe — the client's
// RemoteStats, converted to Stats, equals the service's own Stats in every
// field the broker fills; only the wire server's fields differ, and they are
// zero in process.
func TestStatsIsOneRecord(t *testing.T) {
	svc, err := NewService(monitoringSchema(t), WithAdaptivePolicy(64, 0.01, true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	c, err := Dial(serveService(t, svc), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for id, expr := range map[string]string{
		"hot":  "profile(temperature >= 35)",
		"wet":  "profile(humidity >= 90)",
		"warm": "profile(temperature >= 20; humidity >= 50)",
	} {
		if err := c.Subscribe(id, expr, 0); err != nil {
			t.Fatal(err)
		}
	}
	var batch []map[string]float64
	for i := 0; i < 400; i++ {
		// Temperatures climb from cold to hot: the window drifts.
		batch = append(batch, map[string]float64{"temperature": float64(-30 + i/5), "humidity": float64(i % 101), "radiation": 1})
	}
	if _, err := c.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.PublishValues(45, float64(5*i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Unsubscribe("wet"); err != nil {
		t.Fatal(err)
	}

	rs, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := svc.Stats()
	if want.Restructures == 0 || want.Delivered == 0 || want.Subscriptions != 2 || !want.Aggregated {
		t.Fatalf("the script exercised too little: %+v", want)
	}
	if want.BytesPerEventWire != 0 || want.FramesPipelined != 0 || want.Node != "" {
		t.Errorf("in-process stats carry wire fields: %+v", want)
	}
	got := Stats(rs)
	if got.BytesPerEventWire <= 0 {
		t.Errorf("the wire server did not fill its fields: %+v", got)
	}
	got.BytesPerEventWire, got.FramesPipelined = 0, 0
	if got != want {
		t.Errorf("remote stats\n%+v\nservice stats\n%+v", got, want)
	}
}

// TestDialConvertsMapsInTheClient: a map becomes a vector in the client,
// completed from the defaults the daemon announced. A map the client cannot
// complete fails before anything is sent, with the public sentinel.
func TestDialConvertsMapsInTheClient(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startPlainDaemon(t, sch, WithDefaults(map[string]float64{"radiation": 1}))
	c, err := Dial(addr, WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("calm", "profile(radiation <= 1)", 0); err != nil {
		t.Fatal(err)
	}
	if matched, err := c.Publish(map[string]float64{"temperature": 20, "humidity": 50}); err != nil || matched != 1 {
		t.Fatalf("Publish leaning on the radiation default = %d %v, want 1 match", matched, err)
	}
	counts, err := c.PublishBatch([]map[string]float64{
		{"temperature": 20, "humidity": 50},
		{"temperature": 20, "humidity": 50, "radiation": 50},
	})
	if err != nil || !reflect.DeepEqual(counts, []int{1, 0}) {
		t.Fatalf("PublishBatch = %v %v, want [1 0]", counts, err)
	}

	if _, err := c.Publish(map[string]float64{"temperature": 20}); !errors.Is(err, ErrArity) {
		t.Errorf("a map omitting humidity, which has no default = %v, want ErrArity", err)
	}
	if _, err := c.PublishBatch([]map[string]float64{{"temperature": 20, "humidity": 50}, {"humidity": 50}}); !errors.Is(err, ErrArity) {
		t.Errorf("a batch with such a map = %v, want ErrArity", err)
	}
	if _, err := c.Publish(map[string]float64{"temperature": 20, "humidity": 50, "pressure": 1}); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("a map naming pressure = %v, want ErrUnknownAttribute", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 3 {
		t.Errorf("published = %d, want 3: a refused map must not reach the daemon", st.Published)
	}
}

// TestRemoteNotificationsShareTheEvent: the notifications one event causes on
// a connection carry one Event map between them, and the next event gets a
// map of its own, which leaves the earlier one as it was: the maps do not
// alias the reader's scratch. RemoteNotification keeps its three fields.
func TestRemoteNotificationsShareTheEvent(t *testing.T) {
	sch := monitoringSchema(t)
	c, err := Dial(startPlainDaemon(t, sch), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, id := range []string{"warm", "hot"} {
		if err := c.Subscribe(id, "profile(temperature >= 35)", 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, temp := range []float64{40, 45} {
		if _, err := c.PublishValues(temp, 10, 3); err != nil {
			t.Fatal(err)
		}
	}
	var got []RemoteNotification
	for len(got) < 4 {
		select {
		case n := <-c.Notifications():
			got = append(got, n)
		case <-time.After(2 * time.Second):
			t.Fatalf("notification %d never arrived", len(got))
		}
	}
	same := func(a, b map[string]float64) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	if got[0].Seq != got[1].Seq || !same(got[0].Event, got[1].Event) || got[0].Event["temperature"] != 40 {
		t.Errorf("first event's notifications %+v and %+v do not share one map", got[0], got[1])
	}
	if got[2].Seq != got[3].Seq || !same(got[2].Event, got[3].Event) || same(got[1].Event, got[2].Event) || got[2].Event["temperature"] != 45 {
		t.Errorf("second event's notifications %+v and %+v", got[2], got[3])
	}
	first := RemoteNotification{Profile: got[0].Profile, Seq: 1, Event: map[string]float64{"temperature": 40, "humidity": 10, "radiation": 3}}
	for _, n := range got[:2] {
		if first.Profile = n.Profile; !reflect.DeepEqual(n, first) {
			t.Errorf("after the second event the first one's notification reads %+v, want %+v", n, first)
		}
	}
}

// TestClientCountsItsDrops: a client that does not read while its daemon
// sends more notifications than Notifications() buffers loses the rest at one
// point, and counts them there. Once drained, what it received plus Dropped()
// is what the daemon delivered to its subscriptions, the only ones it holds.
func TestClientCountsItsDrops(t *testing.T) {
	sch := monitoringSchema(t)
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	c, err := Dial(serveService(t, svc), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, id := range []string{"warm", "hot"} {
		if err := c.Subscribe(id, "profile(temperature >= 35)", 0); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds smaller than the session's 256-entry queue, with pauses for its
	// writer to drain, so the daemon delivers them all and the client's
	// unread channel is what overflows.
	batch := make([]map[string]float64, 50) // 100 notifications a round
	for i := range batch {
		batch[i] = map[string]float64{"temperature": 40, "humidity": float64(i), "radiation": 3}
	}
	for deadline := time.Now().Add(5 * time.Second); c.Dropped() == 0 && time.Now().Before(deadline); {
		if _, err := c.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	delivered := svc.Stats().Delivered
	for deadline := time.Now().Add(5 * time.Second); uint64(len(c.Notifications()))+c.Dropped() < delivered && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	received := uint64(len(c.Notifications()))
	for range received {
		<-c.Notifications()
	}
	if received+c.Dropped() != delivered || c.Dropped() == 0 {
		t.Errorf("received %d + dropped %d, the daemon delivered %d", received, c.Dropped(), delivered)
	}
}

// TestDialProtocolPinning: WithProtocol(V2) still compiles and selects
// nothing, and a daemon that does not speak protocol v2 fails the dial with
// an error naming it instead of degrading.
func TestDialProtocolPinning(t *testing.T) {
	sch := monitoringSchema(t)
	c, err := Dial(startPlainDaemon(t, sch), WithProtocol(V2), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if matched, err := c.PublishValues(40, 10, 3); err != nil || matched != 0 {
		t.Fatalf("PublishValues = %d %v", matched, err)
	}
	_ = c.Close()

	// An old daemon answers the hello the way a pre-v2 genasd without -node did.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		rd := bufio.NewReader(conn)
		if _, err := wire.ReadLine(rd); err == nil {
			_, _ = conn.Write([]byte(`{"type":"error","op":"hello","error":"daemon is not federated"}` + "\n"))
		}
		_, _ = rd.ReadByte()
	}()
	if _, err := Dial(ln.Addr().String(), WithDialTimeout(5*time.Second)); err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("dialing a pre-v2 daemon: %v, want an error naming protocol v2", err)
	}
}

// TestJoinNetworkProtocol checks the peer-link side of the dial options:
// JoinNetwork's links come up with or without WithProtocol(V2), which selects
// nothing.
func TestJoinNetworkProtocol(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startFedDaemon(t, "daemon", sch)

	f, err := JoinNetwork(sch, "leaf", []string{addr},
		WithDialTimeout(5*time.Second), WithServiceOptions(WithShards(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Peers != 1 {
		t.Errorf("link stats = peers %d, want 1", st.Peers)
	}
	f.Close()

	f, err = JoinNetwork(sch, "leaf2", []string{addr}, WithProtocol(V2))
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Peers != 1 {
		t.Errorf("WithProtocol(V2) link stats = peers %d, want 1", st.Peers)
	}
	f.Close()
}
