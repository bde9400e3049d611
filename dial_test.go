package genas

import (
	"bufio"
	"context"
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
func startPlainDaemon(t *testing.T, sch *Schema) (addr string) {
	t.Helper()
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := wire.NewServer(hook.BrokerOf(svc), nil)
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

// TestRemoteNotificationsShareTheEvent: the notifications one event causes on
// a connection carry one Event map between them, and the next event gets a
// map of its own.
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
