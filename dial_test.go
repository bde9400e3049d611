package genas

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"genas/internal/hook"
	"genas/internal/wire"
)

// startPlainDaemon boots an in-process genasd twin without federation, with
// an optional protocol ceiling (maxV1 simulates an un-upgraded daemon).
func startPlainDaemon(t *testing.T, sch *Schema, maxV1 bool) (addr string) {
	t.Helper()
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := wire.NewServer(hook.BrokerOf(svc), nil)
	if maxV1 {
		srv.SetMaxProto(wire.ProtoV1)
	}
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

// TestDialClient drives the redesigned client surface end to end over a
// negotiated v2 connection: typed options, the positional publish hot path,
// batched publishes, notifications and the protocol counters in Stats.
func TestDialClient(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startPlainDaemon(t, sch, false)

	c, err := Dial(addr, WithDialTimeout(5*time.Second), WithPipelineDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Protocol() != V2 {
		t.Fatalf("Protocol() = %v, want V2", c.Protocol())
	}
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

	// Three matches, three notifications — as name→value maps regardless of
	// the wire encoding.
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
// a connection carry one Event map between them, whichever protocol delivered
// them, and the next event gets a map of its own.
func TestRemoteNotificationsShareTheEvent(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startPlainDaemon(t, sch, false)
	for _, proto := range []Protocol{V1, V2} {
		c, err := Dial(addr, WithDialTimeout(5*time.Second), WithProtocol(proto))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		for _, id := range []string{"warm", "hot"} {
			if err := c.Subscribe(fmt.Sprint(id, proto), "profile(temperature >= 35)", 0); err != nil {
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
				t.Fatalf("protocol %v: notification %d never arrived", proto, len(got))
			}
		}
		same := func(a, b map[string]float64) bool {
			return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
		}
		if got[0].Seq != got[1].Seq || !same(got[0].Event, got[1].Event) || got[0].Event["temperature"] != 40 {
			t.Errorf("protocol %v: first event's notifications %+v and %+v do not share one map", proto, got[0], got[1])
		}
		if got[2].Seq != got[3].Seq || !same(got[2].Event, got[3].Event) || same(got[1].Event, got[2].Event) || got[2].Event["temperature"] != 45 {
			t.Errorf("protocol %v: second event's notifications %+v and %+v", proto, got[2], got[3])
		}
		for _, id := range []string{"warm", "hot"} {
			if err := c.Unsubscribe(fmt.Sprint(id, proto)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDialProtocolPinning pins WithProtocol's three modes against old and
// new daemons.
func TestDialProtocolPinning(t *testing.T) {
	sch := monitoringSchema(t)
	v2addr := startPlainDaemon(t, sch, false)
	v1addr := startPlainDaemon(t, sch, true)

	// V1 pins even against a v2-capable daemon.
	c, err := Dial(v2addr, WithProtocol(V1), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if c.Protocol() != V1 {
		t.Errorf("pinned V1 negotiated %v", c.Protocol())
	}
	_ = c.Close()

	// Auto falls back cleanly against an old daemon.
	c, err = Dial(v1addr, WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if c.Protocol() != V1 {
		t.Errorf("Auto against v1 daemon negotiated %v", c.Protocol())
	}
	if matched, err := c.PublishValues(40, 10, 3); err != nil || matched != 0 {
		t.Fatalf("PublishValues over v1 = %d %v", matched, err)
	}
	_ = c.Close()

	// Required V2 refuses the old daemon instead of degrading.
	if _, err := Dial(v1addr, WithProtocol(V2), WithDialTimeout(5*time.Second)); err == nil {
		t.Error("WithProtocol(V2) against a v1 daemon must fail")
	}
}

// TestJoinNetworkProtocol checks the peer-link side of the dial options:
// JoinNetwork negotiates v2 links by default and WithProtocol(V1) pins them
// to JSON lines, visible through FederationStats.ProtoV2Peers.
func TestJoinNetworkProtocol(t *testing.T) {
	sch := monitoringSchema(t)
	addr := startFedDaemon(t, "daemon", sch)

	f, err := JoinNetwork(sch, "leaf", []string{addr},
		WithDialTimeout(5*time.Second), WithServiceOptions(WithShards(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Peers != 1 || st.ProtoV2Peers != 1 {
		t.Errorf("v2 link stats = peers %d v2 %d, want 1/1", st.Peers, st.ProtoV2Peers)
	}
	f.Close()

	f, err = JoinNetwork(sch, "leaf2", []string{addr}, WithProtocol(V1))
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Peers != 1 || st.ProtoV2Peers != 0 {
		t.Errorf("pinned-v1 link stats = peers %d v2 %d, want 1/0", st.Peers, st.ProtoV2Peers)
	}
	f.Close()
}
