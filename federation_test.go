package genas

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"genas/internal/federation"
	"genas/internal/hook"
	"genas/internal/wire"
)

// startFedDaemon boots an in-process genasd twin (service + wire server +
// federation overlay) for the public JoinNetwork tests. The daemon side is
// driven through a wire client, exactly as a real deployment would.
func startFedDaemon(t *testing.T, node string, sch *Schema) (addr string) {
	t.Helper()
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	fed, err := federation.New(hook.BrokerOf(svc), federation.Options{Node: node, Covering: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	srv := wire.NewServer(hook.BrokerOf(svc), nil)
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

// TestJoinNetwork: a process joins a daemon federation through the public
// surface — local subscriptions receive events published at the daemon, and
// local publishes reach the daemon's subscribers; non-matching events never
// cross the wire.
func TestJoinNetwork(t *testing.T) {
	const rpcTimeout = 5 * time.Second
	sch := monitoringSchema(t)
	addr := startFedDaemon(t, "daemon", sch)
	remote, err := wire.DialWith(addr, wire.DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = remote.Close() })

	f, err := JoinNetwork(sch, "leaf", []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Schema() != sch {
		t.Error("Schema() mismatch")
	}

	// Remote → local: subscribe here, publish at the daemon. The route
	// announcement is processed asynchronously by the daemon, so publish
	// until the notification arrives.
	sub, err := f.Subscribe("hot", "profile(temperature >= 35)", SubBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := remote.Publish(map[string]float64{"temperature": 41, "humidity": 10, "radiation": 3}, rpcTimeout); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		n, err := sub.Next(ctx)
		cancel()
		if err == nil {
			if n.Profile != "hot" || n.Event.At(0) != 41 {
				t.Fatalf("notification = %+v", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no notification from the remote daemon")
		}
	}

	// Local → remote: subscribe at the daemon (through the wire, so the
	// overlay announces the route to us), publish here.
	if err := remote.Subscribe("wet", "profile(humidity >= 90)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := f.Publish(map[string]float64{"temperature": 0, "humidity": 95, "radiation": 3}); err != nil {
			t.Fatal(err)
		}
		var notified bool
		select {
		case n := <-remote.Notifications():
			if n.Profile != "wet" {
				t.Fatalf("notification = %+v", n)
			}
			notified = true
		case <-time.After(100 * time.Millisecond):
		}
		if notified {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon subscriber never notified by the leaf's publish")
		}
	}

	// A non-matching publish is rejected at the link.
	before := f.Stats()
	if _, err := f.Publish(map[string]float64{"temperature": 0, "humidity": 0, "radiation": 3}); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Filtered <= before.Filtered {
		t.Errorf("filtered did not grow: %+v -> %+v", before, after)
	}
	if after.Node != "leaf" || after.Peers != 1 {
		t.Errorf("stats = %+v", after)
	}
	if after.Local.Published == 0 {
		t.Errorf("local stats missing: %+v", after)
	}

	// Unsubscribe withdraws the route.
	if err := f.Unsubscribe("hot"); err != nil {
		t.Fatal(err)
	}
	if err := f.Unsubscribe("hot"); err == nil {
		t.Error("double unsubscribe must fail")
	}
}

// TestJoinNetworkErrors: bad peers and bad options fail fast, and a
// peer-less federation still works as a plain local service.
func TestJoinNetworkErrors(t *testing.T) {
	sch := monitoringSchema(t)
	if _, err := JoinNetwork(sch, "", nil); err == nil {
		t.Error("missing node name must fail")
	}
	if _, err := JoinNetwork(sch, "leaf", []string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable peer must fail")
	}
	if _, err := JoinNetwork(sch, "leaf", nil, WithServiceOptions(WithSearch("bogus"))); err == nil {
		t.Error("bad option must fail")
	}
	f, err := JoinNetwork(sch, "solo", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := f.svc.ParseProfile("p", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := f.SubscribeProfile(p, SubPriority(2))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Profile().Priority != 2 {
		t.Errorf("priority = %g", sub.Profile().Priority)
	}
	n, err := f.Publish(map[string]float64{"temperature": 40, "humidity": 10, "radiation": 3})
	if err != nil || n != 1 {
		t.Errorf("publish = %d, %v", n, err)
	}
	if st := f.Stats(); st.Peers != 0 || st.Local.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Publish(map[string]float64{"temperature": 400}); err == nil {
		t.Error("bad event must fail")
	}
}
