package wire

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"genas/internal/broker"
	"genas/internal/event"
	"genas/internal/schema"
)

const rpcTimeout = 5 * time.Second

// startServer spins a daemon on a loopback listener and returns its address.
func startServer(t *testing.T) string { return startServerWith(t, nil) }

// startServerWith is startServer with the given attribute defaults.
func startServerWith(t *testing.T, defaults map[string]float64) string {
	t.Helper()
	addr, _ := startBrokerServer(t, defaults)
	return addr
}

// startBrokerServer is startServerWith that also returns the daemon's broker.
func startBrokerServer(t *testing.T, defaults map[string]float64) (string, *broker.Broker) {
	t.Helper()
	return startSpecServer(t, "temperature=numeric[-30,50]; humidity=numeric[0,100]", defaults)
}

// startSpecServer is startBrokerServer over the schema spec names.
func startSpecServer(t *testing.T, spec string, defaults map[string]float64) (string, *broker.Broker) {
	t.Helper()
	sch, err := schema.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := broker.New(sch, broker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(brk, nil)
	if defaults != nil {
		d, err := event.NewDefaults(sch, defaults)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetDefaults(d)
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
		brk.Close()
	})
	return ln.Addr().String(), brk
}

func TestPingAndSchema(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatal(err)
	}
	attrs, err := c.Schema(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0].Name != "temperature" || attrs[0].Lo != -30 {
		t.Errorf("schema = %+v", attrs)
	}
}

func TestSubscribePublishNotify(t *testing.T) {
	addr := startServer(t)
	subC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = subC.Close() }()
	pubC, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pubC.Close() }()

	if err := subC.Subscribe("hot", "profile(temperature >= 35)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	matched, err := pubC.Publish(map[string]float64{"temperature": 41, "humidity": 10}, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Errorf("matched = %d", matched)
	}
	select {
	case n, ok := <-subC.Notifications():
		if !ok {
			t.Fatal("notification channel closed")
		}
		if n.Profile != "hot" || n.Event["temperature"] != 41 {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}

	// Unsubscribe stops further notifications.
	if err := subC.Unsubscribe("hot", rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := pubC.Publish(map[string]float64{"temperature": 45, "humidity": 10}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-subC.Notifications():
		t.Fatalf("unexpected notification %+v", n)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestQuenchAndStats(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Subscribe("p", "profile(temperature >= 35)", 2, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	q, err := c.Quench("temperature", -30, 0, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !q {
		t.Error("cold region must quench")
	}
	q, err = c.Quench("temperature", 30, 50, rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if q {
		t.Error("hot region must not quench")
	}
	if _, err := c.Publish(map[string]float64{"temperature": 40, "humidity": 10}, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st.Subscriptions != 1 || st.Published != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServerErrors(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Subscribe("", "profile(temperature >= 0)", 0, rpcTimeout); err == nil {
		t.Error("missing id must fail")
	}
	if err := c.Subscribe("x", "profile(bogus >= 0)", 0, rpcTimeout); err == nil {
		t.Error("bad profile must fail")
	}
	if err := c.Unsubscribe("ghost", rpcTimeout); err == nil {
		t.Error("foreign unsubscribe must fail")
	}
	if _, err := c.Publish(map[string]float64{"nosuch": 1}, rpcTimeout); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := c.Publish(map[string]float64{"temperature": 400, "humidity": 1}, rpcTimeout); err == nil {
		t.Error("out-of-domain value must fail")
	}
	if _, err := c.Quench("nosuch", 0, 1, rpcTimeout); err == nil {
		t.Error("unknown quench attribute must fail")
	}
	// An older client's publishes carry JSON maps: each gets one error reply.
	for _, op := range []Op{OpPublish, OpPublishBatch} {
		if _, err := c.roundTrip(Request{Op: op}, rpcTimeout); err == nil || !strings.Contains(err.Error(), "vectors") {
			t.Errorf("a %s control frame = %v, want the error that events travel as vectors", op, err)
		}
	}
	// The connection survives all errors.
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatalf("connection died after errors: %v", err)
	}
}

// TestMalformedInput: a first line of garbage is answered with an error line
// and the connection closes; the server lives on.
func TestMalformedInput(t *testing.T) {
	addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write([]byte("this is not json\n{\"no\":\"op\"}\n\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := raw.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "error") {
		t.Errorf("expected error responses, got %q", buf[:n])
	}
	// The server still accepts a healthy client afterwards.
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(rpcTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectCleansSubscriptions: dropping a client removes its profiles
// from the filter.
func TestDisconnectCleansSubscriptions(t *testing.T) {
	addr := startServer(t)
	short, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Subscribe("ephemeral", "profile(temperature >= 0)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	_ = short.Close()

	probe, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = probe.Close() }()
	// The disconnect is asynchronous; poll until the subscription is gone.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := probe.Stats(rpcTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if st.Subscriptions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription survived disconnect: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := DecodeRequest([]byte("{")); err == nil {
		t.Error("truncated request must fail")
	}
	if _, err := DecodeRequest([]byte("{}")); err == nil {
		t.Error("missing op must fail")
	}
	if _, err := DecodeResponse([]byte("{}")); err == nil {
		t.Error("missing type must fail")
	}
	if _, err := DecodeResponse([]byte(`{"type":"ok"}`)); err != nil {
		t.Error("minimal response must parse")
	}
}

func TestProfilesListing(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Subscribe("hot", "profile(temperature >= 35)", 3, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("wet", "profile(humidity >= 90)", 0, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	profiles, err := c.Profiles(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %+v", profiles)
	}
	byID := map[string]ProfilePayload{}
	for _, p := range profiles {
		byID[p.ID] = p
	}
	if byID["hot"].Priority != 3 {
		t.Errorf("hot priority = %g", byID["hot"].Priority)
	}
	if !strings.Contains(byID["hot"].Expr, "temperature >= 35") {
		t.Errorf("hot expr = %q", byID["hot"].Expr)
	}
	// The rendered expressions are valid profile language: subscribing them
	// again under new ids succeeds.
	for id, p := range byID {
		if err := c.Subscribe(id+"-copy", p.Expr, 0, rpcTimeout); err != nil {
			t.Errorf("re-subscribe %s: %v", id, err)
		}
	}
}

// TestProfilesListEachOwnSpelling: temperature in [-30,50] and
// temperature <= 50 are one structure over the schema's domain, and the
// listing shows each subscriber's own spelling and priority, not the first
// subscriber's.
func TestProfilesListEachOwnSpelling(t *testing.T) {
	addr := startServer(t)
	c, err := DialWith(addr, DialConfig{Timeout: rpcTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Subscribe("a", "profile(temperature in [-30,50])", 2, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("b", "profile(temperature <= 50)", 5, rpcTimeout); err != nil {
		t.Fatal(err)
	}
	profiles, err := c.Profiles(rpcTimeout)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ProfilePayload{
		"a": {ID: "a", Expr: "profile(temperature in [-30,50])", Priority: 2},
		"b": {ID: "b", Expr: "profile(temperature <= 50)", Priority: 5},
	}
	if len(profiles) != len(want) {
		t.Fatalf("profiles = %+v, want %+v", profiles, want)
	}
	for _, p := range profiles {
		if p != want[p.ID] {
			t.Errorf("listed %+v, want %+v", p, want[p.ID])
		}
	}
}
