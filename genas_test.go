package genas

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func monitoringSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Attr("temperature", MustNumericDomain(-30, 50)),
		Attr("humidity", MustNumericDomain(0, 100)),
		Attr("radiation", MustNumericDomain(1, 100)),
	)
}

func TestServicePubSub(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sub, err := svc.Subscribe("alarm", "profile(temperature >= 35; humidity >= 90)")
	if err != nil {
		t.Fatal(err)
	}
	matched, err := svc.Publish(map[string]float64{"temperature": 40, "humidity": 95, "radiation": 2})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d", matched)
	}
	select {
	case n := <-sub.C():
		if n.Profile != "alarm" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification")
	}

	if err := svc.Unsubscribe("alarm"); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("channel open after unsubscribe")
	}
}

func TestServicePublishValidation(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Publish(map[string]float64{"temperature": 40}); err == nil {
		t.Error("partial event must fail")
	}
	if _, err := svc.Publish(map[string]float64{"temperature": 40, "humidity": 95, "bogus": 1}); err == nil {
		t.Error("unknown attribute must fail")
	}
	// Every entry point checks the domain, prebuilt events included, and a
	// refused event is not published.
	ok, bad := Event{Vals: []float64{20, 50, 2}}, Event{Vals: []float64{99, 50, 2}}
	if _, err := svc.PublishEvent(bad); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PublishEvent out of domain: %v", err)
	}
	if _, err := svc.PublishBatch([]Event{ok, bad}); !errors.Is(err, ErrOutOfDomain) || !strings.Contains(err.Error(), "event 1") {
		t.Errorf("PublishBatch out of domain: %v", err)
	}
	if _, err := svc.PublishBatchCtx(context.Background(), []Event{bad}); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PublishBatchCtx out of domain: %v", err)
	}
	if _, err := svc.PublishValues(math.NaN(), 50, 2); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PublishValues NaN: %v", err)
	}
	if _, err := svc.PublishValuesCtx(context.Background(), 20, 50, math.NaN()); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PublishValuesCtx NaN: %v", err)
	}
	if n := svc.Stats().Published; n != 0 {
		t.Errorf("refused events published: Stats().Published = %d", n)
	}
}

func TestServiceParseHelpers(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ev, err := svc.ParseEvent("event(temperature=30; humidity=90; radiation=2)")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Vals[0] != 30 {
		t.Errorf("parsed event = %v", ev.Vals)
	}
	p, err := svc.ParseProfile("x", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches([]float64{40, 0, 1}) {
		t.Error("parsed profile semantics wrong")
	}
	if _, err := svc.ParseProfile("y", "profile(!!)"); err == nil {
		t.Error("bad profile must fail")
	}
}

func TestServiceQuench(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Subscribe("hot", "profile(temperature >= 35)"); err != nil {
		t.Fatal(err)
	}
	q, err := svc.Quenched("temperature", -30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q {
		t.Error("cold range must quench")
	}
	if _, err := svc.Quenched("bogus", 0, 1); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestServiceOptions(t *testing.T) {
	for _, opt := range []Option{
		WithAdaptive(),
		WithAdaptivePolicy(100, 0.2, true),
		WithAttrOrdering("A2"),
		WithSubscriptionBuffer(8),
	} {
		svc, err := NewService(monitoringSchema(t), opt)
		if err != nil {
			t.Fatalf("option failed: %v", err)
		}
		svc.Close()
	}
	if _, err := NewService(monitoringSchema(t), WithAttrOrdering("A9")); err == nil {
		t.Error("bad ordering must fail")
	}
	if _, err := NewService(monitoringSchema(t), WithSubscriptionBuffer(0)); err == nil {
		t.Error("zero buffer must fail")
	}
}

func TestServiceAdaptiveRestructures(t *testing.T) {
	svc, err := NewService(monitoringSchema(t), WithAdaptivePolicy(200, 0.1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		expr := fmt.Sprintf("profile(temperature >= %d)", 30+rng.Intn(20))
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), expr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1200; i++ {
		ev := map[string]float64{
			"temperature": 44 + 5*rng.Float64(),
			"humidity":    rng.Float64() * 100,
			"radiation":   1 + rng.Float64()*99,
		}
		if _, err := svc.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Restructures() == 0 {
		t.Error("peaked stream must trigger adaptive restructure")
	}
	ops, err := svc.ExpectedOpsPerEvent()
	if err != nil || ops <= 0 {
		t.Errorf("expected ops = %g, err %v", ops, err)
	}
	st := svc.Stats()
	if st.Published != 1200 {
		t.Errorf("published = %d", st.Published)
	}
}

func TestServicePriority(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe("vip", "profile(temperature >= 40)", SubPriority(10))
	if err != nil {
		t.Fatal(err)
	}
	if w := sub.Profile().Weight(); w != 10 {
		t.Errorf("priority weight = %g", w)
	}
	matched, err := svc.Publish(map[string]float64{"temperature": 45, "humidity": 1, "radiation": 1})
	if err != nil || matched != 1 {
		t.Errorf("matched=%d err=%v", matched, err)
	}
}

func TestNetworkFacade(t *testing.T) {
	sch := monitoringSchema(t)
	nw := NewNetwork(sch)
	defer nw.Close()
	for _, n := range []string{"edge", "core"} {
		if err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Connect("edge", "core"); err != nil {
		t.Fatal(err)
	}
	p, err := NewService(sch) // reuse parser via a throwaway service
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.ParseProfile("hot", "profile(temperature >= 35)")
	p.Close()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := nw.Subscribe("core", prof)
	if err != nil {
		t.Fatal(err)
	}
	svcEv, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := svcEv.ParseEvent("event(temperature=41; humidity=10; radiation=5)")
	svcEv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Publish("edge", ev); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.C():
		if n.Profile != "hot" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no cross-broker notification")
	}
}

// TestNetworkConnectAfterSubscribe: Connect replays the subscriptions both
// sides already hold, so the order of Subscribe and Connect does not matter.
func TestNetworkConnectAfterSubscribe(t *testing.T) {
	sch := monitoringSchema(t)
	svc, err := NewService(sch) // for its parsers only
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	prof, err := svc.ParseProfile("hot", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := svc.ParseEvent("event(temperature=41; humidity=10; radiation=5)")
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(sch)
	defer nw.Close()
	for _, n := range []string{"edge", "core"} {
		if err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := nw.Subscribe("core", prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Connect("edge", "core"); err != nil {
		t.Fatal(err)
	}
	if matched, err := nw.Publish("edge", ev); err != nil || matched != 1 {
		t.Fatalf("publish across the late link matched %d (err %v), want 1", matched, err)
	}
	select {
	case n := <-sub.C():
		if n.Profile != "hot" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification across a link connected after the subscription")
	}
	if st := nw.Stats(); st.Messages != 1 || st.Filtered != 0 {
		t.Errorf("stats = %+v, want one forward and nothing filtered", st)
	}
}

func TestWithEventDistributions(t *testing.T) {
	sch := monitoringSchema(t)
	svc, err := NewService(sch, WithEventDistributions(map[string]string{
		"temperature": "relgauss-low",
		"humidity":    "gauss",
		// radiation defaults to "equal"
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Subscribe("hot", "profile(temperature >= 45)"); err != nil {
		t.Fatal(err)
	}
	// Under the predefined relocated-low distribution almost every event is
	// rejected at the first comparison: the analytic expectation must be
	// close to 1.
	ops, err := svc.ExpectedOpsPerEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ops > 2 {
		t.Errorf("predefined-distribution service expects %.2f ops/event, want ≈1", ops)
	}
	// Matching semantics unchanged.
	matched, err := svc.Publish(map[string]float64{"temperature": 47, "humidity": 50, "radiation": 10})
	if err != nil || matched != 1 {
		t.Errorf("matched=%d err=%v", matched, err)
	}
	if _, err := NewService(sch, WithEventDistributions(map[string]string{"temperature": "bogus"})); err == nil {
		t.Error("unknown distribution name must fail")
	}
}

func TestServiceSubscribeGroup(t *testing.T) {
	svc, err := NewService(monitoringSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	g, err := svc.SubscribeGroup(16, map[string]string{
		"hot": "profile(temperature >= 35)",
		"wet": "profile(humidity >= 90)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	matched, err := svc.Publish(map[string]float64{"temperature": 40, "humidity": 95, "radiation": 1})
	if err != nil || matched != 2 {
		t.Fatalf("matched=%d err=%v", matched, err)
	}
	seen := map[ProfileID]bool{}
	for i := 0; i < 2; i++ {
		select {
		case n := <-g.C():
			seen[n.Profile] = true
		case <-time.After(time.Second):
			t.Fatal("missing group notification")
		}
	}
	if !seen["hot"] || !seen["wet"] {
		t.Errorf("seen = %v", seen)
	}
	if _, err := svc.SubscribeGroup(8, map[string]string{"bad": "profile(!!)"}); err == nil {
		t.Error("bad expression must fail")
	}
}

// TestServiceSharded: the WithShards facade — sharded matching agrees with a
// single-shard service, the batch path reports per-event counts, and the
// analytic cost model still answers.
func TestServiceSharded(t *testing.T) {
	sch := monitoringSchema(t)
	single, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := NewService(sch, WithShards(4), WithAdaptivePolicy(64, 0.01, true))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	auto, err := NewService(sch, WithShards(0)) // GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	auto.Close()

	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		expr := fmt.Sprintf("profile(temperature >= %d; humidity <= %d)", rng.Intn(60)-30, rng.Intn(100))
		id := fmt.Sprintf("p%d", i)
		if _, err := single.Subscribe(id, expr); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Subscribe(id, expr); err != nil {
			t.Fatal(err)
		}
	}

	// Per-event parity.
	for i := 0; i < 200; i++ {
		vals := map[string]float64{
			"temperature": float64(rng.Intn(80) - 30),
			"humidity":    float64(rng.Intn(100)),
			"radiation":   float64(rng.Intn(99) + 1),
		}
		want, err := single.Publish(vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Publish(vals)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("event %d: sharded matched %d, single %d", i, got, want)
		}
	}

	// Batch parity: PublishBatch counts equal per-event publishing.
	evs := make([]Event, 64)
	var want []int
	for i := range evs {
		vals := map[string]float64{
			"temperature": float64(rng.Intn(80) - 30),
			"humidity":    float64(rng.Intn(100)),
			"radiation":   float64(rng.Intn(99) + 1),
		}
		ev, err := sharded.Event(vals)
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
		n, err := single.Publish(vals)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, n)
	}
	counts, err := sharded.PublishBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("batch event %d: %d vs %d", i, counts[i], want[i])
		}
	}

	// The adaptive loop restructured per shard and the cost model answers.
	if sharded.Restructures() == 0 {
		t.Error("sharded adaptive service never restructured")
	}
	ops, err := sharded.ExpectedOpsPerEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Errorf("expected ops = %v", ops)
	}
	if st := sharded.Stats(); st.Published != 200+64 || st.FilterEvents != 200+64 {
		t.Errorf("sharded stats = %+v", st)
	}

	// Event validation errors flow through the facade.
	if _, err := sharded.Event(map[string]float64{"temperature": 1}); err == nil {
		t.Error("partial event must fail")
	}
	if _, err := sharded.Event(map[string]float64{"bogus": 1}); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := sharded.PublishBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}
