package genas

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestEventBuilderPaths(t *testing.T) {
	svc := alarmService(t)
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35)")
	if err != nil {
		t.Fatal(err)
	}

	// Named assembly, zero-map publish.
	eb := svc.NewEvent()
	matched, err := eb.Set("temperature", 40).Set("humidity", 50).Set("radiation", 2).Publish()
	if err != nil || matched != 1 {
		t.Fatalf("matched=%d err=%v", matched, err)
	}
	n, err := sub.Next(t.Context())
	if err != nil || n.Event.Vals[0] != 40 {
		t.Fatalf("notification = %+v, %v", n, err)
	}

	// The builder reset itself: the next event starts blank.
	if _, err := eb.Set("temperature", 10).Publish(); err == nil {
		t.Fatal("incomplete event after reset must fail")
	}

	// Positional assembly.
	if matched, err := eb.Values(36, 1, 1).Publish(); err != nil || matched != 1 {
		t.Fatalf("values path: matched=%d err=%v", matched, err)
	}
	if _, err := sub.Next(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Timestamped events keep their occurrence time through delivery.
	at := time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	if matched, err := eb.Values(37, 1, 1).At(at).Publish(); err != nil || matched != 1 {
		t.Fatalf("timestamped: matched=%d err=%v", matched, err)
	}
	n, err = sub.Next(t.Context())
	if err != nil || !n.Event.Time.Equal(at) {
		t.Fatalf("delivered time = %v, %v", n.Event.Time, err)
	}

	// Errors stick until publish and reset with it.
	if _, err := eb.Set("bogus", 1).Set("temperature", 40).Publish(); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("unknown attribute: %v", err)
	}
	if _, err := eb.Values(1, 2).Publish(); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := eb.Values(999, 1, 1).Publish(); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("out-of-domain: %v", err)
	}

	// Event() yields an owned value without resetting the builder.
	ev, err := eb.Values(38, 2, 3).Event()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := eb.Event()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Vals[0] != 38 || ev2.Vals[0] != 38 {
		t.Errorf("events = %v, %v", ev.Vals, ev2.Vals)
	}
	ev.Vals[0] = 0
	if ev2.Vals[0] != 38 {
		t.Error("Event() must return owned value slices")
	}
}

func TestEventBuilderUnbound(t *testing.T) {
	sch := builderSchema(t)
	eb := NewEvent(sch)
	ev, err := eb.Set("temperature", 1).Set("humidity", 2).Set("count", 3).SetLabel("severity", "mid").Event()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Vals[3] != 1 {
		t.Errorf("severity code = %g, want 1 (mid)", ev.Vals[3])
	}
	if _, err := eb.Publish(); err == nil {
		t.Error("publish on an unbound builder must fail")
	}
	eb.Reset()
	if _, err := eb.SetLabel("severity", "nope").Event(); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("unknown label: %v", err)
	}
	eb.Reset()
	if _, err := eb.SetLabel("temperature", "mid").Event(); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("label on numeric: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	svc := alarmService(t, WithDefaults(map[string]float64{"radiation": 1, "humidity": 0}))
	sub, err := svc.Subscribe("hot", "profile(temperature >= 35; radiation <= 5)")
	if err != nil {
		t.Fatal(err)
	}

	// Map path: omitted attributes fall back to their defaults.
	matched, err := svc.Publish(map[string]float64{"temperature": 40})
	if err != nil || matched != 1 {
		t.Fatalf("matched=%d err=%v", matched, err)
	}
	n, err := sub.Next(t.Context())
	if err != nil || n.Event.Vals[1] != 0 || n.Event.Vals[2] != 1 {
		t.Fatalf("defaults not applied: %+v, %v", n.Event.Vals, err)
	}

	// Parsed path: same fallback.
	if ev, err := svc.ParseEvent("event(temperature=40; radiation=3)"); err != nil || !slices.Equal(ev.Vals, []float64{40, 0, 3}) {
		t.Fatalf("parsed defaults: %v, %v", ev.Vals, err)
	}

	// Builder path: same fallback.
	if matched, err := svc.NewEvent().Set("temperature", 41).Publish(); err != nil || matched != 1 {
		t.Fatalf("builder defaults: matched=%d err=%v", matched, err)
	}

	// Explicit values still win over defaults.
	if matched, err := svc.Publish(map[string]float64{"temperature": 40, "radiation": 50}); err != nil || matched != 0 {
		t.Fatalf("explicit value must override default: matched=%d err=%v", matched, err)
	}

	// A service without defaults still requires every attribute.
	strict := alarmService(t)
	if _, err := strict.Publish(map[string]float64{"temperature": 40}); err == nil {
		t.Error("omission without defaults must fail")
	}
	if _, err := strict.ParseEvent("event(temperature=40)"); !errors.Is(err, ErrArity) {
		t.Errorf("parsing an omission without defaults = %v, want ErrArity", err)
	}

	// Defaults are validated against the domain at construction.
	if _, err := NewService(monitoringSchema(t), WithDefaults(map[string]float64{"radiation": 0})); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("out-of-domain default: %v", err) // radiation domain is [1,100]
	}
	if _, err := NewService(monitoringSchema(t), WithDefaults(map[string]float64{"bogus": 1})); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("unknown default attribute: %v", err)
	}
}

// TestPublishValuesParity: the zero-alloc path and the map path agree on
// matching and deliver equal notifications.
func TestPublishValuesParity(t *testing.T) {
	a := alarmService(t)
	b := alarmService(t)
	for _, svc := range []*Service{a, b} {
		if _, err := svc.Subscribe("hot", "profile(temperature >= 35; humidity >= 90)"); err != nil {
			t.Fatal(err)
		}
	}
	cases := [][3]float64{{40, 95, 1}, {40, 10, 1}, {-5, 95, 50}, {35, 90, 100}}
	for _, c := range cases {
		want, err := a.Publish(map[string]float64{"temperature": c[0], "humidity": c[1], "radiation": c[2]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.PublishValues(c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("PublishValues(%v) = %d, map path %d", c, got, want)
		}
	}
	as, bs := a.Stats(), b.Stats()
	if as.Published != bs.Published || as.Delivered != bs.Delivered {
		t.Errorf("stats diverge: %+v vs %+v", as, bs)
	}
}
