package genas

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestRetainedValuesSurviveBlockReuse: the broker carves the values of every
// matched event from pooled blocks, and publishers reuse their own buffers
// right after each call. Four publishers run concurrently, each through its
// own entry points, while handler and Group subscribers retain every
// notification. Once all of them are in, every retained event must still
// hold its plan vector, capped at its length, and events of one sequence
// number must agree across subscribers. One handler appends to each
// delivered vector, which must leave the neighbouring event unchanged.
//
// A publisher cannot learn the sequence number it was given, so an event's
// vector names its plan entry: attribute p is the publisher, k its k-th
// event, and x a check value of the two.
func TestRetainedValuesSurviveBlockReuse(t *testing.T) {
	sch := MustSchema(
		Attr("p", MustIntegerDomain(0, 3)),
		Attr("k", MustIntegerDomain(0, 1<<16)),
		Attr("x", MustIntegerDomain(0, 1_000_002)),
	)
	plan := func(p, k int) []float64 {
		return []float64{float64(p), float64(k), float64((k*7919 + p*104729) % 1_000_003)}
	}
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const perPublisher = 2560
	const events = 4 * perPublisher

	// retained collects one subscriber's notifications, closing full when
	// the last one is in.
	type retained struct {
		mu   sync.Mutex
		ns   []Notification
		full chan struct{}
	}
	keep := func(r *retained, n Notification) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.ns = append(r.ns, n); len(r.ns) == events {
			close(r.full)
		}
	}
	all, appender, group := &retained{full: make(chan struct{})}, &retained{full: make(chan struct{})}, &retained{full: make(chan struct{})}
	if _, err := svc.Subscribe("all", "profile(k >= 0)", SubBlocking(), SubHandler(func(n Notification) { keep(all, n) })); err != nil {
		t.Fatal(err)
	}
	var grownMu sync.Mutex
	grown := 0
	if _, err := svc.Subscribe("appender", "profile(x >= 0)", SubBlocking(), SubHandler(func(n Notification) {
		// The -1 lands on the next event's p if append does not copy.
		if v := append(n.Event.Vals, -1); &v[0] == &n.Event.Vals[0] {
			grownMu.Lock()
			grown++
			grownMu.Unlock()
		}
		keep(appender, n)
	})); err != nil {
		t.Fatal(err)
	}
	g, err := svc.SubscribeGroup(events, map[string]string{"low": "profile(p <= 1)", "high": "profile(p >= 2)"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	go func() {
		for n := range g.C() {
			keep(group, n)
		}
	}()

	// Each publisher overwrites its buffers as soon as a call returns.
	publishers := []func(k int) error{
		func() func(int) error {
			vals := make([]float64, 3)
			return func(k int) error {
				copy(vals, plan(0, k))
				_, err := svc.PublishValues(vals...)
				return err
			}
		}(),
		func() func(int) error {
			eb, m := svc.NewEvent(), map[string]float64{}
			return func(k int) error {
				v := plan(1, k)
				if k%2 == 0 {
					_, err := eb.Values(v...).At(time.Unix(int64(k), 0)).Publish()
					return err
				}
				m["p"], m["k"], m["x"] = v[0], v[1], v[2]
				_, err := svc.Publish(m)
				return err
			}
		}(),
		func() func(int) error {
			vals := make([]float64, 3)
			return func(k int) error {
				copy(vals, plan(2, k))
				_, err := svc.PublishEvent(Event{Vals: vals})
				return err
			}
		}(),
		func() func(int) error {
			evs := make([]Event, 8)
			for i := range evs {
				evs[i].Vals = make([]float64, 3)
			}
			return func(k int) error {
				if k%len(evs) != len(evs)-1 {
					return nil // a batch goes out with its last event
				}
				for i := range evs {
					copy(evs[i].Vals, plan(3, k-len(evs)+1+i))
				}
				_, err := svc.PublishBatch(evs)
				return err
			}
		}(),
	}
	var wg sync.WaitGroup
	for _, publish := range publishers {
		wg.Add(1)
		go func(publish func(int) error) {
			defer wg.Done()
			for k := 0; k < perPublisher; k++ {
				if err := publish(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(publish)
	}
	wg.Wait()
	for name, r := range map[string]*retained{"all": all, "appender": appender, "group": group} {
		select {
		case <-r.full:
		case <-time.After(10 * time.Second):
			r.mu.Lock()
			t.Fatalf("%s retained %d of %d notifications", name, len(r.ns), events)
		}
	}

	if grown != 0 {
		t.Errorf("%d delivered vectors had room to grow in place", grown)
	}
	bySeq := make(map[uint64][]float64, events)
	for _, n := range all.ns {
		bySeq[n.Event.Seq] = n.Event.Vals
	}
	planned := make(map[[2]float64]bool, events)
	for seq, v := range bySeq {
		if len(v) != 3 || !slices.Equal(v, plan(int(v[0]), int(v[1]))) {
			t.Fatalf("event %d carries %v, which is no plan vector", seq, v)
		}
		planned[[2]float64{v[0], v[1]}] = true
	}
	if len(bySeq) != events || len(planned) != events {
		t.Fatalf("%d sequence numbers carry %d plan vectors, want %d of each", len(bySeq), len(planned), events)
	}
	for name, r := range map[string]*retained{"all": all, "appender": appender, "group": group} {
		for _, n := range r.ns {
			if v := n.Event.Vals; cap(v) != len(v) || !slices.Equal(v, bySeq[n.Event.Seq]) {
				t.Fatalf("%s: event %d carries %v (cap %d), want %v", name, n.Event.Seq, v, cap(v), bySeq[n.Event.Seq])
			}
		}
	}
}
