package genas

import (
	"errors"
	"testing"
	"time"
)

// newGroupService is a service over the monitoring schema, closed with the
// test.
func newGroupService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := NewService(monitoringSchema(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestSubscribeGroup(t *testing.T) {
	svc := newGroupService(t)
	g, err := svc.SubscribeGroup(16, map[string]string{
		"g1": "profile(temperature >= 30)",
		"g2": "profile(humidity >= 90)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IDs()) != 2 {
		t.Fatalf("ids = %v", g.IDs())
	}
	// One event matching both members yields two ordered notifications on
	// the same channel.
	if _, err := svc.PublishValues(40, 95, 1); err != nil {
		t.Fatal(err)
	}
	got := map[ProfileID]bool{}
	for i := 0; i < 2; i++ {
		select {
		case n := <-g.C():
			got[n.Profile] = true
		case <-time.After(time.Second):
			t.Fatal("missing group notification")
		}
	}
	if !got["g1"] || !got["g2"] {
		t.Errorf("notifications = %v", got)
	}
	// Close unsubscribes all members and closes the channel.
	g.Close()
	g.Close() // idempotent
	if _, open := <-g.C(); open {
		t.Error("group channel must close")
	}
	if n := svc.Stats().Subscriptions; n != 0 {
		t.Errorf("members leaked: %d", n)
	}
}

func TestSubscribeGroupErrors(t *testing.T) {
	svc := newGroupService(t)
	if _, err := svc.SubscribeGroup(0, map[string]string{"x": "profile(temperature >= 0)"}); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("zero buffer: err = %v, want ErrBadBuffer", err)
	}
	if _, err := svc.SubscribeGroup(8, nil); !errors.Is(err, ErrBadProfile) {
		t.Errorf("empty group: err = %v, want ErrBadProfile", err)
	}
	// Duplicate against an existing subscription rolls back atomically.
	if _, err := svc.Subscribe("taken", "profile(temperature >= 0)"); err != nil {
		t.Fatal(err)
	}
	_, err := svc.SubscribeGroup(8, map[string]string{
		"fresh": "profile(temperature >= 0)",
		"taken": "profile(humidity >= 0)",
	})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v", err)
	}
	if n := svc.Stats().Subscriptions; n != 1 {
		t.Errorf("rollback leaked members: %d subs", n)
	}
}

// TestGroupOrderingPreserved: notifications of sequentially published
// events arrive on the group channel in publish order — the property the
// composite sequence operator needs.
func TestGroupOrderingPreserved(t *testing.T) {
	svc := newGroupService(t)
	g, err := svc.SubscribeGroup(256, map[string]string{
		"low":  "profile(temperature <= 0)",
		"high": "profile(temperature >= 30)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 50; i++ {
		temp := -10.0
		if i%2 == 1 {
			temp = 40
		}
		if _, err := svc.PublishValues(temp, 50, 1); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint64
	for i := 0; i < 50; i++ {
		select {
		case n := <-g.C():
			if n.Event.Seq <= lastSeq {
				t.Fatalf("out of order: seq %d after %d", n.Event.Seq, lastSeq)
			}
			lastSeq = n.Event.Seq
		case <-time.After(time.Second):
			t.Fatalf("missing notification %d", i)
		}
	}
}

// TestSubscribeGroupDuplicateInSlice: a group containing the same profile id
// twice must fail with ErrDuplicateID, not panic during rollback. A map of
// primitives cannot hold a duplicate, so this drives the registration under
// SubscribeGroup and MonitorComposite directly.
func TestSubscribeGroupDuplicateInSlice(t *testing.T) {
	svc := newGroupService(t, WithShards(3))
	p1, err := svc.ParseProfile("dup", "profile(temperature >= 0)")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := svc.ParseProfile("dup", "profile(humidity >= 0)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.subscribeGroup(4, []*Profile{p1, p2}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate id within the group: err = %v", err)
	}
	if n := svc.Stats().Subscriptions; n != 0 {
		t.Errorf("failed group left %d subscriptions behind", n)
	}
	// The service stays fully usable afterwards.
	if _, err := svc.SubscribeGroup(4, map[string]string{"ok": "profile(temperature >= 0)"}); err != nil {
		t.Fatal(err)
	}
}
