package genas

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"genas/internal/predicate"
)

// column returns the address of a profile's predicate column, which equal
// subscriptions share.
func column(p *Profile) *predicate.Predicate { return &p.Preds[0] }

// TestDuplicatesShareOneColumn: subscriptions spelled alike hold one
// predicate column, whichever entry point registered them (Subscribe,
// SubscribeProfile, SubscribeGroup), while each keeps its own id and
// priority. A set is sorted when it is built, so an in-set listed in
// another order is spelled alike. A profile of the same structure spelled
// another way (a repeated label, a -0 for a 0, a range for a comparison)
// keeps its own column, so the service reports every profile as it was
// written.
func TestDuplicatesShareOneColumn(t *testing.T) {
	sev, err := NewCategoricalDomain("low", "medium", "high")
	if err != nil {
		t.Fatal(err)
	}
	sch := MustSchema(Attr("temperature", MustNumericDomain(-30, 50)), Attr("severity", sev))
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const text = "profile(temperature >= 0; severity in {low, high})"
	const k = 8
	var subs []*Subscription
	for i := range k {
		sub, err := svc.Subscribe(fmt.Sprintf("s%d", i), text, SubPriority(float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := sub.Profile().Priority; got != float64(i) {
			t.Errorf("subscription %s has priority %v, want %d", sub.ID(), got, i)
		}
		subs = append(subs, sub)
	}
	built, err := NewProfile("built").Where("temperature", GE(0)).Where("severity", OneOf("high", "low")).Build(sch)
	if err != nil {
		t.Fatal(err)
	}
	builtCol := column(built)
	sub, err := svc.SubscribeProfile(built)
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, sub)
	if sub, err = svc.Subscribe("reordered", "profile(temperature >= 0; severity in {high, low})"); err != nil {
		t.Fatal(err)
	}
	subs = append(subs, sub)
	g, err := svc.SubscribeGroup(4, map[string]string{"g": text})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if column(built) != builtCol || built.Priority != 0 || built.ID != "built" {
		t.Errorf("the caller's profile was written: %+v", built)
	}

	others := map[string]string{
		"repeated": "profile(temperature >= 0; severity in {low, high, low})",
		"negzero":  "profile(temperature >= -0; severity in {low, high})",
		"ranged":   "profile(temperature in [0,50]; severity in {low, high})",
	}
	for id, text := range others {
		if _, err := svc.Subscribe(id, text); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.CanonicalNodes != 1 || st.Subscriptions != k+6 {
		t.Errorf("%d subscriptions on %d canonical nodes, want %d on the one structure", st.Subscriptions, st.CanonicalNodes, k+6)
	}
	shared := column(subs[0].Profile())
	for _, sub := range subs {
		if column(sub.Profile()) != shared {
			t.Errorf("subscription %s holds a column of its own, want the one %s holds", sub.ID(), subs[0].ID())
		}
	}
	for _, p := range svc.brk.Profiles() {
		text, other := others[string(p.ID)]
		if !other {
			if column(p) != shared {
				t.Errorf("subscription %s holds a column of its own", p.ID)
			}
			continue
		}
		if column(p) == shared {
			t.Errorf("%s (%s) shares the column of %s", p.ID, text, subs[0].ID())
		}
		want, err := svc.ParseProfile(string(p.ID), text)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Render(sch); got != want.Render(sch) {
			t.Errorf("%s is reported as %s, want it as written: %s", p.ID, got, want.Render(sch))
		}
	}
}

// TestSubscribeProfileNeverWritesTheProfile: one *Profile handed to two
// services at once, with and without a priority, is read and never written
// (the race detector sees a write), and each service keeps the priority it
// registered.
func TestSubscribeProfileNeverWritesTheProfile(t *testing.T) {
	sch := monitoringSchema(t)
	p, err := NewProfile("shared").Where("temperature", GE(35)).Priority(2).Build(sch)
	if err != nil {
		t.Fatal(err)
	}
	want := *p
	wantPreds := slices.Clone(p.Preds)
	svcs := make([]*Service, 2)
	for i := range svcs {
		if svcs[i], err = NewService(sch); err != nil {
			t.Fatal(err)
		}
		defer svcs[i].Close()
		// An equal structure held already: the shared profile joins it.
		if _, err := svcs[i].Subscribe("held", "profile(temperature >= 35)"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	subs := make([]*Subscription, len(svcs))
	for i, svc := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []SubOption{SubPriority(float64(5 + i))}
			if i == 0 {
				opts = nil
			}
			sub, err := svc.SubscribeProfile(p, opts...)
			if err != nil {
				t.Error(err)
				return
			}
			subs[i] = sub
			_ = p.Render(sch) // a concurrent reader of the caller's profile
		}()
	}
	wg.Wait()
	if p.ID != want.ID || p.Priority != want.Priority || &p.Preds[0] != &want.Preds[0] || !slices.EqualFunc(p.Preds, wantPreds, samePredicate) {
		t.Errorf("the caller's profile changed: %+v, want %+v", p, want)
	}
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		wantPri := float64(5 + i)
		if i == 0 {
			wantPri = 2
		}
		if got := sub.Profile().Priority; got != wantPri {
			t.Errorf("service %d registered priority %v, want %v", i, got, wantPri)
		}
		if sub.Profile() == p {
			t.Errorf("service %d registered the caller's profile, not a copy", i)
		}
	}
}

func samePredicate(a, b predicate.Predicate) bool {
	return a.Attr == b.Attr && a.Op == b.Op && a.Value == b.Value && a.Hi == b.Hi && slices.Equal(a.Set, b.Set)
}

// Duplicate subscription pin: what one more channel subscription of a held
// structure keeps on a 2-core x86-64 machine (Go 1.24), measured as
// TestConnectionHeldBytes measures: ≈ 470 B, its two records
// (genas.Subscription 88 B in the 96 B class, broker.Subscription 112 B),
// its channel and one-notification ring (96 B each), its poset member and
// its id's map entry. Its predicate column is the structure's, and it has
// no end channel of its own: with its own 48 B profile, 112 B column and
// 96 B end channel it held ≈ 770 B.
const duplicateSubBytes = 512

// TestDuplicateSubscriptionHeldBytes pins what a subscription of a
// structure the service holds already costs: 10 000 channel subscriptions
// of one text, ids made beforehand, grow the heap by at most
// duplicateSubBytes each.
func TestDuplicateSubscriptionHeldBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes do not hold under the race detector")
	}
	const n = 10_000
	svc := alarmService(t)
	const text = "profile(temperature >= 35; humidity in [20,80])"
	ids := make([]string, n+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("dup%d", i)
	}
	// The first subscription makes the structure and the automaton.
	if _, err := svc.Subscribe(ids[n], text, SubBuffer(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishValues(40, 50, 1); err != nil {
		t.Fatal(err)
	}
	heap0 := liveHeap()
	subs := make([]*Subscription, n)
	for i := range subs {
		var err error
		if subs[i], err = svc.Subscribe(ids[i], text, SubBuffer(1)); err != nil {
			t.Fatal(err)
		}
	}
	per := (liveHeap() - heap0) / n
	t.Logf("a duplicate subscription holds %d bytes of heap (pin %d)", per, duplicateSubBytes)
	if per > duplicateSubBytes {
		t.Errorf("a duplicate subscription holds %d bytes of heap, want at most %d", per, duplicateSubBytes)
	}
	if column(subs[0].Profile()) != column(subs[n-1].Profile()) {
		t.Error("the duplicates hold columns of their own")
	}
}

// liveHeap returns the bytes the heap holds after two collections (the
// second empties what sync.Pool's victim cache kept through the first).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
