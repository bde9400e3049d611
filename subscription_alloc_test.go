package genas

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Subscribe pins: what one subscribe and one unsubscribe of
// TestSubscribeAllocations' service malloc on a 2-core x86-64 machine. Each
// subscription joins a structure another subscriber holds, so that the
// engine's edit is the exact one of a join (internal/core's
// TestEditAllocations), and the pins are exact.
const (
	// A SubHandler subscription: the Subscription with its options and
	// the broker's subscription with its copy of the profile. It has no
	// channel, ring or goroutine: the service's delivery workers call its
	// handler (5 before they did: the channel, its ring and the handler
	// goroutine's closure).
	handlerSubscribeAllocs = 2.0
	// A channel subscription: the same two records, its channel and the
	// channel's ring.
	channelSubscribeAllocs = 4.0
	// The profile's parse: the Profile, its predicate table and the
	// severity set's operands. A subscription joining a structure spelled
	// alike keeps none of them: its copy shares the structure's column.
	parseAllocs = 3.0
	// A subscriber joining or leaving a structure another one keeps: the
	// node's member list, the image's chunk table and the dirty chunk's
	// copy, and the snapshot. An unsubscribe mallocs nothing else.
	joinAllocs, leaveAllocs = 4.0, 4.0
)

// churnSchema is the schema of the churn-mixed benchmark workload.
const churnSchema = "temperature=numeric[-30,50]; humidity=numeric[0,100]; floor=int[0,39]; severity=cat{low,medium,high,critical}"

// churnProfile writes a churn-mixed-shaped profile with a severity subset: a
// temperature range 2–5 wide on a half-degree grid, a humidity range 2–6
// wide and a floor range of 8–20 floors in half the profiles.
func churnProfile(rng *rand.Rand) string {
	tLo := -30 + 0.5*float64(rng.Intn(150))
	hLo := float64(rng.Intn(94))
	var b strings.Builder
	fmt.Fprintf(&b, "profile(temperature in [%g,%g]; humidity in [%g,%g]", tLo, tLo+2+0.5*float64(rng.Intn(7)), hLo, hLo+2+float64(rng.Intn(5)))
	if rng.Float64() < 0.5 {
		lo := rng.Intn(20)
		fmt.Fprintf(&b, "; floor in [%d,%d]", lo, lo+7+rng.Intn(13))
	}
	b.WriteString("; severity in {low, high})")
	return b.String()
}

// settledGoroutines waits until at most n goroutines run and returns the
// count, or fails the test after two seconds.
func settledGoroutines(t *testing.T, n int) int {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if g := runtime.NumGoroutine(); g <= n {
			return g
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still run, want at most %d", runtime.NumGoroutine(), n)
		}
	}
}

// TestSubscribeAllocations pins the mallocs of Service.Subscribe and
// Service.Unsubscribe on a service of 1 000 churn-mixed-shaped structures: a
// subscribe in the benchmark's shape (SubHandler, SubBlocking,
// SubBuffer(16)), a channel subscribe, and an unsubscribe. A subscription
// allocates what it keeps: its record holds the applied options and the
// unsubscribe hook, and the broker's record holds a channel subscription's
// private channel, or a handler subscription's counted buffer. The options
// are made once, as a caller that subscribes in a loop would. A subscribe
// refused for a duplicate id starts no goroutine and leaves no state.
func TestSubscribeAllocations(t *testing.T) {
	sch, err := ParseSchema(churnSchema)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var texts []string
	for len(texts) < 1000 {
		if text := churnProfile(rng); !seen[text] {
			seen[text] = true
			texts = append(texts, text)
		}
	}
	for i, text := range texts {
		if _, err := svc.Subscribe(fmt.Sprintf("p%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.PublishValues(10, 50, 5, 0); err != nil { // builds the automaton
		t.Fatal(err)
	}
	handled := []SubOption{SubHandler(func(Notification) {}), SubBlocking(), SubBuffer(16)}
	buffered := []SubOption{SubBuffer(16)}

	idle := settledGoroutines(t, runtime.NumGoroutine())
	if _, err := svc.Subscribe("p0", texts[1], handled...); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("a subscribe of a taken id = %v, want ErrDuplicateID", err)
	}
	if g := runtime.NumGoroutine(); g != idle {
		t.Errorf("a refused subscribe left %d goroutines running, want %d", g, idle)
	}
	if st := svc.Stats(); st.Subscriptions != 1000 || st.CanonicalNodes != 1000 {
		t.Errorf("a refused subscribe left %d subscriptions on %d structures, want 1000 on 1000", st.Subscriptions, st.CanonicalNodes)
	}
	if raceEnabled {
		t.Skip("the race detector allocates on channel and goroutine operations")
	}

	ids := make([]string, 402)
	for i := range ids {
		ids[i] = fmt.Sprintf("j%d", i)
	}
	next, gone := 0, 0
	subscribe := func(opts []SubOption) func() {
		return func() {
			if _, err := svc.Subscribe(ids[next], texts[next], opts...); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	unsubscribe := func() {
		if err := svc.Unsubscribe(ids[gone]); err != nil {
			t.Fatal(err)
		}
		gone++
	}
	for _, c := range []struct {
		what string
		f    func()
		pin  float64
	}{
		{"Service.Subscribe with SubHandler, SubBlocking and SubBuffer(16)", subscribe(handled), handlerSubscribeAllocs + parseAllocs + joinAllocs},
		{"Service.Subscribe with SubBuffer(16)", subscribe(buffered), channelSubscribeAllocs + parseAllocs + joinAllocs},
		{"Service.Unsubscribe", unsubscribe, leaveAllocs},
	} {
		got := testing.AllocsPerRun(200, c.f)
		t.Logf("%s: %.0f mallocs (pin %.0f)", c.what, got, c.pin)
		if got > c.pin {
			t.Errorf("%s mallocs %.0f times, want at most %.0f", c.what, got, c.pin)
		}
	}
}
