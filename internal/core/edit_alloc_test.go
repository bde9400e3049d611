package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// editSchema is the schema of the churn-mixed benchmark workload: two
// numeric ranges, an integer floor and a categorical severity.
func editSchema(t testing.TB) *schema.Schema {
	t.Helper()
	temp, err := schema.NewNumericDomain(-30, 50)
	if err != nil {
		t.Fatal(err)
	}
	hum, err := schema.NewNumericDomain(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := schema.NewIntegerDomain(0, 39)
	if err != nil {
		t.Fatal(err)
	}
	sev, err := schema.NewCategoricalDomain("low", "medium", "high", "critical")
	if err != nil {
		t.Fatal(err)
	}
	return schema.MustNew(
		schema.Attribute{Name: "temperature", Domain: temp},
		schema.Attribute{Name: "humidity", Domain: hum},
		schema.Attribute{Name: "floor", Domain: floor},
		schema.Attribute{Name: "severity", Domain: sev},
	)
}

// editProfile writes a churn-mixed-shaped profile: a temperature range 2–5
// wide on a half-degree grid, a humidity range 2–6 wide, a floor range of
// 8–20 floors in half the profiles and a severity subset in 0.4 of them.
func editProfile(rng *rand.Rand) string {
	tLo := -30 + 0.5*float64(rng.Intn(150))
	hLo := float64(rng.Intn(94))
	var b strings.Builder
	fmt.Fprintf(&b, "profile(temperature in [%g,%g]; humidity in [%g,%g]", tLo, tLo+2+0.5*float64(rng.Intn(7)), hLo, hLo+2+float64(rng.Intn(5)))
	if rng.Float64() < 0.5 {
		lo := rng.Intn(20)
		fmt.Fprintf(&b, "; floor in [%d,%d]", lo, lo+7+rng.Intn(13))
	}
	if rng.Float64() < 0.4 {
		b.WriteString("; severity in {low, high}")
	}
	b.WriteString(")")
	return b.String()
}

// Edit pins: what one edit of TestEditAllocations' engines mallocs on a
// 2-core x86-64 machine. An engine edit may take 10 % more, at least one
// malloc, for the tables' amortized growth; Parse takes exactly its three.
const (
	// A new structure: its poset node with its representative, the node's
	// form and member list, the successor tree with its graph meta, the
	// image's chunk table and the dirty chunk's copy, and the snapshot; the
	// line's arena chunks add a fraction of one. The delta naming the node
	// is the poset's scratch.
	addNewAllocs = 7.0
	// A subscriber joining an existing structure: the node's member list,
	// the image's chunk table and the dirty chunk's copy, and the snapshot.
	addJoinAllocs = 4.0
	// A structure's last subscriber leaving: the successor tree with its
	// graph meta, the image's chunk table and the dirty chunk's copy, and
	// the snapshot; the line's arena chunks add a fraction of one. The delta
	// naming the node is the poset's scratch.
	removeAllocs = 4.0
	// The Profile, its predicate table and the severity set's operands.
	parseAllocs = 3.0
)

// TestEditAllocations pins the mallocs of an index edit on an engine of
// 1 000 churn-mixed-shaped structures, with one automaton and with two: Add
// of a new structure, Add of a subscriber to an existing one, Remove of a
// structure's last subscriber, and Parse of the profile text a subscribe
// reads. An edit allocates what the index keeps, in a few pieces: the tree's
// inserts carve from their line's arena, the poset canonicalizes in its own
// scratch, and the snapshot is one object however many automata it holds.
// No measured edit wears a line: a line copy allocates per arena chunk, and
// the pins are for the edits between two copies. The one automaton's line
// wears after some 600 edits, so each entry point is measured over 200.
func TestEditAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled merge scratch, which then allocates")
	}
	s := editSchema(t)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var texts []string
	for len(texts) < 1400 {
		if text := editProfile(rng); !seen[text] {
			seen[text] = true
			texts = append(texts, text)
		}
	}
	profiles := make([]*predicate.Profile, len(texts))
	for i, text := range texts {
		profiles[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("p%d", i)), text)
	}
	const text = "profile(temperature in [12.5,16]; humidity in [40,45]; floor in [3,14]; severity in {low, high})"
	parse := func() { _, _ = predicate.Parse(s, "q", text) }
	for _, n := range []int{1, 2} {
		e := NewSharded(s, Config{}, n)
		for _, p := range profiles[:1000] {
			if err := e.AddProfile(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := e.Match([]float64{10, 50, 5, 0}); err != nil {
			t.Fatal(err)
		}
		joiners := make([]*predicate.Profile, 201)
		for i := range joiners {
			p := *profiles[i]
			p.ID = predicate.ID(fmt.Sprintf("j%d", i))
			joiners[i] = &p
		}
		next, joins := 1000, 0
		addNew := func() {
			if err := e.AddProfile(profiles[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		addJoin := func() {
			if err := e.AddProfile(joiners[joins]); err != nil {
				t.Fatal(err)
			}
			joins++
		}
		for range 50 {
			addNew()
		}
		removed := 1000
		remove := func() {
			if _, err := e.Remove(profiles[removed].ID); err != nil {
				t.Fatal(err)
			}
			removed++
		}
		copies := e.copies
		for _, c := range []struct {
			what string
			f    func()
			pin  float64
		}{
			{"Engine.Add of a new structure", addNew, addNewAllocs},
			{"Engine.Add to an existing structure", addJoin, addJoinAllocs},
			{"Engine.Remove of a structure's last subscriber", remove, removeAllocs},
			{"predicate.Parse", parse, parseAllocs},
		} {
			got, limit := testing.AllocsPerRun(200, c.f), c.pin
			if c.pin != parseAllocs {
				limit = max(c.pin*1.1, c.pin+1)
			}
			t.Logf("%d automata: %s: %.0f mallocs (pin %.0f, limit %.1f)", n, c.what, got, c.pin, limit)
			if got > limit {
				t.Errorf("%d automata: %s mallocs %.0f times, want at most %.1f", n, c.what, got, limit)
			}
		}
		if e.copies != copies {
			t.Errorf("%d automata: the measured edits crossed %d line copies; the pins are for edits that copy no line", n, e.copies-copies)
		}
	}
}
