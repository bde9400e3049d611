package core

import (
	"fmt"
	"strings"
	"testing"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// The churn-sequence oracle harness: one engine (one automaton or several)
// mutated only through incremental AddProfile/Remove, checked against
// two independent oracles after every few operations:
//
//  1. direct evaluation — every live profile's Matches over a probe grid is
//     ground truth for what the filter must return;
//  2. a from-scratch engine — bulk-loaded with the current corpus and built
//     once, proving that the incrementally maintained poset, automaton and
//     slot tables and the canonical ones (one linking pass, one tree build)
//     compute identical match sets.
//
// The byte stream drives the op mix (subscribe, unsubscribe, restructure),
// the profile shapes and the interleaved probes, so the fuzzer explores
// interleavings (insert-after-removal, remove-of-just-inserted, demotion on
// a wider add, unsubscribe of a poset-internal coverer, promotion of orphaned
// kids, a line copy mid-sequence, a new structure on a freed node index,
// reorder of a fragmented successor tree) that the handwritten tests cannot
// enumerate.

// churnProbes is the event grid every oracle check sweeps: domain edges,
// interval endpoints the generator can produce, and interior points.
func churnProbes() [][]float64 {
	axis := []float64{0, 3, 24, 25, 49, 50, 74, 75, 98, 99}
	probes := make([][]float64, 0, len(axis)*len(axis))
	for _, x := range axis {
		for _, y := range axis {
			probes = append(probes, []float64{x, y})
		}
	}
	return probes
}

// churnExpr derives one profile expression from three generator bytes: per
// attribute a constraint kind (don't-care, point, one-sided, interval) and
// its endpoints. At least one attribute is always constrained so the parser
// accepts it.
func churnExpr(kx, ky, v byte) string {
	lo := int(v) % 100
	hi := lo + int(kx/16)%25
	if hi > 99 {
		hi = 99
	}
	mk := func(attr string, kind byte) string {
		switch kind % 4 {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf("%s = %d", attr, lo)
		case 2:
			if kind%8 < 4 {
				return fmt.Sprintf("%s >= %d", attr, lo)
			}
			return fmt.Sprintf("%s <= %d", attr, hi)
		default:
			return fmt.Sprintf("%s in [%d,%d]", attr, lo, hi)
		}
	}
	cx, cy := mk("x", kx), mk("y", ky)
	switch {
	case cx == "" && cy == "":
		return fmt.Sprintf("profile(x >= %d)", lo)
	case cx == "":
		return fmt.Sprintf("profile(%s)", cy)
	case cy == "":
		return fmt.Sprintf("profile(%s)", cx)
	default:
		return fmt.Sprintf("profile(%s; %s)", cx, cy)
	}
}

// runChurnSequence feeds the byte stream as a churn script into filter and
// verifies both oracles, and that every root sits in automaton idx mod n,
// every checkEvery operations, right after each line copy, and once at the
// end. It returns how many line copies the script crossed, and how many
// times a root turned up on a node index another structure had held.
func runChurnSequence(t *testing.T, s *schema.Schema, filter *Engine, data []byte, checkEvery int) (copies, reused int) {
	t.Helper()
	probes := churnProbes()
	live := make(map[predicate.ID]*predicate.Profile)
	order := []predicate.ID{} // insertion order, for deterministic removal picks
	next := 0
	serial := 0

	verify := func(step int) {
		t.Helper()
		// Oracle 2: a fresh engine over the same corpus, canonically built
		// (it stays stale while loading, so its first match links the poset
		// and builds the tree in one go).
		oracle := NewEngine(s, Config{})
		for _, id := range order {
			if err := oracle.AddProfile(live[id]); err != nil {
				t.Fatalf("step %d: oracle add %s: %v", step, id, err)
			}
		}
		// Engine's batch path resolves its own snapshot, so it answers to the
		// same ground truth as Match.
		batch, err := filter.MatchBatch(probes, 2)
		if err != nil {
			t.Fatalf("step %d: match batch: %v", step, err)
		}
		for i, probe := range probes {
			got, _, err := filter.Match(probe)
			if err != nil {
				t.Fatalf("step %d: match %v: %v", step, probe, err)
			}
			// Oracle 1: direct evaluation of every live profile.
			var want []predicate.ID
			for _, id := range order {
				if live[id].Matches(probe) {
					want = append(want, id)
				}
			}
			fromScratch, _, err := oracle.Match(probe)
			if err != nil {
				t.Fatalf("step %d: oracle match %v: %v", step, probe, err)
			}
			g := strings.Join(sortedIDs(got), ",")
			w := strings.Join(sortedIDs(want), ",")
			o := strings.Join(sortedIDs(fromScratch), ",")
			if g != w {
				t.Fatalf("step %d: probe %v: incremental engine matched {%s}, direct evaluation says {%s}", step, probe, g, w)
			}
			if b := strings.Join(sortedIDs(batch[i].IDs), ","); b != w {
				t.Fatalf("step %d: probe %v: incremental engine batch-matched {%s}, direct evaluation says {%s}", step, probe, b, w)
			}
			if o != w {
				t.Fatalf("step %d: probe %v: from-scratch engine matched {%s}, direct evaluation says {%s}", step, probe, o, w)
			}
			// The yes/no probe of the link filters answers to the same truth.
			if hit, err := filter.MatchAny(probe); err != nil || hit != (len(want) > 0) {
				t.Fatalf("step %d: probe %v: MatchAny = %v, %v; direct evaluation matched {%s}", step, probe, hit, err, w)
			}
		}
		checkShares(t, filter)
	}

	take := func() (byte, bool) {
		if next >= len(data) {
			return 0, false
		}
		b := data[next]
		next++
		return b, true
	}

	// reps remembers the structure each root index held, while the poset is
	// linked and no restructure renumbered it.
	reps := make(map[int32]*predicate.Profile)
	step := 0
	for {
		op, ok := take()
		if !ok {
			break
		}
		step++
		copied := filter.copies
		switch {
		case op%8 == 7 && len(order) > 0:
			// Occasionally restructure explicitly: Reorder on a possibly
			// fragmented successor tree — every node, or one attribute's —
			// Rebuild as the heavy variant.
			var err error
			if op%32 == 7 {
				_, _, err = filter.Reorder()
			} else if op%32 == 23 {
				_, _, err = filter.Reorder(step % 2)
			} else {
				err = filter.Rebuild()
			}
			clear(reps)
			if err != nil {
				t.Fatalf("step %d: restructure: %v", step, err)
			}
		case op%3 == 2 && len(order) > 0:
			pick, _ := take()
			i := int(pick) % len(order)
			id := order[i]
			if m, err := filter.Remove(id); err != nil || m.Profile() != live[id] {
				t.Fatalf("step %d: remove %s: %v, %v", step, id, m, err)
			}
			delete(live, id)
			order = append(order[:i], order[i+1:]...)
		default:
			kx, ok1 := take()
			ky, ok2 := take()
			v, ok3 := take()
			if !ok1 || !ok2 || !ok3 {
				break
			}
			// Cap the live corpus so the from-scratch oracle stays cheap.
			if len(order) >= 48 {
				id := order[0]
				if m, err := filter.Remove(id); err != nil || m.Profile() != live[id] {
					t.Fatalf("step %d: evict %s: %v, %v", step, id, m, err)
				}
				delete(live, id)
				order = order[1:]
			}
			serial++
			id := predicate.ID(fmt.Sprintf("f%d", serial))
			p, err := predicate.Parse(s, id, churnExpr(kx, ky, v))
			if err != nil {
				t.Fatalf("step %d: generated expression invalid: %v", step, err)
			}
			if err := filter.AddProfile(p); err != nil {
				t.Fatalf("step %d: add %s: %v", step, id, err)
			}
			live[id] = p
			order = append(order, id)
		}
		if filter.snap.Load().parts != nil {
			for _, r := range filter.agg.RootList() {
				if was, ok := reps[r.Idx]; ok && was != r.Rep {
					reused++
				}
				reps[r.Idx] = r.Rep
			}
		}
		if filter.copies != copied {
			copies++
			verify(step)
		} else if step%checkEvery == 0 {
			verify(step)
		}
	}
	verify(step)
	return copies, reused
}

// FuzzChurnSequence fuzzes interleaved subscribe/unsubscribe/restructure
// sequences through the incremental engine, with one automaton and with
// three, and checks every few steps that its match sets equal both direct
// profile evaluation and a from-scratch rebuild of the same corpus. At three
// automata a share can start without a root, so that its first root takes
// the one-profile build.
func FuzzChurnSequence(f *testing.F) {
	f.Add([]byte{0, 3, 1, 40, 0, 7, 2, 80, 2, 0, 7})
	f.Add([]byte{1, 1, 1, 10, 1, 2, 2, 20, 1, 3, 3, 30, 2, 1, 15})
	f.Add([]byte{4, 15, 3, 55, 4, 11, 2, 95, 7, 2, 0, 4, 255, 255, 255})
	seq := make([]byte, 0, 96)
	for i := 0; i < 24; i++ {
		seq = append(seq, byte(i*5), byte(i*11), byte(i*3), byte(i*17))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		a, _ := schema.NewIntegerDomain(0, 99)
		b, _ := schema.NewIntegerDomain(0, 99)
		s := schema.MustNew(
			schema.Attribute{Name: "x", Domain: a},
			schema.Attribute{Name: "y", Domain: b},
		)
		runChurnSequence(t, s, NewEngine(s, Config{}), data, 8)
		runChurnSequence(t, s, NewSharded(s, Config{}, 3), data, 8)
	})
}

// TestChurnSequenceOracle runs long deterministic churn scripts through an
// engine of one automaton and one of three, so incremental inserts, removals,
// explicit restructures, line copies and reused node indices all get
// oracle-checked.
func TestChurnSequenceOracle(t *testing.T) {
	s := testSchema(t)
	// script is a deterministic, seed-sensitive byte stream (xorshift).
	// Without restructures no byte is 7 mod 8, so no op is an explicit
	// Rebuild or Reorder: nothing but churn touches the index.
	script := func(seed byte, n int, restructures bool) []byte {
		data := make([]byte, n)
		x := uint32(seed) + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x >> 8)
			if !restructures && data[i]%8 == 7 {
				data[i]--
			}
		}
		return data
	}
	for _, tc := range []struct {
		name   string
		filter func() *Engine
	}{
		{"engine", func() *Engine { return NewEngine(s, Config{}) }},
		{"sharded", func() *Engine { return NewSharded(s, Config{}, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := byte(1); seed <= 3; seed++ {
				runChurnSequence(t, s, tc.filter(), script(seed, 600, true), 25)
			}
			// At most 48 live profiles come and go: the lines wear and
			// freed node indices are taken over mid-sequence.
			copies, reused := runChurnSequence(t, s, tc.filter(), script(1, 1200, false), 25)
			t.Logf("the restructure-free script crossed %d line copies and %d reused node indices", copies, reused)
			if copies == 0 || reused == 0 {
				t.Errorf("the restructure-free script crossed %d line copies and %d reused node indices, want both", copies, reused)
			}
		})
	}
}
