package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"genas/internal/dist"
	"genas/internal/predicate"
)

// TestParallelRebuildIsIdentical: an engine's rebuild — linking the bulk
// load, Build — its Reorder and MatchBatch give the same answers whatever the
// worker count. At GOMAXPROCS 1, 2 and 8, 3 000 subscriptions of nested
// ranges rebuild into the same poset and automaton, re-lay under a skewed P_e
// into the same probe trees, and match a batch of events into the same ids at
// the same comparison counts.
func TestParallelRebuildIsIdentical(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(9))
	profiles := make([]*predicate.Profile, 3000)
	for i := range profiles {
		x, y := rng.Intn(95), rng.Intn(90)
		profiles[i] = predicate.MustParse(s, predicate.ID(fmt.Sprintf("n%d", i)), fmt.Sprintf(
			"profile(x in [%d,%d]; y in [%d,%d])", x, x+rng.Intn(100-x), y, y+1+rng.Intn(9)))
	}
	events := make([][]float64, 2000)
	for i := range events {
		events[i] = []float64{float64(rng.Intn(100)), float64(rng.Intn(100))}
	}
	skew, err := dist.ByName("d4")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		e := NewEngine(s, Config{})
		for _, p := range profiles {
			if err := e.AddProfile(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Rebuild(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%+v %+v\n%s", e.AggStats(), e.Tree().Stats(), e.Tree().Dump())
		e.SetConfig(Config{EventDists: []dist.Dist{dist.New(skew, s.At(0).Domain), dist.New(skew, s.At(1).Domain)}})
		resorted, copied, err := e.Reorder()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := e.MatchBatch(events, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d re-laid, %d copied\n%v", resorted, copied, batch)
		if got := b.String(); procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS %d: another index than at GOMAXPROCS 1", procs)
		}
	}
}
