package agg

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"genas/internal/predicate"
)

// order writes down the poset's order: every node's kids and parents, in
// list order, then the roots and the stats.
func order(po *Poset) string {
	var b strings.Builder
	for _, n := range po.nodes {
		fmt.Fprintf(&b, "%d kids", n.idx)
		for _, k := range n.kids {
			fmt.Fprintf(&b, " %d", k.idx)
		}
		b.WriteString(" parents")
		for _, p := range n.parents {
			fmt.Fprintf(&b, " %d", p.idx)
		}
		b.WriteByte('\n')
	}
	for _, r := range po.RootList() {
		fmt.Fprintf(&b, "root %d\n", r.Idx)
	}
	fmt.Fprintf(&b, "%+v", po.Stats())
	return b.String()
}

// TestParallelCompactIsIdentical: Compact's parallel covering scan changes
// nothing. At GOMAXPROCS 1, 2 and 8 it links 3 000 bulk-interned structures
// of nested ranges into the same order — the same kids and parents in the
// same list order, the same roots — and does so again when a second bulk
// load follows churn that left holes behind.
func TestParallelCompactIsIdentical(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	exprs := make([]string, 3000)
	for i := range exprs {
		var preds []string
		for _, a := range []string{"x", "y"} {
			if rng.Intn(4) > 0 || len(preds) == 0 {
				lo := rng.Intn(90)
				preds = append(preds, fmt.Sprintf("%s in [%d,%d]", a, lo, lo+1+rng.Intn(99-lo)))
			}
		}
		exprs[i] = "profile(" + strings.Join(preds, "; ") + ")"
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [2]string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		po := NewPoset(s)
		for i, e := range exprs {
			po.Intern(Bare(parse(t, s, fmt.Sprintf("p%d", i), e)))
		}
		po.Compact()
		bulk := order(po)
		for i := 0; i < len(exprs); i += 3 {
			po.Remove(predicate.ID(fmt.Sprintf("p%d", i)))
		}
		for i := 0; i < len(exprs); i += 6 {
			po.Intern(Bare(parse(t, s, fmt.Sprintf("q%d", i), exprs[i])))
		}
		po.Compact()
		got := [2]string{bulk, order(po)}
		if procs == 1 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS %d links another order than GOMAXPROCS 1", procs)
		}
	}
}
