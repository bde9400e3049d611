package adaptive

import (
	"fmt"
	"math/rand"
	"testing"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/predicate"
	"genas/internal/schema"
	"genas/internal/tree"
)

// TestUserCentricFavorsPriorityProfiles verifies the paper's user-centric
// claim end to end: under the user-centric goal (Measure V3 with profile
// priorities), the high-priority profile's expected notification cost drops
// relative to the event-centric configuration, even though the average cost
// per event may rise ("algorithms based on V2 and V3 lead to inferior
// average response time according to the events, but to faster
// notifications for profiles with high priority", §4.3).
func TestUserCentricFavorsPriorityProfiles(t *testing.T) {
	d, _ := schema.NewIntegerDomain(0, 99)
	s := schema.MustNew(schema.Attribute{Name: "v", Domain: d})

	// The VIP watches value 90; the crowd watches scattered values. Events
	// concentrate where the crowd watches, so event-centric ordering puts
	// the VIP's region late in the scan.
	build := func(goal Goal) (*core.Engine, predicate.ID) {
		e := core.NewEngine(s, core.Config{Search: tree.SearchLinear}) // the goals are value orders of the scan
		vip := predicate.MustParse(s, "vip", "profile(v = 90)")
		vip.Priority = 50
		if err := e.AddProfile(vip); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 60; i++ {
			expr := fmt.Sprintf("profile(v = %d)", rng.Intn(50))
			p := predicate.MustParse(s, predicate.ID(fmt.Sprintf("c%d", i)), expr)
			if err := e.AddProfile(p); err != nil {
				t.Fatal(err)
			}
		}
		a, err := New(e, Policy{Goal: goal, Bins: 20})
		if err != nil {
			t.Fatal(err)
		}
		// History: events concentrate on the crowd's region [0,50).
		src := dist.New(dist.PeakLow(0.9), d)
		for i := 0; i < 3000; i++ {
			a.Observe([]float64{src.Sample(rng)})
		}
		if err := a.ForceAdapt(); err != nil {
			t.Fatal(err)
		}
		return e, "vip"
	}

	vipCost := func(goal Goal) float64 {
		e, _ := build(goal)
		analysis, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		// The engine's tree indexes canonical structures, not subscribers:
		// the vip's slot is the one whose structure accepts v = 90.
		tr := e.Tree()
		for pi, p := range tr.Profiles() {
			if p.Matches([]float64{90}) {
				pc := analysis.PerProfile[pi]
				if pc.MatchProb == 0 {
					t.Fatal("vip profile unreachable")
				}
				return pc.CondOps
			}
		}
		t.Fatal("vip profile missing")
		return 0
	}

	eventCentric := vipCost(EventCentric)
	userCentric := vipCost(UserCentric)
	if userCentric >= eventCentric {
		t.Errorf("user-centric vip cost %.3f must beat event-centric %.3f",
			userCentric, eventCentric)
	}
}
