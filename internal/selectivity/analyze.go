package selectivity

import (
	"genas/internal/dist"
	"genas/internal/tree"
)

// Analysis is the analytic expected-cost breakdown of a configured tree under
// per-attribute event distributions (independent attributes, as the paper's
// tests assume). All quantities are expectations per posted event.
//
// TotalOps = MatchOps + R0Ops realizes Eq. 2 summed over attributes:
// R = Σ_j E(X_j | X_{j−1}…) + Σ_j R₀(P_e^j, x₀^j).
type Analysis struct {
	// MatchOps is Σ_j E(X_j | …): operations spent traversing edges.
	MatchOps float64
	// R0Ops is Σ_j R₀: operations spent identifying non-matching events.
	R0Ops float64
	// TotalOps is the expected operations per event.
	TotalOps float64
	// MatchProb is the probability that an event reaches a leaf (matches at
	// least one profile).
	MatchProb float64
	// ExpMatches is the expected number of matched profiles per event.
	ExpMatches float64
	// PerLevelOps[l] is the expected operations spent at tree level l,
	// split into the matched-path part E(X_l | …) and the non-match part
	// R₀ (Example 3 reports the matched addends: 2.44 + 0.568 + 0.363).
	PerLevelOps   []float64
	PerLevelMatch []float64
	PerLevelR0    []float64
	// PerProfile is indexed by the tree's dense profile index. For an
	// engine's tree that is one entry per slot — a canonical structure no
	// other covers, or one whose root has left, which reads zero — not one
	// per subscription.
	PerProfile []ProfileCost
}

// ProfileCost is the per-profile view behind Fig. 5(b): the expected
// operations performed until the profile's leaf is reached, conditioned on
// the event matching the profile.
type ProfileCost struct {
	// MatchProb is the probability an event matches the profile.
	MatchProb float64
	// CondOps is E[operations | event matches the profile]; for a profile
	// parked at a node, the operations until that node.
	CondOps float64
}

// OpsPerNotification returns TotalOps / ExpMatches: the Fig. 5(c) metric
// "average operations per event and profile". It is +Inf when no profile can
// match.
func (a Analysis) OpsPerNotification() float64 {
	if a.ExpMatches == 0 {
		return 0
	}
	return a.TotalOps / a.ExpMatches
}

// MeanProfileOps returns the unweighted mean of CondOps over profiles with
// non-zero match probability: the Fig. 5(b) metric "average operations per
// profile".
func (a Analysis) MeanProfileOps() float64 {
	sum, n := 0.0, 0
	for _, pc := range a.PerProfile {
		if pc.MatchProb > 0 {
			sum += pc.CondOps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PerLevelOpsMatched returns the matched-path expectation E(X_l | …) at tree
// level l — the addends Example 3 reports.
func (a Analysis) PerLevelOpsMatched(l int) float64 { return a.PerLevelMatch[l] }

// nodeAcc accumulates path weight and weighted cumulative operations for one
// shared automaton state.
type nodeAcc struct {
	w float64 // Σ over paths of reach probability
	c float64 // Σ over paths of probability·(ops spent so far)
	m float64 // the part of w that has passed a profile parked on the path
}

// Probe is the per-piece cost of the tree's own node search, for Analyze:
// Pieces.Cost runs the probe of Tree.Match.
func Probe(_ tree.View, p *tree.Pieces) (edge, ops int) { return p.Cost() }

// Analyze computes the expected filter cost of the tree under the event
// distributions (indexed by schema attribute), charging every piece p of every
// node n what cost(n, p) says a search spends on an event there. Given Probe,
// the node search of Tree.Match, the analytic and simulated results agree by
// construction (see the equivalence property test); the reproduction passes
// the paper's scans instead. Profiles
// parked at a node (View.Extra) match whatever reaches it, even where the
// walk dead-ends below, as Tree.Match collects them.
func Analyze(t *tree.Tree, edists []dist.Dist, cost func(n tree.View, p *tree.Pieces) (edge, ops int)) Analysis {
	height := t.Schema().N()
	res := Analysis{
		PerLevelOps:   make([]float64, height),
		PerLevelMatch: make([]float64, height),
		PerLevelR0:    make([]float64, height),
		PerProfile:    make([]ProfileCost, len(t.Profiles())),
	}
	// acc[id] accumulates node id.
	acc := make([]nodeAcc, t.Slots())
	acc[t.Root().ID].w = 1

	profProb := make([]float64, len(t.Profiles()))
	profOps := make([]float64, len(t.Profiles()))

	for l, level := range t.Levels() {
		for _, id := range level {
			a := &acc[id]
			if a.w == 0 {
				continue
			}
			n := t.Node(l, id)
			if parked := n.Extra(); len(parked) > 0 {
				a.m = a.w
				res.ExpMatches += a.w * float64(len(parked))
				for _, pi := range parked {
					profProb[pi] += a.w
					profOps[pi] += a.c
				}
			}
			ed := edists[n.Attr]
			for pc := t.Pieces(n); pc.Next(); {
				p := ed.Mass(pc.Iv)
				if p == 0 {
					continue
				}
				_, ops := cost(n, &pc)
				cost := float64(ops)
				res.PerLevelOps[l] += a.w * p * cost
				if pc.Edge < 0 {
					res.R0Ops += a.w * p * cost
					res.PerLevelR0[l] += a.w * p * cost
					res.MatchProb += a.m * p
					continue
				}
				res.MatchOps += a.w * p * cost
				res.PerLevelMatch[l] += a.w * p * cost
				to := n.Edges()[pc.Edge].To
				if l+1 < height {
					ch := &acc[to]
					ch.w += a.w * p
					ch.c += a.c*p + a.w*p*cost
					ch.m += a.m * p
					continue
				}
				// Leaf edge: notification point for every matched profile.
				leaf := t.Leaf(to)
				res.MatchProb += a.w * p
				res.ExpMatches += a.w * p * float64(len(leaf))
				pathOps := a.c*p + a.w*p*cost
				for _, pi := range leaf {
					profProb[pi] += a.w * p
					profOps[pi] += pathOps
				}
			}
		}
	}

	res.TotalOps = res.MatchOps + res.R0Ops
	for i := range profProb {
		if profProb[i] > 0 {
			res.PerProfile[i] = ProfileCost{
				MatchProb: profProb[i],
				CondOps:   profOps[i] / profProb[i],
			}
		}
	}
	return res
}
