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
	// engine's tree that is one entry per indexed root — a canonical
	// structure no other covers — not one per subscription.
	PerProfile []ProfileCost
}

// ProfileCost is the per-profile view behind Fig. 5(b): the expected
// operations performed until the profile's leaf is reached, conditioned on
// the event matching the profile.
type ProfileCost struct {
	// MatchProb is the probability an event matches the profile.
	MatchProb float64
	// CondOps is E[operations | event matches the profile]; for a profile an
	// incremental insert parked at a node, the operations until that node.
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

// Analyze computes the expected filter cost of the tree under the event
// distributions (indexed by schema attribute). The cost model is exactly the
// one the empirical matcher executes — Pieces.Cost runs the node searches of
// Tree.Match — so analytic and simulated results agree by construction (see
// the equivalence property test). Profiles an incremental insert parked at a
// node (Node.Extra) match whatever reaches it, even where the walk dead-ends
// below, as Tree.Match collects them.
func Analyze(t *tree.Tree, edists []dist.Dist) Analysis {
	res := Analysis{
		PerLevelOps:   make([]float64, t.Schema().N()),
		PerLevelMatch: make([]float64, t.Schema().N()),
		PerLevelR0:    make([]float64, t.Schema().N()),
		PerProfile:    make([]ProfileCost, len(t.Profiles())),
	}
	acc := map[*tree.Node]*nodeAcc{t.Root(): {w: 1}}

	profProb := make([]float64, len(t.Profiles()))
	profOps := make([]float64, len(t.Profiles()))

	for _, level := range t.Levels() {
		for _, n := range level {
			a, ok := acc[n]
			if !ok || a.w == 0 {
				continue
			}
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
				_, ops := pc.Cost()
				cost := float64(ops)
				res.PerLevelOps[n.Level] += a.w * p * cost
				if pc.Edge < 0 {
					res.R0Ops += a.w * p * cost
					res.PerLevelR0[n.Level] += a.w * p * cost
					res.MatchProb += a.m * p
					continue
				}
				res.MatchOps += a.w * p * cost
				res.PerLevelMatch[n.Level] += a.w * p * cost
				edge := &n.Edges()[pc.Edge]
				if edge.Child != nil {
					ch, ok := acc[edge.Child]
					if !ok {
						ch = &nodeAcc{}
						acc[edge.Child] = ch
					}
					ch.w += a.w * p
					ch.c += a.c*p + a.w*p*cost
					ch.m += a.m * p
					continue
				}
				// Leaf edge: notification point for every matched profile.
				res.MatchProb += a.w * p
				res.ExpMatches += a.w * p * float64(len(edge.Leaf()))
				pathOps := a.c*p + a.w*p*cost
				for _, pi := range edge.Leaf() {
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
