// Package stats holds the counters of the service (paper §4.2): the one
// stats record every layer reports in, the lock-free operation account of a
// matcher, and the running-moments accumulator with the precision-based
// stopping rule of the test scenarios TV1/TV2 ("event tests until 95%
// precision for average #operations is reached").
//
// Record is the only counter snapshot type. The broker fills its broker and
// index fields, the wire server adds the overlay and wire fields to the same
// value before it sends it, and the root package's Stats and RemoteStats are
// defined types over it: no layer copies counters field by field. Counters
// live as long as what they count: a subscription's tallies end with it.
package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Record is a counter snapshot of one daemon or service. Its JSON form is
// the wire's stats reply. The broker fills Subscriptions through
// ProfilesPerCanonical; the wire server fills the rest, which stays zero in
// process.
type Record struct {
	// Subscriptions is the number of live subscriptions.
	Subscriptions int `json:"subscriptions"`
	// Published counts posted events, Delivered notifications that reached a
	// subscriber buffer, Dropped notifications discarded for slow consumers.
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// FilterEvents and FilterOps are the engine's operation account (the
	// paper's comparisons-per-event metric); MeanOps is FilterOps /
	// FilterEvents.
	FilterEvents uint64  `json:"filter_events"`
	FilterOps    uint64  `json:"filter_ops"`
	MeanOps      float64 `json:"mean_ops"`
	// Restructures counts adaptive tree restructures (0 without the
	// adaptor).
	Restructures int `json:"restructures,omitempty"`
	// Aggregated is always true: canonical subscription aggregation is the
	// only index. CanonicalNodes counts the distinct canonical predicates the
	// subscriptions intern to, CanonicalRoots the uncovered ones the
	// automaton indexes, PosetDepth the longest covering chain, and
	// ProfilesPerCanonical is Subscriptions / CanonicalNodes (0 when empty).
	Aggregated           bool    `json:"aggregated,omitempty"`
	CanonicalNodes       int     `json:"canonical_nodes,omitempty"`
	CanonicalRoots       int     `json:"canonical_roots,omitempty"`
	PosetDepth           int     `json:"poset_depth,omitempty"`
	ProfilesPerCanonical float64 `json:"profiles_per_canonical,omitempty"`
	// Node names the daemon in the overlay and Peers counts its live peer
	// links (federated daemons only).
	Node  string `json:"fed_node,omitempty"`
	Peers int    `json:"peers,omitempty"`
	// Forwarded counts events sent over peer links, Filtered the link
	// crossings avoided by early rejection at this daemon's links, and
	// DroppedForwards the forwards a full link outbox refused.
	Forwarded       uint64 `json:"forwarded,omitempty"`
	Filtered        uint64 `json:"peer_filtered,omitempty"`
	DroppedForwards uint64 `json:"dropped_forwards,omitempty"`
	// BytesPerEventWire is the mean wire bytes per event received on publish
	// frames, and FramesPipelined counts request frames already buffered
	// behind the one being served (pipelining depth > 1). The buffer is the
	// session's 4 KiB reader, which reading a longer frame can leave empty:
	// a frame queued behind one of more than 4 KiB may go uncounted.
	BytesPerEventWire float64 `json:"bytes_per_event_wire,omitempty"`
	FramesPipelined   uint64  `json:"frames_pipelined,omitempty"`
}

// --- Running moments with precision stopping ---------------------------------

// Running accumulates mean and variance online (Welford) and answers the
// stopping question of TV1/TV2: has the confidence interval for the mean
// shrunk below the requested relative precision?
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe adds a sample.
func (r *Running) Observe(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the sample count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the sample variance (0 for fewer than two samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// z95 is the 97.5% normal quantile for two-sided 95% intervals.
const z95 = 1.959963984540054

// HalfWidth95 returns the half-width of the 95% normal-approximation
// confidence interval for the mean.
func (r *Running) HalfWidth95() float64 {
	if r.n < 2 {
		return math.Inf(1)
	}
	return z95 * r.Std() / math.Sqrt(float64(r.n))
}

// PreciseEnough reports whether the 95% confidence half-width is at most
// rel·|mean|. This is the paper's "until 95% precision for average
// #operations is reached" rule, read as a 95% CI within rel of the mean.
// A minimum of minN samples guards against spuriously early stops.
func (r *Running) PreciseEnough(rel float64, minN uint64) bool {
	if r.n < minN || r.n < 2 {
		return false
	}
	if r.mean == 0 {
		return r.m2 == 0
	}
	return r.HalfWidth95() <= rel*math.Abs(r.mean)
}

// String renders mean ± half-width (n).
func (r *Running) String() string {
	return fmt.Sprintf("%.4f ±%.4f (n=%d)", r.Mean(), r.HalfWidth95(), r.n)
}

// --- Operation accounting ------------------------------------------------------

// OpAccount sums a matcher's operation counts: two atomics, so concurrent
// publishers never wait on each other to book a match.
type OpAccount struct {
	events atomic.Uint64
	ops    atomic.Uint64
}

// Record books one match call that spent ops operations.
//
//genas:hotpath
func (a *OpAccount) Record(ops int) {
	a.events.Add(1)
	a.ops.Add(uint64(ops))
}

// Summary is a snapshot of the account. MeanOps is Ops / Events (0 before
// the first event).
type Summary struct {
	Events  uint64
	Ops     uint64
	MeanOps float64
}

// Summary returns the current totals. The two loads are separate: taken
// while matches run, they may be a few calls apart; once the matchers are
// quiet they are exact.
func (a *OpAccount) Summary() Summary {
	s := Summary{Events: a.events.Load(), Ops: a.ops.Load()}
	if s.Events > 0 {
		s.MeanOps = float64(s.Ops) / float64(s.Events)
	}
	return s
}
