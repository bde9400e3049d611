// Package stats implements the statistics subsystem of the prototype
// (paper §4.2): counters for events, attributes, operators and values, a
// running-moments accumulator with the precision-based stopping rule used by
// the test scenarios TV1/TV2 ("event tests until 95% precision for average
// #operations is reached"), and operation accounting for matchers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Counters tallies observations by string key. It backs the paper's
// "statistic objects with counters for events, attributes, operators, and
// values"; for tests the counters can be preloaded to simulate a
// distribution without posting events. Counters is safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]uint64)}
}

// Inc adds one to key.
func (c *Counters) Inc(key string) { c.Add(key, 1) }

// Add adds delta to key.
func (c *Counters) Add(key string, delta uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] += delta
}

// Set overwrites key (the "manipulate the counters in order to simulate a
// distribution" hook).
func (c *Counters) Set(key string, v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// Get returns the current count of key.
func (c *Counters) Get(key string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// Total sums all counters.
func (c *Counters) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t uint64
	for _, v := range c.m {
		t += v
	}
	return t
}

// Snapshot returns a sorted copy of the counters.
func (c *Counters) Snapshot() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, Entry{Key: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Entry is one counter in a snapshot.
type Entry struct {
	Key   string
	Count uint64
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

// OpAccount aggregates matcher operation counts across matches; it is safe
// for concurrent use and cheap enough for the broker's publish path.
type OpAccount struct {
	mu      sync.Mutex
	events  uint64
	ops     uint64
	matches uint64
	running Running
}

// Record logs one match call: the operations spent and the number of
// profiles matched.
func (a *OpAccount) Record(ops, matched int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	a.ops += uint64(ops)
	a.matches += uint64(matched)
	a.running.Observe(float64(ops))
}

// Summary is a snapshot of the account.
type Summary struct {
	Events       uint64
	Ops          uint64
	Matches      uint64
	MeanOps      float64
	HalfWidth95  float64
	MeanMatches  float64
	OpsPerNotify float64
}

// Summary returns the current aggregate view.
func (a *OpAccount) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		Events:      a.events,
		Ops:         a.ops,
		Matches:     a.matches,
		MeanOps:     a.running.Mean(),
		HalfWidth95: a.running.HalfWidth95(),
	}
	if a.events > 0 {
		s.MeanMatches = float64(a.matches) / float64(a.events)
	}
	if a.matches > 0 {
		s.OpsPerNotify = float64(a.ops) / float64(a.matches)
	}
	return s
}

// Reset clears the account.
func (a *OpAccount) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events, a.ops, a.matches = 0, 0, 0
	a.running = Running{}
}
