// Package adaptive implements the adaptive filter component of §1/§5: the
// filter "can either work based on predefined distributions for the observed
// events, or it has to maintain a history of events in order to determine
// the event distribution". The Adaptor keeps a bounded history — one window
// of events per attribute — and at each window boundary compares the window
// that just closed with the distribution the tree was last ordered for. An
// attribute has drifted when the two are further apart than sampling noise
// explains; the restructure re-sorts the nodes testing a drifted attribute
// and shares the rest of the automaton (optionally it rebuilds, reordering
// the attributes too).
//
// Two optimization goals are supported, mirroring the paper's event-centric
// and user-centric approaches: event-centric minimizes average operations
// per event (Measure V1 value order), user-centric favors high-priority
// profiles (Measure V3, which "supports user groups with similar interest").
package adaptive

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"genas/internal/core"
	"genas/internal/dist"
	"genas/internal/schema"
)

// Goal selects the optimization target.
type Goal int

// Optimization goals.
const (
	// EventCentric minimizes average operations per event (V1 + A2).
	EventCentric Goal = iota + 1
	// UserCentric favors high-priority profiles (V3 + A2).
	UserCentric
)

// String names the goal.
func (g Goal) String() string {
	switch g {
	case EventCentric:
		return "event-centric"
	case UserCentric:
		return "user-centric"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// Policy tunes the adaptation loop.
type Policy struct {
	// Goal selects the measures applied on restructure (default
	// EventCentric).
	Goal Goal
	// Window is the number of observed events between drift checks and the
	// length of the history a check reads: the events of the window that
	// just closed, nothing older (default 1024).
	Window int
	// Threshold is the total-variation distance between the closed window
	// and the distribution the tree is ordered for, beyond the distance
	// sampling noise alone would put between them, that marks an attribute
	// as drifted (default 0.1). The paper warns the event-based measure "is
	// a fragile measure, not robust to changes in the distributions"; the
	// threshold provides the stability hysteresis.
	Threshold float64
	// Bins is the per-attribute histogram resolution (default 64).
	Bins int
	// ReorderAttributes additionally recomputes the attribute order
	// (Measure A2) on restructure: a full rebuild instead of the cheap
	// value reordering.
	ReorderAttributes bool
	// MinHistory is the minimum number of observed events before the first
	// restructure (default Window).
	MinHistory uint64
}

func (p Policy) withDefaults() Policy {
	if p.Goal == 0 {
		p.Goal = EventCentric
	}
	if p.Window <= 0 {
		p.Window = 1024
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.1
	}
	if p.Bins <= 0 {
		p.Bins = 64
	}
	if p.MinHistory == 0 {
		p.MinHistory = uint64(p.Window)
	}
	return p
}

// Engine is the filter surface the adaptor drives: both the single-tree
// core.Engine and the sharded core.Sharded satisfy it. On a sharded engine
// the drift check runs once over the aggregated event history and the
// restructure fans out per shard, each shard locking independently — the
// adaptation never stops the world.
type Engine interface {
	Schema() *schema.Schema
	Config() core.Config
	SetConfig(cfg core.Config)
	Rebuild() error
	Reorder(attrs ...int) (resorted, copied int, err error)
}

// Decision records one restructure: what the drift check saw and what the
// restructure cost.
type Decision struct {
	Seq  int    // 1-based ordinal of the restructure
	Seen uint64 // events observed when the check ran
	// TV and Floor hold, per attribute, the total variation between the
	// closed window and the applied distribution, and its sampling floor.
	TV, Floor []float64
	// Reordered lists the attributes whose nodes were re-sorted and whose
	// window became the applied distribution: the drifted ones, or all when
	// the whole tree was restructured.
	Reordered []int
	// Resorted and Copied count the nodes re-sorted and the nodes only
	// path-copied; every other node is shared with the predecessor. Both
	// are zero for a rebuild.
	Resorted, Copied int
	Duration         time.Duration
	Err              error // the engine's failure, if any
}

// Adaptor couples a filter engine with a windowed event history.
type Adaptor struct {
	engine Engine
	policy Policy
	hists  []*dist.Histogram
	// seen and sinceCk advance on every observed event; restructures and
	// checks are read by stats. None of them takes the mutex.
	seen, sinceCk        atomic.Uint64
	restructures, checks atomic.Int64

	// mu serializes the drift check and the restructure it may trigger —
	// window rotation, SetConfig and Rebuild/Reorder — so two overlapping
	// boundaries cannot interleave their SetConfig fan-outs and leave a
	// sharded engine's shards ordered for different windows. It guards
	// applied, appliedN and ring.
	mu       sync.Mutex
	applied  []dist.Dist // per attribute, what the engine is ordered for
	appliedN []float64   // and the sample size behind it (0: the exact prior)
	// ring holds the last restructures, but for one slot: the one after the
	// newest is the drift check's scratch, where a check that finds no drift
	// writes its TV and floor and commits nothing.
	ring [64]Decision
}

// New creates an adaptor for the engine. The engine's configuration is
// switched to the goal's measures on the first restructure.
func New(engine Engine, policy Policy) (*Adaptor, error) {
	p := policy.withDefaults()
	s := engine.Schema()
	a := &Adaptor{engine: engine, policy: p, hists: make([]*dist.Histogram, s.N()),
		applied: make([]dist.Dist, s.N()), appliedN: make([]float64, s.N())}
	for i := range a.hists {
		h, err := dist.NewHistogram(s.At(i).Domain, p.Bins)
		if err != nil {
			return nil, err
		}
		a.hists[i] = h
		a.applied[i] = dist.New(dist.UniformShape{}, s.At(i).Domain) // prior before any history
	}
	for i := range a.ring {
		d := &a.ring[i]
		d.TV, d.Floor, d.Reordered = make([]float64, s.N()), make([]float64, s.N()), make([]int, 0, s.N())
	}
	return a, nil
}

// Observe feeds one event into the history and runs the drift check when it
// closes a window. It returns true when a restructure was applied.
//
//genas:hotpath
func (a *Adaptor) Observe(vals []float64) bool {
	for i, h := range a.hists {
		h.Observe(vals[i])
	}
	return a.bump(1)
}

// ObserveBatch feeds a whole batch into the history and runs at most one
// drift check, amortizing the adaptor bookkeeping over the batch (the
// batched publish path's entry point).
//
//genas:hotpath
func (a *Adaptor) ObserveBatch(events [][]float64) bool {
	for _, vals := range events {
		for i, h := range a.hists {
			h.Observe(vals[i])
		}
	}
	return a.bump(uint64(len(events)))
}

// bump advances the event counters by n and runs the drift check when a
// window boundary was crossed.
func (a *Adaptor) bump(n uint64) bool {
	seen := a.seen.Add(n)
	if a.sinceCk.Add(n) < uint64(a.policy.Window) || seen < a.policy.MinHistory {
		return false
	}
	ok, err := a.check(false)
	return ok && err == nil
}

// ForceAdapt closes the open window and restructures the whole tree for it,
// drifted or not.
func (a *Adaptor) ForceAdapt() error {
	_, err := a.check(true)
	return err
}

// check closes the window, compares it per attribute with the applied
// distribution and restructures for the attributes that drifted beyond their
// sampling floor by the threshold (for all of them when forced). It reports
// whether it restructured, and the engine's error if that failed.
func (a *Adaptor) check(force bool) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !force && a.sinceCk.Load() < uint64(a.policy.Window) {
		return false, nil // a concurrent publisher ran this boundary's check
	}
	a.sinceCk.Store(0)
	a.checks.Add(1)
	seq := int(a.restructures.Load())
	d := &a.ring[seq%len(a.ring)]
	d.Reordered = d.Reordered[:0]
	for i, h := range a.hists {
		h.Rotate()
		d.TV[i], d.Floor[i] = h.Drift(a.applied[i].Shape(), a.appliedN[i])
		if d.TV[i]-d.Floor[i] >= a.policy.Threshold {
			d.Reordered = append(d.Reordered, i)
		}
	}
	if !force && len(d.Reordered) == 0 {
		return false, nil
	}

	start := time.Now()
	d.Seq, d.Seen = seq+1, a.seen.Load()
	cfg := a.engine.Config()
	measure := core.ValueEvent
	if a.policy.Goal == UserCentric {
		measure = core.ValueCombined
	}
	// A node's order is the measure's ranking under its attribute's
	// distribution alone, so only a new measure (the first restructure), a
	// rebuild or the caller's demand touch the attributes that did not drift.
	attrs := d.Reordered
	if force || a.policy.ReorderAttributes || cfg.ValueMeasure != measure {
		attrs = nil
		d.Reordered = d.Reordered[:0]
		for i := range a.hists {
			d.Reordered = append(d.Reordered, i)
		}
	}
	for _, i := range d.Reordered {
		a.applied[i] = dist.New(a.hists[i].Snapshot(), a.applied[i].Domain())
		a.appliedN[i] = a.hists[i].Window()
	}
	cfg.ValueMeasure = measure
	cfg.EventDists = slices.Clone(a.applied)
	if a.policy.ReorderAttributes {
		cfg.AttrOrdering = core.AttrA2
	}
	// SetConfig is the commitment point: the engine adopts the new
	// distributions now or, if the eager pass below fails, on its next
	// rebuild, so the drift baseline tracks this window either way.
	a.engine.SetConfig(cfg)
	if a.policy.ReorderAttributes {
		d.Resorted, d.Copied, d.Err = 0, 0, a.engine.Rebuild()
	} else {
		d.Resorted, d.Copied, d.Err = a.engine.Reorder(attrs...)
	}
	if d.Err != nil {
		d.Err = fmt.Errorf("adaptive: restructure %d: %w", d.Seq, d.Err)
	}
	d.Duration = time.Since(start)
	a.restructures.Add(1)
	return true, d.Err
}

// Restructures returns how many restructures have been applied.
func (a *Adaptor) Restructures() int { return int(a.restructures.Load()) }

// Checks returns how many drift checks have run.
func (a *Adaptor) Checks() int { return int(a.checks.Load()) }

// Seen returns the number of observed events.
func (a *Adaptor) Seen() uint64 { return a.seen.Load() }

// Decisions returns the records of the latest restructures (at most 63),
// oldest first.
func (a *Adaptor) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int(a.restructures.Load())
	first := max(0, n-len(a.ring)+1)
	out := make([]Decision, 0, n-first)
	for i := first; i < n; i++ {
		d := a.ring[i%len(a.ring)]
		d.TV, d.Floor, d.Reordered = slices.Clone(d.TV), slices.Clone(d.Floor), slices.Clone(d.Reordered)
		out = append(out, d)
	}
	return out
}

// History returns the per-attribute empirical distributions of the last
// closed window (the uniform prior before the first one closes).
func (a *Adaptor) History() []dist.Dist {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]dist.Dist, len(a.hists))
	for i, h := range a.hists {
		out[i] = dist.New(h.Snapshot(), a.applied[i].Domain())
	}
	return out
}
