package genas

import (
	"fmt"

	"genas/internal/composite"
)

// Composite event support (paper §5: "We will extend the filter to handle
// composite events"). A composite monitor subscribes a set of primitive
// profiles and evaluates temporal expressions — sequence, conjunction,
// disjunction, counting — over their notification stream.

// Re-exported composite expression constructors.
type (
	// CompositeExpr is a temporal expression over primitive profile ids.
	CompositeExpr = composite.Expr
	// CompositeEvent is one fired composite detection.
	CompositeEvent = composite.Detection
)

// Composite expression constructors re-exported from internal/composite.
var (
	// Prim matches every notification of the given primitive profile id.
	Prim = composite.Prim
	// Seq matches l followed by r within a window.
	Seq = composite.Seq
	// AndWithin matches l and r in any order within a window.
	AndWithin = composite.And
	// OrElse matches either operand.
	OrElse = composite.Or
	// Count matches n occurrences within a sliding window.
	Count = composite.Count
)

// CompositeMonitor owns the primitive subscriptions and the evaluation
// goroutine of one composite expression set.
type CompositeMonitor struct {
	out   chan CompositeEvent
	group *Group
}

// MonitorComposite subscribes the primitive profiles (id → profile-language
// expression) and evaluates the named composite expressions over their
// notifications. Detections arrive on C(); call Stop to tear the monitor
// down. Expression Prim ids must reference keys of primitives.
//
// The primitives register as one Group sharing an ordered delivery channel,
// so the sequence operator observes notifications exactly in publish order
// (concurrent publishers are ordered by whoever entered the broker first).
func (s *Service) MonitorComposite(
	primitives map[string]string,
	exprs map[string]CompositeExpr,
	buffer int,
) (*CompositeMonitor, error) {
	if len(primitives) == 0 {
		return nil, fmt.Errorf("genas: composite monitor needs primitive profiles: %w", ErrBadProfile)
	}
	if buffer <= 0 {
		buffer = 64
	}
	det, err := composite.NewDetector(exprs)
	if err != nil {
		return nil, err
	}

	profiles := make([]*Profile, 0, len(primitives))
	for id, expr := range primitives {
		p, err := s.ParseProfile(id, expr)
		if err != nil {
			return nil, fmt.Errorf("genas: composite primitive %s: %w", id, err)
		}
		profiles = append(profiles, p)
	}
	group, err := s.subscribeGroup(buffer, profiles)
	if err != nil {
		return nil, err
	}

	m := &CompositeMonitor{
		out:   make(chan CompositeEvent, buffer),
		group: group,
	}
	// Evaluator: the detector is single-goroutine by design; the group
	// channel delivers notifications in publish order.
	go func() {
		defer close(m.out)
		for n := range group.C() {
			for _, d := range det.Feed(n.Profile, n.Event.Time) {
				select {
				case m.out <- d:
				default: // slow consumer: drop, mirroring broker policy
				}
			}
		}
	}()
	return m, nil
}

// C returns the detection stream. It closes after Stop.
func (m *CompositeMonitor) C() <-chan CompositeEvent { return m.out }

// Stop unsubscribes the primitive profiles and shuts the evaluator down.
func (m *CompositeMonitor) Stop() { m.group.Close() }
