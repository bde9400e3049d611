package main

import (
	"encoding/json"
	"os"
	"time"
)

// traceBatch is the number of plan events one batch of the traced run
// drives up the ladder; every rung records one span per batch.
const (
	traceBatch = 1024
	// eventSpanEvery picks the events that get a span of their own.
	eventSpanEvery = 256
)

// span is one timed call (or batch of calls) into a layer, recorded by the
// benchmark around the call. Spans of one batch share its id and name the
// batch's root span as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Batch  int    `json:"batch"`  // -1: not part of a batch (edit probes)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, which is how the untraced comparison pass runs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, batch, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Batch: batch, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// closeRoots stretches every root span over its children. The rungs of the
// traced run work one after the other, so a batch's root is the group of
// its spans, not one contiguous piece of work.
func (t *tracer) closeRoots() {
	first := make(map[int]bool)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		root := &t.spans[s.Parent-1]
		if !first[s.Parent] || s.Start < root.Start {
			root.Start = s.Start
		}
		if !first[s.Parent] || s.End > root.End {
			root.End = s.End
		}
		first[s.Parent] = true
	}
}

type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Below    map[string]string `json:"below"` // rung -> the rung its self time is taken over
	Spans    []span            `json:"spans"`
}

func (t *tracer) write(path string, f traceFile) error {
	f.Spans = t.spans
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes computes, per rung, the summed self time over all batches: a
// rung's span minus the span of the rung below it on the same batch. A rung
// with no rung below keeps its whole span. Spans that are not rungs (batch
// roots, per-event spans, probes) are ignored.
func selfTimes(spans []span, below map[string]string) map[string]time.Duration {
	type key struct {
		batch int
		name  string
	}
	dur := make(map[key]time.Duration)
	for _, s := range spans {
		if _, rung := below[s.Name]; rung && s.Batch >= 0 {
			dur[key{s.Batch, s.Name}] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for k, d := range dur {
		if b := below[k.name]; b != "" {
			d -= dur[key{k.batch, b}]
		}
		self[k.name] += d
	}
	return self
}

// totalTimes sums each span name's durations over all batches.
func totalTimes(spans []span) map[string]time.Duration {
	total := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Batch >= 0 {
			total[s.Name] += s.dur()
		}
	}
	return total
}
