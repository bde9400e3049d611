package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Every sampleEvery-th event that reaches the subscriber-side broker is
// checked against the oracle. Phases start on multiples of it and the plan
// length is one, so the sampled events are 1 in 64 of the plan.
const sampleEvery = 64

// collector is the benchmark's subscriber side: every notification of every
// subscription lands in deliver. It counts, wakes a publisher waiting for a
// count, and records which subscriptions the sampled events reached.
type collector struct {
	got    atomic.Int64
	target atomic.Int64
	wake   chan struct{} // capacity 1: a wake-up is a level, not a count
	timer  *time.Timer

	// lastSeq is the broker sequence number of the latest notification;
	// firstSeq that of the first event after the set-up event, from which
	// the sampling counts (0: not sampling, as the traced run's sinks).
	lastSeq  atomic.Uint64
	firstSeq uint64
	mu       sync.Mutex
	recs     []sampleRec

	// dropEvery > 0 makes the subscriber lose every dropEvery-th
	// notification (-selftest-drop).
	dropEvery int64
	seen      atomic.Int64
}

type sampleRec struct {
	sample uint64 // index of the sampled event
	sub    int32
}

func newCollector() *collector {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &collector{wake: make(chan struct{}, 1), timer: t}
}

func (c *collector) deliver(seq uint64, sub int) {
	if c.dropEvery > 0 && c.seen.Add(1)%c.dropEvery == 0 {
		return
	}
	c.lastSeq.Store(seq)
	if d := seq - c.firstSeq; c.firstSeq > 0 && d%sampleEvery == 0 {
		c.mu.Lock()
		c.recs = append(c.recs, sampleRec{d / sampleEvery, int32(sub)})
		c.mu.Unlock()
	}
	if c.got.Add(1) == c.target.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks until want notifications have arrived in total, or the
// timeout passes. Only the single publisher calls it.
func (c *collector) wait(want int64, timeout time.Duration) bool {
	c.target.Store(want)
	if c.got.Load() >= want {
		return true
	}
	c.timer.Reset(timeout)
	defer c.timer.Stop()
	for c.got.Load() < want {
		select {
		case <-c.wake:
		case <-c.timer.C:
			return c.got.Load() >= want
		}
	}
	return true
}

// bySample returns the recorded subscription indices grouped by sample.
func (c *collector) bySample() map[uint64][]int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64][]int32)
	for _, r := range c.recs {
		out[r.sample] = append(out[r.sample], r.sub)
	}
	for _, subs := range out {
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
	}
	return out
}

// sampleLog is the publisher's side of the sampling: which plan event, and
// which live window, each sampled event had.
type sampleLog struct {
	reached uint64 // events that reached the subscriber-side broker so far
	refs    []sampleRef
}

type sampleRef struct {
	planIdx int32
	head    int32 // ring position of the live window (see ring)
}

func (l *sampleLog) note(planIdx, head int) {
	if l.reached%sampleEvery == 0 {
		l.refs = append(l.refs, sampleRef{int32(planIdx), int32(head)})
	}
	l.reached++
}

// ring is the deterministic subscription schedule: the pool of profiles is
// a ring and the live subscriptions are the window of `live` slots starting
// at head. Churn unsubscribes at the head and subscribes past the tail.
type ring struct {
	size, live, head int
}

func (r ring) slot(j int) int { return (r.head + j) % r.size }

func liveAt(i, head, live, size int) bool { return (i-head+size)%size < live }
