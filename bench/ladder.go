package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"genas"
	"genas/internal/adaptive"
	"genas/internal/agg"
	"genas/internal/broker"
	"genas/internal/core"
	"genas/internal/predicate"
	"genas/internal/routing"
	"genas/internal/tree"
	"genas/internal/wire"
)

// Rung names. A rung's self time is its span minus the span of the rung
// named in ladderBelow on the same batch; the rungs from a workload's top
// rung down to tree.Match therefore sum to the top rung.
const (
	rTree    = "tree.Match"
	rCore    = "core.Engine.Match"
	rBroker  = "broker.PublishValues"
	rGenas   = "genas.Service.PublishValues"
	rRouting = "routing.Network.Publish.2hop"
	rWire    = "wire.loopback.PublishValsBatch"
	rFed1    = "federation.1hop"
	rFed2    = "federation.2hop"

	// Probes that run over the same batches.
	pGenasMap    = "genas.Service.Publish.map"
	pGenasBatch  = "genas.Service.PublishBatch"
	pSharded     = "core.Sharded.Match"
	pMatchBatch  = "core.Engine.MatchBatch"
	pAggMatch    = "agg.roots.Match"
	pAggExpand   = "agg.roots.Match+Expand"
	pObserve     = "adaptive.ObserveBatch"
	pNotifyLocal = "wire.notify.local"
	pNotifyWire  = "wire.notify.remote"
	pWireRTT     = "wire.PublishVals/event"
)

var ladderBelow = map[string]string{
	rTree: "", rCore: rTree, rBroker: rCore, rGenas: rBroker, rRouting: rBroker,
	rWire: rBroker, rFed1: rWire, rFed2: rFed1,
	pGenasMap: rBroker, pGenasBatch: rBroker, pSharded: "", pMatchBatch: "",
	pAggMatch: "", pAggExpand: pAggMatch, pObserve: "", pNotifyLocal: "", pNotifyWire: pNotifyLocal,
}

const (
	wireTimeout  = 10 * time.Second
	editOps      = 200 // edits per edit probe
	notifySubset = 64  // subscriptions of the wire-subscriber probe
	notifyEvents = 128 // events per batch the wire-subscriber probe publishes
	rttEvents    = 16  // single-event round trips per batch
	// An adaptive rung restructures at its first drift check, one window
	// into the run. Its untraced warm-up is longer than that window, so the
	// traced batches see every adaptive rung in the same, adapted state.
	warmAdaptive = 2 * adaptWindow / traceBatch
)

type ladderConfig struct {
	w      *workload
	seed   uint64
	sz     sizes
	outDir string
}

type rungReport struct {
	Name           string  `json:"name"`
	Below          string  `json:"below"`
	NsPerEvent     float64 `json:"ns_per_event"`
	SelfNsPerEvent float64 `json:"self_ns_per_event"`
	ShareOfTop     float64 `json:"self_share_of_top"`
}

type ladderResult struct {
	PlanHash  string             `json:"plan_hash"`
	Events    int                `json:"events_per_rung"`
	Top       string             `json:"top_rung"`
	Rungs     []rungReport       `json:"rungs"`
	Metrics   map[string]float64 `json:"-"`
	TraceFile string             `json:"trace_file"`
	Spans     int                `json:"spans"`
	Small     *e2eResult         `json:"untraced_end_to_end"`
	tally
}

// brokerOptions mirrors the workload's genas options at the broker layer.
func (w *workload) brokerOptions() broker.Options {
	var o broker.Options
	switch w.name {
	case "match-drift":
		o.Adaptive = true
		o.Policy = adaptive.Policy{Window: adaptWindow, Threshold: adaptThreshold}
	case "fanout-agg":
		o.Engine.Aggregate = true
	case "churn-mixed":
		o.Shards = 2
	}
	return o
}

// sink counts the notifications of one rung's subscribers.
type sink struct {
	col  *collector
	owed int64
}

func newSink() *sink { return &sink{col: newCollector()} }

// drain consumes one broker subscription for the sink; the goroutine ends
// when the subscription's broker closes.
func (s *sink) drain(sub *broker.Subscription) {
	go func() {
		for n := range sub.C() {
			s.col.deliver(n.Event.Seq, 0)
		}
	}()
}

// settle waits until the n more notifications now owed have arrived.
func (s *sink) settle(n int) bool {
	s.owed += int64(n)
	return s.col.wait(s.owed, wireTimeout)
}

// ladder is the state of one traced run. The rungs run one after the
// other, each over the same batches of the plan, so every rung works with
// warm caches as it does in the end-to-end run; the spans of one batch
// share its id and its (logical) root span.
type ladder struct {
	cfg     ladderConfig
	res     *ladderResult
	tr      *tracer
	rootOf  []int // root span of each batch
	roots   int   // covering roots of the population
	sch     *genas.Schema
	in      *inputs
	bo      broker.Options
	batches int
	warm    int
	profs   []*predicate.Profile
	// coverersFirst is profs by falling volume: a box that covers another
	// is larger, so it comes first.
	coverersFirst []*predicate.Profile
	extra         []*predicate.Profile // profiles the edit probes add and remove
	extxt         []string
	counts        []int // matches of each ladder event, from core.Engine.Match
	perB          []int // their sum per batch
	m             map[string]float64
	parse         time.Duration
}

// batch returns the events of batch b. Successive batches come from
// alternating halves of the plan (a step of half the plan plus one batch
// visits every batch of a 2^k-batch plan), so the ladder sees both halves of
// match-drift's drift and any few batches hold the same mixture: the
// adaptive rungs restructure once, in their warm-up, as the end-to-end run
// does.
func (l *ladder) batch(b int) [][]float64 {
	inPlan := len(l.in.plan) / traceBatch
	lo := b * (inPlan/2 + 1) % inPlan * traceBatch
	return l.in.plan[lo : lo+traceBatch]
}

// pass runs f over the warm-up batches untraced, then over every batch,
// recording one span called name per batch (none if name is empty: f
// records its own).
func (l *ladder) pass(name string, warm int, f func(tr *tracer, b, root int, evs [][]float64)) {
	off := newTracer(false)
	for b := 0; b < warm; b++ {
		f(off, b%l.batches, 0, l.batch(b%l.batches))
	}
	runtime.GC()
	for b := 0; b < l.batches; b++ {
		t0 := time.Now()
		f(l.tr, b, l.rootOf[b], l.batch(b))
		if name != "" {
			l.tr.add(name, b, l.rootOf[b], t0, time.Now())
		}
	}
}

// each calls f for every event of the batch; one event in eventSpanEvery
// gets a span of its own.
func each(tr *tracer, name string, b, root int, evs [][]float64, f func(i int, v []float64)) {
	for i, v := range evs {
		if tr.on && i%eventSpanEvery == 0 {
			t0 := time.Now()
			f(i, v)
			tr.add(name+"/event", b, root, t0, time.Now())
			continue
		}
		f(i, v)
	}
}

func parseAll(sch *genas.Schema, prefix string, texts []string) ([]*predicate.Profile, error) {
	out := make([]*predicate.Profile, len(texts))
	for i, t := range texts {
		p, err := predicate.Parse(sch, predicate.ID(fmt.Sprintf("%s%05d", prefix, i)), t)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// subscribeAll registers the profiles at a broker with the blocking policy
// (nothing may be dropped) and drains them into a fresh sink.
func subscribeAll(brk *broker.Broker, profs []*predicate.Profile, added func(*predicate.Profile)) (*sink, error) {
	s := newSink()
	for _, p := range profs {
		sub, err := brk.SubscribeWith(p, broker.SubOptions{Buffer: subBuffer, Policy: broker.Block})
		if err != nil {
			return nil, err
		}
		s.drain(sub)
		if added != nil {
			added(p)
		}
	}
	return s, nil
}

func dialWire(addr string) (*wire.Client, error) {
	return wire.DialWith(addr, wire.DialConfig{Timeout: wireTimeout, Proto: wire.ProtoV2})
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

func usPerOp(d time.Duration, ops int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(max(ops, 1))
}

func (l *ladder) events() float64 { return float64(l.batches * traceBatch) }

// engines runs the two bottom rungs, which share one automaton, the
// adaptive probe and the read-side probes of core and agg.
func (l *ladder) engines() error {
	cfg := l.bo.Engine
	engNat, engAda := core.NewEngine(l.sch, cfg), core.NewEngine(l.sch, cfg)
	sharded := core.NewSharded(l.sch, cfg, 2)
	poset := agg.NewPoset(l.sch)
	for _, p := range l.profs {
		for _, add := range []func(*predicate.Profile) error{engNat.AddProfile, engAda.AddProfile, sharded.AddProfile} {
			if err := add(p); err != nil {
				return err
			}
		}
		poset.Add(p)
	}
	ada, err := adaptive.New(engAda, adaptive.Policy{Window: adaptWindow, Threshold: adaptThreshold})
	if err != nil {
		return err
	}
	// The workload's own engine is the adapted one only if it adapts.
	eng, other := engNat, engAda
	if l.bo.Adaptive {
		eng, other = engAda, engNat
	}

	var opsTree, opsEng, opsOther, mallocsCore uint64
	var observe, restructure []float64 // ns per ObserveBatch without / with a restructure
	l.pass("", l.warm, func(tr *tracer, b, root int, evs [][]float64) {
		t := eng.Tree()
		treeRung := func() {
			t0 := time.Now()
			each(tr, rTree, b, root, evs, func(_ int, v []float64) {
				if _, ops := t.Match(v); tr.on {
					opsTree += uint64(ops)
				}
			})
			tr.add(rTree, b, root, t0, time.Now())
		}
		// The two rungs walk the same automaton over the same events, so
		// whichever runs second finds the paths in cache: alternate.
		if b%2 == 0 {
			treeRung()
		}
		m0, t0 := mallocs(), time.Now()
		each(tr, rCore, b, root, evs, func(i int, v []float64) {
			ids, ops, err := eng.Match(v)
			n := len(ids)
			if err != nil {
				n = -1
			}
			if tr.on {
				l.counts[b*traceBatch+i] = n
				opsEng += uint64(ops)
			}
		})
		t1 := time.Now()
		if tr.on {
			mallocsCore += mallocs() - m0
		}
		if b%2 == 1 {
			treeRung()
		}
		tr.add(rCore, b, root, t0, t1)
		for _, v := range evs {
			_, ops, _ := other.Match(v)
			if tr.on {
				opsOther += uint64(ops)
			}
		}
		o0 := time.Now()
		restructured := ada.ObserveBatch(evs)
		o1 := time.Now()
		tr.add(pObserve, b, root, o0, o1)
		if ns := float64(o1.Sub(o0).Nanoseconds()); restructured {
			restructure = append(restructure, ns)
		} else {
			observe = append(observe, ns)
		}
	})
	for b := 0; b < l.batches; b++ {
		for i, c := range l.counts[b*traceBatch : (b+1)*traceBatch] {
			l.res.check(c >= 0, "core.Engine.Match failed on event %d of batch %d", i, b)
			l.perB[b] += max(c, 0)
		}
	}
	opsNat, opsAda := opsEng, opsOther
	if l.bo.Adaptive {
		opsNat, opsAda = opsOther, opsEng
	}
	ev := l.events()
	l.m["tree.ops_per_event"] = float64(opsTree) / ev
	l.m["core.match_allocs_per_event"] = float64(mallocsCore) / ev
	l.m["adaptive.restructures"] = float64(ada.Restructures())
	l.m["adaptive.ops_ratio"] = float64(opsAda) / float64(max(opsNat, 1))
	obs := 0.0
	if len(observe) > 0 {
		obs = median(observe)
	}
	l.m["adaptive.observe_ns_per_event"] = obs / traceBatch
	l.m["adaptive.restructure_ms"] = 0
	if n := len(restructure); n > 0 {
		total := 0.0
		for _, ns := range restructure {
			total += ns - obs
		}
		l.m["adaptive.restructure_ms"] = total / float64(n) / 1e6
	}

	l.pass(pSharded, 1, func(_ *tracer, _, _ int, evs [][]float64) {
		for _, v := range evs {
			_, _, _ = sharded.Match(v)
		}
	})
	l.pass(pMatchBatch, 1, func(_ *tracer, _, _ int, evs [][]float64) { _, _ = eng.MatchBatch(evs, 0) })

	// agg: the poset's roots in a tree of their own, with and without the
	// expansion to subscription ids.
	roots := poset.RootList()
	reps, t2n := make([]*predicate.Profile, len(roots)), make([]int32, len(roots))
	for i, r := range roots {
		reps[i], t2n[i] = r.Rep, r.Idx
	}
	aggTree, err := tree.Build(l.sch, reps)
	if err != nil {
		return err
	}
	snap := poset.Freeze()
	l.pass(pAggMatch, 1, func(_ *tracer, _, _ int, evs [][]float64) {
		for _, v := range evs {
			aggTree.Match(v)
		}
	})
	var dst []predicate.ID
	l.pass(pAggExpand, 1, func(tr *tracer, b, _ int, evs [][]float64) {
		expanded := 0
		for _, v := range evs {
			matched, _ := aggTree.Match(v)
			dst, _ = snap.Expand(v, matched, t2n, aggTree, dst[:0])
			expanded += len(dst)
		}
		if tr.on {
			l.res.check(expanded == l.perB[b], "agg.Snapshot.Expand batch %d: %d ids, core.Engine.Match %d", b, expanded, l.perB[b])
		}
	})
	st := poset.Stats()
	l.roots = st.Roots
	l.m["agg.roots"] = float64(st.Roots)
	l.m["agg.compression_ratio"] = float64(st.Subscriptions) / float64(max(st.Nodes, 1))
	return l.engineEdits(eng)
}

// probe times f as one span outside the batches.
func (l *ladder) probe(name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	l.tr.add(name, -1, 0, t0, t1)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return t1.Sub(t0), nil
}

// edit times f over the extra profiles as one span.
func (l *ladder) edit(name string, f func(i int, p *predicate.Profile) error) (time.Duration, error) {
	return l.probe(name, func() error {
		for i, p := range l.extra {
			if err := f(i, p); err != nil {
				return err
			}
		}
		return nil
	})
}

// engineEdits times the write side of tree, agg and core with profiles
// that are not installed.
func (l *ladder) engineEdits(eng *core.Engine) error {
	n, m := len(l.extra), l.m
	m["predicate.parse_us_per_profile"] = usPerOp(l.parse, len(l.profs))

	// tree: a fresh build of what the workload's engine indexes, then
	// incremental inserts and removes on it.
	corpus := eng.Tree().Profiles()
	var t *tree.Tree
	d, err := l.probe("tree.Build", func() (err error) { t, err = tree.Build(l.sch, corpus); return })
	if err != nil {
		return err
	}
	m["tree.build_ms"] = float64(d.Nanoseconds()) / 1e6
	m["tree.nodes"] = float64(t.Stats().Nodes)
	idx := make([]int, n)
	d, _ = l.edit("tree.WithProfile", func(i int, p *predicate.Profile) error {
		t, idx[i] = t.WithProfile(p, tree.NaturalOrder())
		return nil
	})
	m["tree.insert_us_per_op"] = usPerOp(d, n)
	d, _ = l.edit("tree.WithoutProfile", func(i int, _ *predicate.Profile) error {
		t = t.WithoutProfile(idx[i])
		return nil
	})
	m["tree.remove_us_per_op"] = usPerOp(d, n)

	// agg: the whole population and the extras into a fresh poset.
	po := agg.NewPoset(l.sch)
	d, _ = l.probe("agg.Poset.Add", func() error {
		for _, p := range l.profs {
			po.Add(p)
		}
		for _, p := range l.extra {
			po.Add(p)
		}
		return nil
	})
	m["agg.add_us_per_op"] = usPerOp(d, len(l.profs)+n)
	d, _ = l.probe("agg.Poset.Freeze", func() error { po.Freeze(); return nil })
	m["agg.freeze_us"] = usPerOp(d, 1)
	if d, err = l.edit("agg.Poset.Remove", func(_ int, p *predicate.Profile) error {
		if _, ok := po.Remove(p.ID); !ok {
			return fmt.Errorf("profile %s not in the poset", p.ID)
		}
		return nil
	}); err != nil {
		return err
	}
	m["agg.remove_us_per_op"] = usPerOp(d, n)

	if d, err = l.edit("core.Engine.AddProfile", func(_ int, p *predicate.Profile) error { return eng.AddProfile(p) }); err != nil {
		return err
	}
	m["core.add_us_per_op"] = usPerOp(d, n)
	if d, err = l.edit("core.Engine.RemoveProfile", func(_ int, p *predicate.Profile) error { return eng.RemoveProfile(p.ID) }); err != nil {
		return err
	}
	m["core.remove_us_per_op"] = usPerOp(d, n)
	if d, err = l.probe("core.Engine.Rebuild", eng.Rebuild); err != nil {
		return err
	}
	m["core.rebuild_ms"] = float64(d.Nanoseconds()) / 1e6
	return nil
}

// deliver is the body of a rung that publishes event by event to
// subscribers it must hear from: every event must match what
// core.Engine.Match said, and every notification must arrive.
func (l *ladder) deliver(name string, snk *sink, publish func(v []float64) (int, error)) func(*tracer, int, int, [][]float64) {
	return func(tr *tracer, b, root int, evs [][]float64) {
		bad := 0
		each(tr, name, b, root, evs, func(i int, v []float64) {
			if n, err := publish(v); err != nil || n != l.counts[b*traceBatch+i] {
				bad++
			}
		})
		ok := snk.settle(l.perB[b])
		if tr.on {
			l.res.check(bad == 0 && ok, "%s batch %d: %d events disagree with core.Engine.Match, notifications arrived %v", name, b, bad, ok)
		}
	}
}

func (l *ladder) brokerRung() error {
	brk, err := broker.New(l.sch, l.bo)
	if err != nil {
		return err
	}
	defer brk.Close()
	snk, err := subscribeAll(brk, l.profs, nil)
	if err != nil {
		return err
	}
	var m0 uint64
	l.pass(rBroker, l.warm, func(tr *tracer, b, root int, evs [][]float64) {
		if tr.on && b == 0 {
			m0 = mallocs()
		}
		l.deliver(rBroker, snk, brk.PublishValues)(tr, b, root, evs)
	})
	l.m["broker.publish_allocs_per_event"] = float64(mallocs()-m0) / l.events()
	l.m["broker.dropped"] = float64(brk.Stats().Dropped)
	l.res.check(brk.Stats().Dropped == 0, "broker rung dropped %d notifications", brk.Stats().Dropped)

	d, err := l.edit("broker.Subscribe", func(_ int, p *predicate.Profile) error {
		sub, err := brk.SubscribeWith(p, broker.SubOptions{Buffer: subBuffer, Policy: broker.Block})
		if err == nil {
			snk.drain(sub)
		}
		return err
	})
	if err != nil {
		return err
	}
	l.m["broker.subscribe_us_per_op"] = usPerOp(d, len(l.extra))
	return nil
}

// genasRungs drives the public service three ways: positional values (the
// rung), the map front-end and the batch call (probes over the same rung
// below).
func (l *ladder) genasRungs() error {
	snk := newSink()
	t, err := newSvcTarget(l.cfg.w, l.in, snk.col, &sampleLog{})
	if err != nil {
		return err
	}
	defer t.close()
	for i := 0; i < l.in.live; i++ {
		if err := t.subscribe(i); err != nil {
			return err
		}
	}
	l.pass(rGenas, l.warm, l.deliver(rGenas, snk, func(v []float64) (int, error) { return t.svc.PublishValues(v...) }))
	m := make(map[string]float64, nAttrs)
	l.pass(pGenasMap, 1, l.deliver(pGenasMap, snk, func(v []float64) (int, error) {
		for a, x := range v {
			m[attrNames[a]] = x
		}
		return t.svc.Publish(m)
	}))
	l.pass(pGenasBatch, 1, func(tr *tracer, b, _ int, evs [][]float64) {
		batch := make([]genas.Event, len(evs))
		for i, v := range evs {
			batch[i] = genas.Event{Vals: v}
		}
		got, err := t.svc.PublishBatch(batch)
		ok := snk.settle(l.perB[b])
		if tr.on {
			l.res.check(err == nil && ok && sum(got) == l.perB[b], "%s batch %d: error %v, matched %d of %d, arrived %v", pGenasBatch, b, err, sum(got), l.perB[b], ok)
		}
	})
	return nil
}

// routingRung publishes at one end of an in-memory A-B-C overlay to
// subscribers at the other.
func (l *ladder) routingRung() error {
	// The in-memory overlay cannot block a publisher on a subscriber, so
	// its buffers are sized to hold a whole batch instead.
	nbo := l.bo
	nbo.DefaultBuffer = traceBatch
	nw := routing.NewNetwork(l.sch, routing.Options{Covering: true, Engine: l.bo.Engine, Broker: nbo})
	defer nw.Close()
	for _, n := range []string{"A", "B", "C"} {
		if _, err := nw.AddNode(n); err != nil {
			return err
		}
	}
	if err := nw.Connect("A", "B"); err != nil {
		return err
	}
	if err := nw.Connect("B", "C"); err != nil {
		return err
	}
	snk := newSink()
	for _, p := range l.profs {
		sub, err := nw.Subscribe("C", p)
		if err != nil {
			return err
		}
		snk.drain(sub)
	}
	l.pass(rRouting, l.warm, l.deliver(rRouting, snk, func(v []float64) (int, error) { return nw.Publish("A", genas.Event{Vals: v}) }))
	return nil
}

// viaWire publishes a batch in sub-batches of fedBatch events and waits for
// each sub-batch's notifications at the far end: the same window as the
// end-to-end fed-2hop run, so no queue between the daemons can overflow.
func (l *ladder) viaWire(name string, cli *wire.Client, snk *sink) func(*tracer, int, int, [][]float64) {
	return func(tr *tracer, b, root int, evs [][]float64) {
		for lo := 0; lo < len(evs); lo += fedBatch {
			hi := min(lo+fedBatch, len(evs))
			t0 := time.Now()
			_, err := cli.PublishValsBatch(evs[lo:hi], wireTimeout)
			ok := snk.settle(sum(l.counts[b*traceBatch+lo : b*traceBatch+hi]))
			if tr.on {
				if lo%(4*fedBatch) == 0 {
					tr.add(name+"/batch64", b, root, t0, time.Now())
				}
				l.res.check(err == nil && ok, "%s batch %d: publish error %v, notifications arrived %v", name, b, err, ok)
			}
		}
	}
}

// wireRung is one daemon behind a v2 client connection on loopback, its
// subscribers in-process; it also hosts the wire round-trip probes.
func (l *ladder) wireRung() error {
	d, err := startDaemon(l.sch, "", l.bo)
	if err != nil {
		return err
	}
	defer d.stop()
	snk, err := subscribeAll(d.brk, l.profs, nil)
	if err != nil {
		return err
	}
	cli, err := dialWire(d.addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	var m0 uint64
	l.pass(rWire, l.warm, func(tr *tracer, b, root int, evs [][]float64) {
		if tr.on && b == 0 {
			m0 = mallocs()
		}
		l.viaWire(rWire, cli, snk)(tr, b, root, evs)
	})
	l.m["wire.allocs_per_event"] = float64(mallocs()-m0)/l.events() - l.m["broker.publish_allocs_per_event"]
	st, err := cli.Stats(wireTimeout)
	if err != nil {
		return fmt.Errorf("wire stats: %w", err)
	}
	l.m["wire.bytes_per_event"] = st.BytesPerEventWire

	var rtt []float64
	for b := 0; b < l.batches; b++ {
		for i, v := range l.batch(b)[:rttEvents] {
			t0 := time.Now()
			n, err := cli.PublishVals(v, wireTimeout)
			ok := snk.settle(max(l.counts[b*traceBatch+i], 0))
			t1 := time.Now()
			l.tr.add(pWireRTT, b, l.rootOf[b], t0, t1)
			rtt = append(rtt, float64(t1.Sub(t0).Nanoseconds())/1e3)
			l.res.check(err == nil && ok && n == l.counts[b*traceBatch+i], "%s batch %d: error %v, matched %d of %d", pWireRTT, b, err, n, l.counts[b*traceBatch+i])
		}
	}
	l.m["wire.publish_rtt_p50_us"] = median(rtt)

	rtt = rtt[:0]
	if _, err = l.edit("wire.Client.Subscribe", func(i int, p *predicate.Profile) error {
		t0 := time.Now()
		err := cli.Subscribe(string(p.ID), l.extxt[i], 0, wireTimeout)
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		return err
	}); err != nil {
		return err
	}
	l.m["wire.subscribe_rtt_p50_us"] = median(rtt)

	// Frame codec: the forward frame is the smallest event frame.
	plan := l.in.plan[:min(len(l.in.plan), 1<<16)]
	var frame []byte
	dur, _ := l.probe("wire.AppendForwardFrame", func() error {
		for _, v := range plan {
			frame = wire.AppendForwardFrame(frame[:0], v)
		}
		return nil
	})
	l.m["wire.encode_ns_per_frame"] = float64(dur.Nanoseconds()) / float64(len(plan))
	scratch := make([]float64, 0, nAttrs)
	if dur, err = l.probe("wire.DecodeForwardFrame", func() error {
		for range plan {
			if _, err := wire.DecodeForwardFrame(frame[5:], scratch); err != nil { // 5: length and type prefix
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.m["wire.decode_ns_per_frame"] = float64(dur.Nanoseconds()) / float64(len(plan))
	return nil
}

// fedRung is a chain of hops+1 daemons: publisher connection at one end,
// in-process subscribers at the other.
func (l *ladder) fedRung(name string, hops int) error {
	chain, err := startChain(l.sch, hops+1, l.bo)
	if err != nil {
		return err
	}
	defer stopChain(chain)
	far := chain[hops]
	t0 := time.Now()
	// Routes travel in subscription order. With every coverer announced
	// before what it covers, a link's root count only grows, so the links
	// decide exactly once they hold as many roots as the population has.
	snk, err := subscribeAll(far.brk, l.coverersFirst, far.fed.ProfileAdded)
	if err == nil {
		err = routesConverged(chain, l.roots, 60*time.Second)
	}
	if err != nil {
		return err
	}
	install := time.Since(t0)
	cli, err := dialWire(chain[0].addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	stats := func() (fwd, flt uint64) {
		for _, d := range chain {
			_, _, f, x := d.fed.Stats()
			fwd, flt = fwd+f, flt+x
		}
		return
	}
	var fwd0, flt0 uint64
	l.pass(name, l.warm, func(tr *tracer, b, root int, evs [][]float64) {
		if tr.on && b == 0 {
			fwd0, flt0 = stats()
		}
		l.viaWire(name, cli, snk)(tr, b, root, evs)
	})
	if hops == 2 {
		fwd1, flt1 := stats()
		l.m["federation.forwarded_per_event"] = float64(fwd1-fwd0) / l.events()
		l.m["federation.filter_ratio"] = float64(flt1-flt0) / float64(max(fwd1-fwd0+flt1-flt0, 1))
		l.m["federation.routes"] = float64(chain[0].fed.RouteCount(chain[1].fed.Node()))
		l.m["federation.route_install_us_per_op"] = usPerOp(install, len(l.profs))
	}
	return nil
}

// notifyProbe publishes the same events one at a time to a daemon whose
// small set of subscribers is in-process and to one whose same subscribers
// sit behind a wire subscriber connection, waiting for every notification.
// Their difference per notification is what a wire subscriber costs. Only
// events that reach the small set are sent.
func (l *ladder) notifyProbe() error {
	n := min(notifySubset, len(l.profs))
	bo := l.bo
	bo.Adaptive = false // too few events reach these two to adapt alike
	var pubs [2]*wire.Client
	var snks [2]*sink
	for k := range pubs {
		d, err := startDaemon(l.sch, "", bo)
		if err != nil {
			return err
		}
		defer d.stop()
		if pubs[k], err = dialWire(d.addr); err != nil {
			return err
		}
		defer pubs[k].Close()
		if k == 0 {
			if snks[k], err = subscribeAll(d.brk, l.profs[:n], nil); err != nil {
				return err
			}
			continue
		}
		sub, err := dialWire(d.addr)
		if err != nil {
			return err
		}
		snk, done := newSink(), make(chan struct{})
		go func() {
			defer close(done)
			for n := range sub.Notifications() {
				snk.col.deliver(n.Seq, 0)
			}
		}()
		defer func() { _ = sub.Close(); <-done }()
		for i := 0; i < n; i++ {
			if err := sub.Subscribe(l.in.ids[i], l.in.profiles[i], 0, wireTimeout); err != nil {
				return err
			}
		}
		snks[k] = snk
	}
	var notifs int64
	l.pass("", 1, func(tr *tracer, b, root int, evs [][]float64) {
		var hit [][]float64
		for _, v := range evs {
			for _, bx := range l.in.boxes[:n] {
				if bx.holds(v) {
					hit = append(hit, v)
					break
				}
			}
			if len(hit) == notifyEvents {
				break
			}
		}
		for k, name := range []string{pNotifyLocal, pNotifyWire} {
			t0 := time.Now()
			for _, v := range hit {
				m, err := pubs[k].PublishVals(v, wireTimeout)
				ok := snks[k].settle(m)
				if tr.on {
					notifs += int64(m * k)
					l.res.check(err == nil && ok && m > 0, "%s batch %d: error %v, %d matches, notifications arrived %v", name, b, err, m, ok)
				}
			}
			tr.add(name, b, root, t0, time.Now())
		}
	})
	self := selfTimes(l.tr.spans, ladderBelow)
	l.m["wire.notify_us_per_notification"] = float64(self[pNotifyWire].Nanoseconds()) / 1e3 / float64(max(notifs, 1))
	return nil
}

// runLadder executes the traced run of one workload.
func runLadder(cfg ladderConfig) (*ladderResult, error) {
	in := cfg.w.generate(cfg.seed, cfg.sz)
	res := &ladderResult{PlanHash: in.hash, Events: cfg.sz.ladderEvents, Metrics: make(map[string]float64)}
	l := &ladder{cfg: cfg, res: res, tr: newTracer(true), sch: newSchema(), in: in, bo: cfg.w.brokerOptions(),
		batches: cfg.sz.ladderEvents / traceBatch, warm: 2, m: res.Metrics}
	if l.bo.Adaptive {
		l.warm = warmAdaptive
	}
	l.counts, l.perB = make([]int, l.batches*traceBatch), make([]int, l.batches)
	for b := 0; b < l.batches; b++ {
		l.rootOf = append(l.rootOf, l.tr.add("batch", b, 0, time.Time{}, time.Time{}))
	}

	t0 := time.Now()
	var err error
	if l.profs, err = parseAll(l.sch, "s", in.profiles[:in.live]); err != nil {
		return nil, err
	}
	l.parse = time.Since(t0)
	order := make([]int, len(l.profs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return in.boxes[order[i]].volume() > in.boxes[order[j]].volume() })
	for _, i := range order {
		l.coverersFirst = append(l.coverersFirst, l.profs[i])
	}
	// Edit probes add and remove shapes of the same kind from another family.
	for _, b := range cfg.w.shapes(rand.New(rand.NewPCG(familySeed+1, 0)), sizes{subs: editOps})[:editOps] {
		l.extxt = append(l.extxt, b.text())
	}
	if l.extra, err = parseAll(l.sch, "x", l.extxt); err != nil {
		return nil, err
	}
	for _, step := range []struct {
		what string
		run  func() error
	}{
		{"engines", l.engines}, {"broker", l.brokerRung}, {"genas", l.genasRungs}, {"routing", l.routingRung},
		{"wire", l.wireRung},
		{"federation 1 hop", func() error { return l.fedRung(rFed1, 1) }},
		{"federation 2 hops", func() error { return l.fedRung(rFed2, 2) }},
		{"wire subscriber probe", l.notifyProbe},
	} {
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", step.what, err)
		}
	}
	l.tr.closeRoots()

	m := l.m
	total, self := totalTimes(l.tr.spans), selfTimes(l.tr.spans, ladderBelow)
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / l.events() }
	res.Top = rGenas
	if cfg.w.fed {
		res.Top = rFed2
	}
	for name := res.Top; ; name = ladderBelow[name] {
		res.Rungs = append([]rungReport{{Name: name, Below: ladderBelow[name], NsPerEvent: perEvent(total[name]),
			SelfNsPerEvent: perEvent(self[name]), ShareOfTop: float64(self[name]) / float64(total[res.Top])}}, res.Rungs...)
		if ladderBelow[name] == "" {
			break
		}
	}
	m["tree.match_ns_per_event"] = perEvent(total[rTree])
	m["core.match_ns_per_event"] = perEvent(self[rCore])
	m["core.sharded_match_ns_per_event"] = perEvent(total[pSharded])
	m["core.batch_ns_per_event"] = perEvent(total[pMatchBatch])
	m["agg.expand_ns_per_event"] = perEvent(self[pAggExpand])
	m["broker.publish_ns_per_event"] = perEvent(self[rBroker])
	m["broker.deliver_ns_per_notification"] = float64(self[rBroker].Nanoseconds()) / float64(max(sum(l.perB), 1))
	m["genas.publish_values_ns_per_event"] = perEvent(self[rGenas])
	m["genas.publish_map_ns_per_event"] = perEvent(self[pGenasMap])
	m["genas.publish_batch_ns_per_event"] = perEvent(self[pGenasBatch])
	m["routing.hop_ns_per_event"] = perEvent(self[rRouting]) / 2
	m["wire.batch_us_per_event"] = perEvent(self[rWire]) / 1e3
	m["federation.hop_us_per_event"] = perEvent(self[rFed1]) / 1e3

	res.TraceFile = filepath.Join(cfg.outDir, cfg.w.name+".trace.json")
	res.Spans = len(l.tr.spans)
	if err := mkdirFor(res.TraceFile); err != nil {
		return nil, err
	}
	if err := l.tr.write(res.TraceFile, traceFile{Workload: cfg.w.name, Seed: cfg.seed, Below: ladderBelow}); err != nil {
		return nil, err
	}

	// The bench.* metrics describe the end-to-end run shape; a short
	// untraced end-to-end pass in this process provides them, and the
	// base of the tracing overhead ratio.
	small := cfg.sz
	small.setups, small.reps = 1, 3
	small.eventsPerRep = max(sampleEvery, small.eventsPerRep/4/sampleEvery*sampleEvery)
	small.latencySamples = max(100, small.latencySamples/4)
	e2e, err := runE2E(runConfig{w: cfg.w, sz: small, churnEvery: 50, waitLimit: 2 * time.Second}, in)
	if err != nil {
		return nil, fmt.Errorf("untraced end-to-end pass: %w", err)
	}
	res.Small = e2e
	res.Attempted += e2e.Attempted
	res.Failed += e2e.Failed
	res.Failures = append(res.Failures, e2e.Failures...)
	vals := e2eMetrics(e2e)
	for _, d := range demoted {
		m[d.Name] = vals[d.Name]
	}
	m["bench.notify_p99_us"] = e2e.NotifyUs.P99
	m["bench.churn_op_p99_us"] = e2e.ChurnUs.P99
	m["bench.rep_spread_rel"] = spread(e2e.RepEventsPerS)
	m["bench.gc_cpu_share"] = e2e.GCCPUShare
	m["bench.trace_overhead_ratio"] = l.events() / total[res.Top].Seconds() / median(e2e.RepEventsPerS)
	return res, nil
}

func printLadder(r *ladderResult) {
	fmt.Printf("plan hash %s  %d events per rung in batches of %d  %d spans -> %s\n", r.PlanHash, r.Events, traceBatch, r.Spans, r.TraceFile)
	fmt.Printf("stack ladder (top rung %s; self = rung minus the rung below on the same batch):\n", r.Top)
	for _, g := range r.Rungs {
		fmt.Printf("  %-34s %12.1f ns/event  self %12.1f ns/event  %5.1f%% of top\n", g.Name, g.NsPerEvent, g.SelfNsPerEvent, 100*g.ShareOfTop)
	}
	fmt.Println("per-layer metrics:")
	for _, d := range perLayer {
		fmt.Printf("  %-38s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Printf("correctness: attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}
