package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// latencyStride is the step of the latency phase through the plan: odd, so
// it visits every event of the 2^k-event plan once, and large, so that the
// samples cover the whole plan (both halves of match-drift's drift) instead
// of its first events.
const latencyStride = 4099

// latencyGiveUp ends the latency phase after this many failed events; each
// may have waited for the whole wait limit.
const latencyGiveUp = 50

// runConfig is one end-to-end run: a workload, a seed and the scaled sizes.
type runConfig struct {
	w          *workload
	sz         sizes
	churnEvery int // latency-phase churn: one unsubscribe + one subscribe after this many samples
	waitLimit  time.Duration
	dropEvery  int64 // -selftest-drop
	wrong      bool  // -selftest-wrong
}

// e2eResult carries the measurements of one run; metrics.go turns it into
// named metrics.
type e2eResult struct {
	PlanHash         string    `json:"plan_hash"`
	SetupS           []float64 `json:"setup_s"`
	BytesPerSub      []float64 `json:"bytes_per_sub"`
	RepEventsPerS    []float64 `json:"rep_events_per_s"`
	RepCPUUsPerEvent []float64 `json:"rep_cpu_us_per_event"`
	RepOpsPerEvent   []float64 `json:"rep_ops_per_event"`
	RepAllocsPerEv   []float64 `json:"rep_allocs_per_event"`
	RepChurnShare    []float64 `json:"rep_churn_time_share"`
	GCCPUShare       float64   `json:"gc_cpu_share"`
	EventsPerRep     int       `json:"events_per_rep"`
	LatencySamples   int       `json:"latency_samples"`
	ChurnSamples     int       `json:"churn_samples"`
	OracleSamples    int       `json:"oracle_samples"`
	NotifyUs         quantiles `json:"notify_us"`
	ChurnUs          quantiles `json:"churn_op_us"`
	RepRestructures  []int     `json:"rep_restructures"`
	WarmRestructures int       `json:"warmup_restructures"`
	MatchedTotal     int64     `json:"matched_total"`
	DeliveredTotal   int64     `json:"delivered_total"`
	Dropped          uint64    `json:"dropped"`
	tally
}

// tally counts a run's operations and keeps the first few failures for the
// reader.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation that succeeded iff ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle empties what the first moved to the pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gcCPU returns the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// e2eRun is the state of the driven set-up.
type e2eRun struct {
	cfg     runConfig
	in      *inputs
	res     *e2eResult
	t       target
	col     *collector
	log     *sampleLog
	ring    ring
	matched int64     // notifications the published events must produce
	lost    int64     // notifications given up on after a time-out
	churnUs []float64 // per churn step: mean duration of its calls
}

// setUp builds the target, installs the live subscriptions and publishes
// the set-up event; the clock stops when its notifications are in hand.
func (r *e2eRun) setUp(setupEvent int) (time.Duration, error) {
	start := time.Now()
	r.col, r.log = newCollector(), &sampleLog{}
	t, err := newTarget(r.cfg.w, r.in, r.col, r.log)
	if err != nil {
		return 0, err
	}
	r.t = t
	for i := 0; i < r.in.live; i++ {
		if err := r.t.subscribe(i); err != nil {
			return 0, fmt.Errorf("subscribe %d: %w", i, err)
		}
	}
	if err := r.t.ready(); err != nil {
		return 0, err
	}
	want, err := r.t.publishRange(setupEvent, 1, 0)
	if err != nil {
		return 0, fmt.Errorf("set-up publish: %w", err)
	}
	r.matched = int64(want)
	if !r.col.wait(r.matched, r.cfg.waitLimit) {
		return 0, fmt.Errorf("set-up event: %d of %d notifications arrived", r.col.got.Load(), want)
	}
	// Sampling counts from the event after the set-up event, whose sequence
	// number its notifications just showed.
	*r.log = sampleLog{}
	r.col.firstSeq = r.col.lastSeq.Load() + 1
	r.col.dropEvery = r.cfg.dropEvery
	return time.Since(start), nil
}

// churn unsubscribes and subscribes the given pool slots, every call timed,
// and records one sample: the mean duration of the step's calls. Single
// calls have two modes (an unsubscribe takes 2-20 us, a subscribe 100-400)
// and as many of one as of the other, so their median falls in the gap
// between the modes and means nothing; a step's mean has one mode.
func (r *e2eRun) churn(unsubscribe, subscribe []int) time.Duration {
	var spent time.Duration
	timed := func(slots []int, call func(int) error, what string) {
		for _, i := range slots {
			t0 := time.Now()
			err := call(i)
			spent += time.Since(t0)
			r.res.check(err == nil, "%s %d: %v", what, i, err)
		}
	}
	timed(unsubscribe, r.t.unsubscribe, "unsubscribe")
	timed(subscribe, r.t.subscribe, "subscribe")
	r.churnUs = append(r.churnUs, float64(spent.Nanoseconds())/1e3/float64(len(unsubscribe)+len(subscribe)))
	return spent
}

// churnStep runs the throughput-phase churn: ops unsubscribes at the head
// of the live window and ops subscribes past its tail.
func (r *e2eRun) churnStep(ops int) time.Duration {
	out, in := make([]int, ops), make([]int, ops)
	for k := range out {
		out[k], in[k] = r.ring.slot(k), r.ring.slot(r.ring.live+k)
	}
	r.ring.head = r.ring.slot(ops)
	return r.churn(out, in)
}

// publish sends plan events [lo, lo+n) in the target's chunks and, where
// the target asks for it, waits for each chunk's notifications.
func (r *e2eRun) publish(lo, n int) (churnTime time.Duration) {
	chunk := r.t.chunk()
	for done := 0; done < n; {
		c := min(chunk, n-done)
		want, err := r.t.publishRange(lo+done, c, r.ring.head)
		r.res.Attempted += c
		r.matched += int64(want)
		if err != nil {
			r.res.fail("publish at %d: %v", lo+done, err)
		}
		if r.t.windowed() {
			r.awaitAll("batch")
		}
		done += c
		if r.cfg.w.churnEvery > 0 && c == chunk {
			churnTime += r.churnStep(r.cfg.w.churnOps)
		}
	}
	return churnTime
}

// awaitAll waits until every notification owed so far has arrived; a
// time-out is a failed operation and resynchronizes the count.
func (r *e2eRun) awaitAll(what string) bool {
	if r.col.wait(r.matched, r.cfg.waitLimit) {
		return true
	}
	missing := r.matched - r.col.got.Load()
	r.res.fail("%s: %d of %d notifications missing after %v", what, missing, r.matched, r.cfg.waitLimit)
	r.lost += missing
	r.col.got.Add(missing)
	return false
}

// throughputRep runs one closed-loop repetition of n events and, if timed,
// records its rates.
func (r *e2eRun) throughputRep(n int, timed bool) {
	runtime.GC()
	c0 := r.t.counters()
	m0, cpu0, t0 := mallocs(), cpuTime(), time.Now()
	churnTime := r.publish(0, n)
	r.awaitAll("repetition")
	wall := time.Since(t0)
	cpu, m1 := cpuTime()-cpu0, mallocs()
	c1 := r.t.counters()
	res := r.res
	if !timed {
		res.WarmRestructures = c1.restructures - c0.restructures
		return
	}
	res.RepRestructures = append(res.RepRestructures, c1.restructures-c0.restructures)
	res.RepEventsPerS = append(res.RepEventsPerS, float64(n)/wall.Seconds())
	res.RepCPUUsPerEvent = append(res.RepCPUUsPerEvent, float64(cpu.Nanoseconds())/1e3/float64(n))
	res.RepAllocsPerEv = append(res.RepAllocsPerEv, float64(m1-m0)/float64(n))
	res.RepChurnShare = append(res.RepChurnShare, churnTime.Seconds()/wall.Seconds())
	if c1.events > c0.events {
		res.RepOpsPerEvent = append(res.RepOpsPerEvent, float64(c1.ops-c0.ops)/float64(c1.events-c0.events))
	}
}

// latencyPhase publishes one event at a time and waits for all of its
// notifications; events nobody subscribed to are sent but not sampled. It
// gives up after latencyGiveUp failed events (a dead connection, or a
// subscriber that loses notifications) and returns what it has.
func (r *e2eRun) latencyPhase() []float64 {
	lat := make([]float64, 0, r.cfg.sz.latencySamples)
	for i, failed := 0, r.res.Failed; len(lat) < r.cfg.sz.latencySamples && r.res.Failed-failed < latencyGiveUp; i++ {
		t0 := time.Now()
		want, err := r.t.publishRange(i*latencyStride, 1, r.ring.head)
		r.res.Attempted++
		r.matched += int64(want)
		if err != nil {
			r.res.fail("publish at %d: %v", i, err)
			continue
		}
		ok := r.awaitAll("latency sample")
		if want == 0 || !ok {
			continue
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(lat)%r.cfg.churnEvery == 0 {
			// Re-install one live subscription under its own id: the live
			// set is the same before and after, so the oracle stays simple.
			victim := []int{r.ring.slot(len(lat) / r.cfg.churnEvery * 37 % r.ring.live)}
			r.churn(victim, victim)
		}
	}
	return lat
}

// verify checks the sampled events against a brute-force evaluation of the
// generated boxes over the subscriptions live at that point of the
// schedule, and the notification totals.
func (r *e2eRun) verify() {
	res := r.res
	res.MatchedTotal = r.matched
	res.DeliveredTotal = r.col.got.Load() - r.lost
	res.Dropped = r.t.counters().dropped
	res.check(res.DeliveredTotal == res.MatchedTotal && res.Dropped == 0,
		"totals: matched %d, delivered %d, dropped by a broker %d", res.MatchedTotal, res.DeliveredTotal, res.Dropped)
	got := r.col.bySample()
	poolMatches := make(map[int32][]int32) // plan index -> pool indices whose box holds the event
	res.OracleSamples = len(r.log.refs)
	for k, ref := range r.log.refs {
		pm, ok := poolMatches[ref.planIdx]
		if !ok {
			ev := r.in.plan[ref.planIdx]
			for i, b := range r.in.boxes {
				if b.holds(ev) {
					pm = append(pm, int32(i))
				}
			}
			poolMatches[ref.planIdx] = pm
		}
		var want []int32
		for _, i := range pm {
			if liveAt(int(i), int(ref.head), r.ring.live, r.ring.size) {
				want = append(want, i)
			}
		}
		if r.cfg.wrong && k == 0 {
			want = append(want, -2) // the perturbed oracle answer
		}
		res.check(slices.Equal(want, got[uint64(k)]), "sample %d (plan event %d): oracle %v, delivered %v", k, ref.planIdx, want, got[uint64(k)])
		delete(got, uint64(k))
	}
	for k, subs := range got {
		res.check(false, "sample %d was never published but delivered %v", k, subs)
	}
}

// holds is the oracle: the box semantics of the generated profile text
// (closed ranges), evaluated without the program under test.
func (b box) holds(ev []float64) bool {
	if ev[aTemp] < b.tLo || ev[aTemp] > b.tHi || ev[aHum] < b.hLo || ev[aHum] > b.hHi {
		return false
	}
	if b.fLo >= 0 && (ev[aFloor] < float64(b.fLo) || ev[aFloor] > float64(b.fHi)) {
		return false
	}
	return b.sev == 0 || b.sev&(1<<int(ev[aSev])) != 0
}

// runE2E executes one end-to-end run of the shape described in README.md.
func runE2E(cfg runConfig, in *inputs) (*e2eResult, error) {
	res := &e2eResult{PlanHash: in.hash, EventsPerRep: cfg.sz.eventsPerRep}
	// The set-up event must be one that is delivered: its notifications
	// tell the subscriber side where the sequence numbers start.
	setupEvent := 0
	for in.owed(in.plan[setupEvent]) == 0 {
		setupEvent++
	}

	var r *e2eRun
	idle := runtime.NumGoroutine()
	for s := 0; s < cfg.sz.setups; s++ {
		if r != nil {
			r.t.close()
		}
		r = &e2eRun{cfg: cfg, in: in, res: res, ring: ring{size: len(in.profiles), live: in.live}}
		// The subscription handlers of a closed target end asynchronously;
		// wait until they have gone and let go of its heap.
		poll(time.Now().Add(2*time.Second), func() bool { return runtime.NumGoroutine() <= idle })
		heap0 := heapAfterGC()
		d, err := r.setUp(setupEvent)
		if err != nil {
			if r.t != nil {
				r.t.close()
			}
			return nil, err
		}
		res.SetupS = append(res.SetupS, d.Seconds())
		res.BytesPerSub = append(res.BytesPerSub, (float64(heapAfterGC())-float64(heap0))/float64(in.live))
	}
	defer r.t.close()
	res.Attempted += in.live + 1 // the driven set-up's subscribes and its event

	r.throughputRep(cfg.sz.eventsPerRep, false) // warm-up: caches fill, the adaptor settles
	gc0, total0 := gcCPU()
	for i := 0; i < cfg.sz.reps; i++ {
		r.throughputRep(cfg.sz.eventsPerRep, true)
	}
	gc1, total1 := gcCPU()
	if total1 > total0 {
		res.GCCPUShare = (gc1 - gc0) / (total1 - total0)
	}
	runtime.GC()
	lat := r.latencyPhase()
	res.LatencySamples, res.ChurnSamples = len(lat), len(r.churnUs)
	res.NotifyUs, res.ChurnUs = quantilesOf(lat), quantilesOf(r.churnUs)
	r.awaitAll("drain")
	r.verify()
	return res, nil
}
