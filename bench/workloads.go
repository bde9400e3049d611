package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"genas"
)

// Schema slots of the paper's environmental schema.
const (
	aTemp = iota
	aHum
	aFloor
	aSev
	nAttrs
)

const (
	tempLo, tempHi = -30.0, 50.0
	humLo, humHi   = 0.0, 100.0
	floors         = 40
)

var (
	attrNames = [nAttrs]string{"temperature", "humidity", "floor", "severity"}
	sevLabels = []string{"low", "medium", "high", "critical"}
)

func newSchema() *genas.Schema {
	sev, err := genas.NewCategoricalDomain(sevLabels...)
	if err != nil {
		panic(err) // static labels
	}
	return genas.MustSchema(
		genas.Attr(attrNames[aTemp], genas.MustNumericDomain(tempLo, tempHi)),
		genas.Attr(attrNames[aHum], genas.MustNumericDomain(humLo, humHi)),
		genas.Attr(attrNames[aFloor], genas.MustIntegerDomain(0, floors-1)),
		genas.Attr(attrNames[aSev], sev),
	)
}

// box is one conjunctive range profile over the schema. Every generated
// subscription is a box, so the benchmark can render it in the profile
// language (the only form the program under test ever sees).
type box struct {
	tLo, tHi, hLo, hHi float64
	fLo, fHi           int   // fLo < 0: any floor
	sev                uint8 // bit mask over sevLabels; 0: any severity
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (b box) text() string {
	var s strings.Builder
	s.WriteString("profile(temperature in [" + ftoa(b.tLo) + "," + ftoa(b.tHi) + "]; humidity in [" + ftoa(b.hLo) + "," + ftoa(b.hHi) + "]")
	if b.fLo >= 0 {
		s.WriteString("; floor in [" + strconv.Itoa(b.fLo) + "," + strconv.Itoa(b.fHi) + "]")
	}
	if b.sev != 0 {
		s.WriteString("; severity in {")
		first := true
		for i, l := range sevLabels {
			if b.sev&(1<<i) != 0 {
				if !first {
					s.WriteString(", ")
				}
				s.WriteString(l)
				first = false
			}
		}
		s.WriteString("}")
	}
	s.WriteString(")")
	return s.String()
}

// volume is the size of the box: a box that covers another is larger.
func (b box) volume() float64 {
	v := (b.tHi - b.tLo) * (b.hHi - b.hLo)
	if b.fLo >= 0 {
		v *= float64(b.fHi-b.fLo+1) / floors
	}
	if b.sev != 0 {
		v *= float64(bits.OnesCount8(b.sev)) / float64(len(sevLabels))
	}
	return v
}

// shrink returns the strict refinement k of b: both numeric ranges lose k
// grid units at each end, so b covers the result and never equals it.
func (b box) shrink(k int, tq, hq float64) box {
	r := b
	r.tLo, r.tHi = b.tLo+float64(k)*tq, b.tHi-float64(k)*tq
	r.hLo, r.hHi = b.hLo+float64(k)*hq, b.hHi-float64(k)*hq
	return r
}

// rangeOn draws a range inside [lo, hi] whose width is a grid multiple
// within the given bounds, placed uniformly (never clipped, so a range is
// never narrower than wMin).
func rangeOn(r *rand.Rand, lo, hi, wMin, wMax, q float64) (float64, float64) {
	w := math.Max(q, math.Round((wMin+r.Float64()*(wMax-wMin))/q)*q)
	a := lo + math.Round(r.Float64()*(hi-lo-w)/q)*q
	return a, a + w
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s from a precomputed table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

// rank maps a uniform u in [0,1) to a rank.
func (z zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// sevCDF skews severity towards "low" (0.5, 0.3, 0.15, 0.05).
var sevCDF = [...]float64{0.5, 0.8, 0.95, 1}

// inputs is everything one run feeds the program: subscription texts (the
// first live ones are installed at set-up, the rest are churn reserve) and
// the event plan, replayed in order.
type inputs struct {
	boxes    []box
	profiles []string // boxes as profile-language text
	ids      []string // subscription ids
	live     int      // subscriptions installed at set-up
	plan     [][]float64
	hash     string
}

// owed is the oracle's count: how many live set-up subscriptions hold ev.
func (in *inputs) owed(ev []float64) (n uint8) {
	for _, b := range in.boxes[:in.live] {
		if b.holds(ev) {
			n++
		}
	}
	return n
}

// owedAll is owed for every event of the plan.
func (in *inputs) owedAll() []uint8 {
	out := make([]uint8, len(in.plan))
	for i, ev := range in.plan {
		out[i] = in.owed(ev)
	}
	return out
}

// sizes are a workload's committed counts at -seconds 20 (the committed
// run_seconds); -seconds scales the event counts, -quick scales everything.
type sizes struct {
	subs, reserve  int
	planLen        int
	setups         int // set-ups timed per run; the last one is driven
	reps           int // timed throughput repetitions (one untimed warm-up precedes them)
	eventsPerRep   int
	latencySamples int
	ladderEvents   int // events per rung of the traced run
}

type workload struct {
	name, why string
	sizes     sizes
	fed       bool                  // three daemons on loopback instead of one in-process service
	options   func() []genas.Option // in-process service options
	// Throughput-phase churn: after every churnEvery events, churnOps
	// unsubscribes and churnOps subscribes (0: none).
	churnEvery, churnOps int
	shapes               func(fam *rand.Rand, sz sizes) []box
	events               func(h halton, plan [][]float64)
}

// Grid steps of generated range bounds: coarse enough that the flat
// automaton stays buildable, fine enough that structures stay distinct.
const (
	tGrid = 0.5
	hGrid = 1.0
)

var workloads = []*workload{
	{
		name:  "match-drift",
		why:   "the paper's experiment: 4000 distinct range profiles on a flat adaptive index, drifting events, 0.1 matches per event; tree, core and adaptive do the work, agg/wire/federation none",
		sizes: sizes{subs: 4000, planLen: 1 << 18, setups: 5, reps: 7, eventsPerRep: 9 << 18, latencySamples: 40_000, ladderEvents: 128 << 10},
		options: func() []genas.Option {
			return []genas.Option{genas.WithAdaptive(), genas.WithAdaptivePolicy(adaptWindow, adaptThreshold, false)}
		},
		shapes: shapesMatchDrift,
		events: eventsMatchDrift,
	},
	{
		name:    "fanout-agg",
		why:     "many subscribers, few shapes: Zipf draws from 400 templates on the aggregated index, broad events reaching hundreds each; agg expansion and broker delivery dominate, matching is negligible",
		sizes:   sizes{subs: 20_000, planLen: 1 << 18, setups: 5, reps: 5, eventsPerRep: 16_000, latencySamples: 20_000, ladderEvents: 4 << 10},
		options: func() []genas.Option { return []genas.Option{genas.WithAggregation()} },
		shapes:  shapesFanoutAgg,
		events:  uniformEvents,
	},
	{
		name:       "churn-mixed",
		why:        "writes beside reads: a sharded flat index with 10 subscription edits per 100 events; tree insert/remove, core coalescing and broker.Subscribe dominate",
		sizes:      sizes{subs: 4000, reserve: 2000, planLen: 1 << 18, setups: 5, reps: 5, eventsPerRep: 80_000, latencySamples: 20_000, ladderEvents: 64 << 10},
		options:    func() []genas.Option { return []genas.Option{genas.WithShards(2)} },
		churnEvery: 100,
		churnOps:   5,
		shapes:     shapesChurnMixed,
		events:     uniformEvents,
	},
	{
		name:   "fed-2hop",
		why:    "three daemons A-B-C on loopback TCP, wire v2, covering on: framing, syscalls, notify frames and federation forwarding dominate and the matcher is a rounding error",
		sizes:  sizes{subs: 64, planLen: 1 << 18, setups: 15, reps: 7, eventsPerRep: 160_000, latencySamples: 40_000, ladderEvents: 96 << 10},
		fed:    true,
		shapes: shapesFed2Hop,
		events: eventsFed2Hop,
	},
}

// Pinned adaptive policy of match-drift (and of the adaptive probes).
const (
	adaptWindow    = 4096
	adaptThreshold = 0.15
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// familySeed draws the subscriptions, in the order they are installed and
// churned. It is a constant: the run's seed decides every event of the plan
// but not the subscriptions, so the counts that depend on the shape of the
// index (ops_per_event, allocs_per_event, bytes_per_sub) are comparable
// between runs on different seeds.
const familySeed = 2002

// generate builds the run's inputs from the seed alone.
func (w *workload) generate(seed uint64, sz sizes) *inputs {
	// The second PCG word separates the workloads' streams.
	var stream uint64
	for _, c := range w.name {
		stream = stream*131 + uint64(c)
	}
	boxes := w.shapes(rand.New(rand.NewPCG(familySeed, stream)), sz)
	plan := newPlan(sz.planLen)
	w.events(newHalton(rand.New(rand.NewPCG(seed, stream))), plan)

	in := &inputs{boxes: boxes, profiles: make([]string, len(boxes)), ids: make([]string, len(boxes)), live: sz.subs, plan: plan}
	h := sha256.New()
	for i, b := range boxes {
		in.ids[i] = fmt.Sprintf("s%05d", i)
		in.profiles[i] = b.text()
		h.Write([]byte(in.profiles[i]))
		h.Write([]byte{0})
	}
	var buf [8]byte
	for _, ev := range plan {
		for _, v := range ev {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	in.hash = hex.EncodeToString(h.Sum(nil)[:8])
	return in
}

// newPlan allocates n event vectors over one backing array.
func newPlan(n int) [][]float64 {
	flat := make([]float64, n*nAttrs)
	plan := make([][]float64, n)
	for i := range plan {
		plan[i] = flat[i*nAttrs : (i+1)*nAttrs : (i+1)*nAttrs]
	}
	return plan
}

// halton is a randomly shifted Halton sequence: point i has one coordinate
// in [0,1) per dimension, and every prefix of the sequence covers the unit
// cube evenly. Events drawn from it hit every subscription in proportion to
// its volume far sooner than independent draws would, so a few thousand
// events already load the system the same way on every seed; the seed only
// moves the lattice (and so every single event).
type halton struct{ shift [len(haltonBases)]float64 }

var haltonBases = [...]uint64{2, 3, 5, 7, 11, 13}

// Dimensions of the sequence.
const (
	dTemp = iota
	dHum
	dFloor
	dSev
	dMix // which component of a mixture the event comes from
	dKey // which hot key or template
)

func newHalton(r *rand.Rand) halton {
	var h halton
	for d := range h.shift {
		h.shift[d] = r.Float64()
	}
	return h
}

func (h halton) at(i, dim int) float64 {
	inv, f := 0.0, 1.0
	for n, b := uint64(i+1), haltonBases[dim]; n > 0; n /= b {
		f /= float64(b)
		inv += f * float64(n%b)
	}
	x := inv + h.shift[dim]
	return x - math.Floor(x)
}

// uniform fills ev with point i: temperature and humidity uniform over
// their domains, floor uniform, severity skewed towards "low".
func (h halton) uniform(i int, ev []float64) {
	ev[aTemp] = tempLo + h.at(i, dTemp)*(tempHi-tempLo)
	ev[aHum] = humLo + h.at(i, dHum)*(humHi-humLo)
	ev[aFloor] = math.Floor(h.at(i, dFloor) * floors)
	ev[aSev] = float64(sort.SearchFloat64s(sevCDF[:], h.at(i, dSev)))
}

func uniformEvents(h halton, plan [][]float64) {
	for i, ev := range plan {
		h.uniform(i, ev)
	}
}

// distinctBox draws boxes until one has a structure not seen before.
func distinctBox(r *rand.Rand, seen map[box]bool, draw func(*rand.Rand) box) box {
	for {
		b := draw(r)
		if !seen[b] {
			seen[b] = true
			return b
		}
	}
}

// narrowBox draws a selective range profile: numeric widths inside the
// given bounds, a range of fMin to fMax floors with probability pFloor, a
// severity subset with probability pSev.
func narrowBox(r *rand.Rand, tMin, tMax, hMin, hMax float64, fMin, fMax int, pFloor, pSev float64) box {
	var b box
	b.tLo, b.tHi = rangeOn(r, tempLo, tempHi, tMin, tMax, tGrid)
	b.hLo, b.hHi = rangeOn(r, humLo, humHi, hMin, hMax, hGrid)
	b.fLo = -1
	if r.Float64() < pFloor {
		n := fMin + r.IntN(fMax-fMin+1)
		b.fLo = r.IntN(floors - n + 1)
		b.fHi = b.fLo + n - 1
	}
	if r.Float64() < pSev {
		b.sev = uint8(1 + r.IntN(1<<len(sevLabels)-2)) // non-empty proper subset
	}
	return b
}

// match-drift: structurally distinct narrow ranges with uniform centres,
// each on one to three floors and a severity subset, so an event matches 0.1
// of them on average: one notification costs the system as much as two to
// four matches against the whole index, and the matcher only dominates the
// workload while most events are filtered out. The first half of the plan
// peaks low on temperature (gauss), the second half sits 85 % on 24 Zipf hot
// keys at the high end, so the value order the adaptor picked for one half is
// wrong for the other.
func shapesMatchDrift(r *rand.Rand, sz sizes) []box {
	seen := make(map[box]bool, sz.subs)
	boxes := make([]box, sz.subs)
	for i := range boxes {
		boxes[i] = distinctBox(r, seen, func(r *rand.Rand) box { return narrowBox(r, 1, 3, 2, 5, 1, 3, 1, 1) })
	}
	return boxes
}

const hotKeys = 24

func eventsMatchDrift(h halton, plan [][]float64) {
	z := newZipf(hotKeys, 1.2)
	half := len(plan) / 2
	for i, ev := range plan {
		h.uniform(i, ev)
		switch {
		case i < half:
			g := -12 + 6*math.Sqrt2*math.Erfinv(2*h.at(i, dTemp)-1)
			ev[aTemp] = math.Min(tempHi, math.Max(tempLo, g))
		case h.at(i, dMix) < 0.85:
			k := z.rank(h.at(i, dKey))
			ev[aTemp] = 30.25 + 0.75*float64(k*7%hotKeys) // hot ranks scattered over the keys
		}
	}
}

// fanout-agg: broad templates, each subscription a Zipf(1.1) draw of a
// template and, one time in four, one of its three strict refinements; so
// the subscriptions intern to at most 1600 canonical nodes under 400 roots,
// and a uniform event reaches hundreds of them.
func shapesFanoutAgg(r *rand.Rand, sz sizes) []box {
	const templates = 400
	seen := make(map[box]bool, templates)
	tpl := make([]box, templates)
	for i := range tpl {
		tpl[i] = distinctBox(r, seen, func(r *rand.Rand) box {
			var b box
			b.tLo, b.tHi = rangeOn(r, tempLo, tempHi, 7, 12, 1)
			b.hLo, b.hHi = rangeOn(r, humLo, humHi, 8, 18, 1)
			b.fLo = -1
			if r.Float64() < 0.5 {
				b.sev = uint8(1 + r.IntN(1<<len(sevLabels)-2))
			}
			return b
		})
	}
	z := newZipf(templates, 1.1)
	boxes := make([]box, sz.subs)
	for i := range boxes {
		b := tpl[z.rank(r.Float64())]
		if r.Float64() < 0.25 {
			b = b.shrink(1+r.IntN(3), 1, 1)
		}
		boxes[i] = b
	}
	return boxes
}

// churn-mixed: a ring of subs+reserve profiles, even slots drawn from 200
// templates, odd slots structurally new; the live window slides along the
// ring as the throughput phase churns, so every edit alternates between a
// duplicate and a new structure.
func shapesChurnMixed(r *rand.Rand, sz sizes) []box {
	const templates = 200
	draw := func(r *rand.Rand) box { return narrowBox(r, 2, 5, 2, 6, 8, 20, 0.5, 0.4) }
	seen := make(map[box]bool, sz.subs+sz.reserve)
	tpl := make([]box, templates)
	for i := range tpl {
		tpl[i] = distinctBox(r, seen, draw)
	}
	boxes := make([]box, sz.subs+sz.reserve)
	for i := range boxes {
		if i%2 == 0 {
			boxes[i] = tpl[r.IntN(templates)]
		} else {
			boxes[i] = distinctBox(r, seen, draw)
		}
	}
	return boxes
}

// fed-2hop geometry: a 4x4 grid of disjoint template boxes over
// temperature x humidity with empty bands between the temperature columns.
const (
	fedTemplates = 16
	fedCopies    = 4 // per template: two exact copies and two strict refinements
)

func fedTemplate(i int) box {
	t0, h0 := tempLo+20*float64(i%4)+1, humLo+25*float64(i/4)+2
	return box{tLo: t0, tHi: t0 + 12, hLo: h0, hHi: h0 + 18, fLo: -1}
}

// fed-2hop: 16 disjoint templates x 4 subscriptions at C (two equal, two
// covered, so covering leaves 16 routes); 70 % of the events fall inside a
// template box and reach 2-4 subscriptions, 30 % fall in the empty bands
// and must be filtered at A. No event can match more than fedCopies
// subscriptions, which the delivery window relies on.
func shapesFed2Hop(_ *rand.Rand, sz sizes) []box {
	boxes := make([]box, sz.subs)
	for i := range boxes {
		boxes[i] = fedTemplate((i / fedCopies) % fedTemplates)
		if k := i % fedCopies; k >= 2 {
			boxes[i] = boxes[i].shrink(k-1, 2*tGrid, 2*hGrid)
		}
	}
	return boxes
}

func eventsFed2Hop(h halton, plan [][]float64) {
	for i, ev := range plan {
		h.uniform(i, ev)
		if h.at(i, dMix) < 0.7 {
			b := fedTemplate(int(h.at(i, dKey) * fedTemplates))
			ev[aTemp] = b.tLo + h.at(i, dTemp)*(b.tHi-b.tLo)
			ev[aHum] = b.hLo + h.at(i, dHum)*(b.hHi-b.hLo)
		} else {
			// Template columns end at 20*col+13; [15, 19) of each is empty.
			ev[aTemp] = tempLo + 20*math.Floor(h.at(i, dKey)*4) + 15 + 4*h.at(i, dTemp)
		}
	}
}
