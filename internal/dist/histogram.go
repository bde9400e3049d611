package dist

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"genas/internal/schema"
)

// ErrBadHistogram reports invalid histogram construction.
var ErrBadHistogram = errors.New("dist: invalid histogram")

// Histogram is the adaptive component's event history for one attribute: an
// equal-width bin counter over the domain, read one window at a time. Observe
// is one lock-free add on the lifetime counts; Rotate closes the window open
// since the previous Rotate by differencing them against the counts it saw
// then, so every observation lands in exactly one window whatever the
// interleaving. Rotate and the window readers (Snapshot, Drift, Window) must
// be serialized by the caller; Observe and N never wait for them.
type Histogram struct {
	dom    schema.Domain
	counts []int64   // lifetime, atomic
	base   []int64   // counts at the last Rotate
	win    []float64 // bin masses of the last closed window
	n      float64   // their sum
}

// NewHistogram creates a histogram with the given number of equal-width bins
// over the domain.
func NewHistogram(dom schema.Domain, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("%w: bins = %d", ErrBadHistogram, bins)
	}
	if dom.Kind() == 0 {
		return nil, fmt.Errorf("%w: unset domain", ErrBadHistogram)
	}
	return &Histogram{dom: dom, counts: make([]int64, bins), base: make([]int64, bins), win: make([]float64, bins)}, nil
}

// Bins returns the bin count.
func (h *Histogram) Bins() int { return len(h.counts) }

// Observe counts one value. Values outside the domain clamp to the nearest
// bin and NaN is dropped, so a misbehaving publisher cannot corrupt the
// history.
//
//genas:hotpath
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	x := (v - h.dom.Lo()) / h.dom.Size()
	// Clamp in float space: converting an out-of-range float (±Inf, or a
	// huge outlier) to int is implementation-defined in Go.
	f := x * float64(len(h.counts))
	if !(f > 0) {
		f = 0
	}
	if f >= float64(len(h.counts)) {
		f = float64(len(h.counts) - 1)
	}
	atomic.AddInt64(&h.counts[int(f)], 1)
}

// N returns the number of values observed over the histogram's lifetime.
func (h *Histogram) N() uint64 {
	var n int64
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return uint64(n)
}

// Rotate closes the open window: what was observed since the previous Rotate
// becomes the window the readers see.
func (h *Histogram) Rotate() {
	h.n = 0
	for i := range h.counts {
		c := atomic.LoadInt64(&h.counts[i])
		h.win[i] = float64(c - h.base[i])
		h.base[i] = c
		h.n += h.win[i]
	}
}

// Window returns the number of values in the last closed window.
func (h *Histogram) Window() float64 { return h.n }

// Snapshot freezes the last closed window into a normalized step shape. With
// an empty window it returns the uniform shape — the same prior the adaptive
// component starts from, so an empty histogram never reports drift.
func (h *Histogram) Snapshot() Shape {
	if h.n <= 0 {
		return UniformShape{}
	}
	cuts := make([]float64, len(h.win)+1)
	for i := range cuts {
		cuts[i] = float64(i) / float64(len(h.win))
	}
	s, err := NewStepAt("hist", cuts, h.win)
	if err != nil {
		// Unreachable: cuts and weights are valid by construction.
		return UniformShape{}
	}
	return s
}

// Drift compares the last closed window with the applied shape, itself an
// estimate from n samples (0: exact). It returns their total variation on
// the histogram's bins and the sampling floor: the value that distance is
// expected to take when nothing drifted and only the two samples' noise
// separates them, sqrt((1/n_window + 1/n)/2π) · Σ sqrt(p_i(1−p_i)) over the
// window's bin masses p_i. An empty window reports no drift.
func (h *Histogram) Drift(applied Shape, n float64) (tv, floor float64) {
	if h.n <= 0 {
		return 0, 0
	}
	bins := float64(len(h.win))
	for i, w := range h.win {
		p := w / h.n
		tv += math.Abs(p - MassOn(applied, float64(i)/bins, float64(i+1)/bins))
		floor += math.Sqrt(p * (1 - p))
	}
	v := 1 / h.n
	if n > 0 {
		v += 1 / n
	}
	return tv / 2, floor * math.Sqrt(v/(2*math.Pi))
}
