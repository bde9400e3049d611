// Package agg implements canonical subscription aggregation: the covering
// poset that is the engine's index, and that the broker and federation share
// through it.
//
// Profiles are decomposed into per-attribute canonical interval unions and
// structurally interned, so identical conjunctions — however they were
// spelled (a range [0,50] and a ≤50 over the domain [0,50] are the same
// constraint) — share one canonical node. Nodes are ordered into a covering
// poset (a Siena-style filter poset): a node hangs beneath another when every
// event it accepts is also accepted above. The match automaton (the DFSA in
// internal/tree) sees only the poset's roots; concrete subscription ids are
// expanded through the poset at delivery time, descending an edge only when
// the child's predicate still matches the event.
//
// Match cost therefore grows with *distinct* predicate structure, not with
// subscriber count, and per-subscription memory collapses to one SubRef —
// the wall "Towards Scalable Subscription Aggregation and Real Time Event
// Matching in a Large-Scale Content-Based Network" (PAPERS.md) attacks with
// subscription merging.
//
// The poset has no locks of its own: the write side (Add, Intern, Remove,
// Compact, Freeze) is guarded by the owning engine's writer mutex, and the
// read side is the frozen Snapshot published through the engine's epoch/RCU
// snapshot pointer.
package agg

import (
	"math"
	"sort"

	"genas/internal/predicate"
	"genas/internal/schema"
)

// span is one interval of a canonical form, tagged with its attribute. A
// form is the flat list of a profile's spans sorted by attribute, then by
// lower bound: per constrained attribute the maximal disjoint interval union
// the predicate accepts, clipped to the domain. An attribute whose accepted
// union is empty contributes the one span emptySpan, so it still counts as
// constrained.
//
// Canonicalization follows the nominal-constraint semantics of
// predicate.Covers exactly: an attribute appears in the form whenever the
// profile constrains it, even if the accepted union happens to equal the
// whole domain — the pairwise oracle treats such a profile as stricter than a
// don't-care, and the poset must agree with the oracle verdict for verdict.
//
// Two profiles have equal forms iff they constrain the same attributes with
// the same accepted unions — i.e. iff they cover each other under
// predicate.Covers. Bounds are stored with -0 folded into +0, so struct
// equality is form equality and the hash may read the bit patterns.
type span struct {
	attr   int32
	open   uint8 // bit 0: lower bound open; bit 1: upper bound open
	lo, hi float64
}

const loOpen, hiOpen = 1, 2

// emptySpan's bounds: contained in every interval, containing none.
var emptyLo, emptyHi = math.Inf(1), math.Inf(-1)

// formOf appends p's canonical form to dst.
func formOf(s *schema.Schema, p *predicate.Profile, dst []span) []span {
	for attr := 0; attr < s.N(); attr++ {
		if !p.Constrains(attr) {
			continue
		}
		ivs := mergeIntervals(p.Pred(attr).Intervals(s.At(attr).Domain))
		if len(ivs) == 0 {
			dst = append(dst, span{attr: int32(attr), lo: emptyLo, hi: emptyHi})
		}
		for _, iv := range ivs {
			sp := span{attr: int32(attr), lo: posZero(iv.Lo), hi: posZero(iv.Hi)}
			if iv.LoOpen {
				sp.open |= loOpen
			}
			if iv.HiOpen {
				sp.open |= hiOpen
			}
			dst = append(dst, sp)
		}
	}
	return dst
}

// mergeIntervals normalizes an interval union: sorted by lower bound and
// with overlapping or compatibly-touching neighbors merged. For predicates
// constructible in the profile language this only deduplicates repeated
// set-membership points — no operator emits two distinct mergeable
// intervals — which keeps the canonical form's containment test in exact
// agreement with predicate.Covers on the raw lists.
func mergeIntervals(ivs []schema.Interval) []schema.Interval {
	if len(ivs) < 2 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return !ivs[i].LoOpen && ivs[j].LoOpen // closed lower bound first
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		a := &out[len(out)-1]
		touches := iv.Lo < a.Hi || (iv.Lo == a.Hi && !(a.HiOpen && iv.LoOpen))
		if !touches {
			out = append(out, iv)
			continue
		}
		if iv.Hi > a.Hi || (iv.Hi == a.Hi && a.HiOpen && !iv.HiOpen) {
			a.Hi, a.HiOpen = iv.Hi, iv.HiOpen
		}
	}
	return out
}

// posZero folds -0 into +0 so the two bit patterns intern identically.
func posZero(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x
}

// hashForm is the interning hash (FNV-1a over the form's words). Equal forms
// hash alike; the intern table settles collisions by comparing forms.
func hashForm(form []span) uint64 {
	h := uint64(14695981039346656037)
	for _, sp := range form {
		for _, w := range [3]uint64{uint64(sp.attr)<<8 | uint64(sp.open), math.Float64bits(sp.lo), math.Float64bits(sp.hi)} {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// linkKey is a node's covering prefilter: the constrained-attribute bitmask
// over the first 64 attributes and the hull of the union accepted on the
// first constrained attribute. p can only cover q when every attribute p
// constrains is constrained by q too, and, if both start at the same
// attribute, when q's hull there lies inside p's. Keys live in an array of
// their own so that placing one node against every other is a scan over
// contiguous memory that reads a form only for the few pairs left.
type linkKey struct {
	mask   uint64
	lo, hi float64
	attr   int32 // first constrained attribute; -1 marks a removed node
}

func keyOf(form []span) linkKey {
	if len(form) == 0 {
		// Constrains nothing, covers everything: no hull to compare.
		return linkKey{attr: math.MaxInt32}
	}
	k := linkKey{attr: form[0].attr, lo: form[0].lo}
	for _, sp := range form {
		if sp.attr < 64 {
			k.mask |= 1 << uint(sp.attr)
		}
		if sp.attr == k.attr {
			k.hi = sp.hi // spans of one attribute ascend
		}
	}
	return k
}

// mayCover is the prefilter: false only when a's node cannot cover b's.
func mayCover(a, b *linkKey) bool {
	return a.mask&^b.mask == 0 && (a.attr != b.attr || (a.lo <= b.lo && b.hi <= a.hi))
}

// coversForm reports whether p covers q under the oracle's semantics:
// every attribute p constrains must be constrained by q with q's accepted
// union contained in p's (because p's spans on one attribute are disjoint, a
// q-span must fit inside a single one).
func coversForm(p, q []span) bool {
	j := 0
	for i := 0; i < len(p); {
		attr := p[i].attr
		end := i + 1
		for end < len(p) && p[end].attr == attr {
			end++
		}
		for j < len(q) && q[j].attr < attr {
			j++
		}
		if j == len(q) || q[j].attr != attr {
			return false // q doesn't constrain an attribute p does
		}
		for ; j < len(q) && q[j].attr == attr; j++ {
			contained := false
			for _, ps := range p[i:end] {
				if containsSpan(ps, q[j]) {
					contained = true
					break
				}
			}
			if !contained {
				return false
			}
		}
		i = end
	}
	return true
}

// containsSpan reports p ⊇ q for two spans of one attribute (mirrors
// predicate's unexported interval test).
func containsSpan(p, q span) bool {
	if q.lo > q.hi {
		return true // emptySpan
	}
	loOK := p.lo < q.lo || (p.lo == q.lo && (p.open&loOpen == 0 || q.open&loOpen != 0))
	hiOK := p.hi > q.hi || (p.hi == q.hi && (p.open&hiOpen == 0 || q.open&hiOpen != 0))
	return loOK && hiOK
}
