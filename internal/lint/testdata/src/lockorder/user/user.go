// Package user reproduces the PR 6 routing/broker deadlock shape: one
// package pins an order, a downstream package holds the second lock while
// re-entering a path that takes the first — the AB/BA inversion lockorder
// exists to catch, across the package boundary via acquisition facts.
package user

import (
	"sync"

	"fix/lockorder/base"
)

// Reversed holds T2.Mu, then calls into the canonical path, which
// acquires T1.Mu (and T2.Mu again): the cross-package inversion.
func Reversed(a *base.T1, b *base.T2) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	base.FirstThenSecond(a, b) // want "lock order cycle"
}

// SameOrder repeats the canonical order directly: consistent, quiet.
func SameOrder(a *base.T1, b *base.T2) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock()
	defer b.Mu.Unlock()
}

// A and B are package-local lock owners for the same-package cycle.
type A struct{ Mu sync.Mutex }

// B is the other side of the local inversion.
type B struct{ Mu sync.Mutex }

// AB records the A→B direction.
func AB(a *A, b *B) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock()
	b.Mu.Unlock()
}

// BA inverts it: the cycle closes on the later-scanned edge.
func BA(a *A, b *B) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	a.Mu.Lock() // want "lock order cycle"
	a.Mu.Unlock()
}

// Sequential releases before acquiring the next lock: no nesting, no
// edge, no finding.
func Sequential(a *A, b *B) {
	b.Mu.Lock()
	b.Mu.Unlock()
	a.Mu.Lock()
	a.Mu.Unlock()
}

// TwoShards locks two instances of one type: a self-edge, skipped by the
// type-granular analysis (instance order is out of scope).
func TwoShards(s1, s2 *A) {
	s1.Mu.Lock()
	defer s1.Mu.Unlock()
	s2.Mu.Lock()
	s2.Mu.Unlock()
}

// C and D are lock owners whose inversion hides in an immediately invoked
// function literal, which runs in place under its caller's locks.
type C struct{ Mu sync.Mutex }

// D is the other side of the inversion.
type D struct{ Mu sync.Mutex }

// CD records the C→D direction inside the literal.
func CD(c *C, d *D) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	func() {
		d.Mu.Lock()
		d.Mu.Unlock()
	}()
}

// DC inverts it.
func DC(c *C, d *D) {
	d.Mu.Lock()
	defer d.Mu.Unlock()
	c.Mu.Lock() // want "lock order cycle"
	c.Mu.Unlock()
}
