// Package locksafe is the locksafe analyzer fixture: each function either
// reproduces a blocking-under-lock shape the analyzer must flag, or the
// corrected idiom it must stay quiet on.
package locksafe

import (
	"net"
	"sync"
	"time"
)

type broker struct {
	mu   sync.RWMutex
	ch   chan int
	conn net.Conn
	wg   sync.WaitGroup
}

// blockUnderLock is the PR 3 Block-send regression shape: a blocking
// channel send while the delivery shard's read lock is held.
func (b *broker) blockUnderLock(n int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.ch <- n // want "channel send while b.mu is held"
}

// nonBlockingUnderLock is the corrected form: the send cannot block inside
// a select with a default case.
func (b *broker) nonBlockingUnderLock(n int) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	select {
	case b.ch <- n:
		return true
	default:
		return false
	}
}

// sendAfterUnlock releases before sending: quiet.
func (b *broker) sendAfterUnlock(n int) {
	b.mu.Lock()
	v := n + 1
	b.mu.Unlock()
	b.ch <- v
}

func (b *broker) receiveUnderLock() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want "channel receive while b.mu is held"
}

func (b *broker) selectUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want "select with no default case"
	case v := <-b.ch:
		_ = v
	case <-time.After(time.Millisecond):
	}
}

func (b *broker) writeUnderLock(p []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, err := b.conn.Write(p) // want "network write"
	return err
}

func (b *broker) sleepUnderLock() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want "sleep"
	b.mu.Unlock()
}

func (b *broker) waitUnderLock() {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.wg.Wait() // want "WaitGroup wait"
}

// callBlockingHelper blocks transitively: helper performs the send.
func (b *broker) callBlockingHelper(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.helper(n) // want "call to helper"
}

func (b *broker) helper(n int) {
	b.ch <- n
}

// rangeUnderLock drains the channel while holding the lock.
func (b *broker) rangeUnderLock() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for v := range b.ch { // want "range over channel"
		total += v
	}
	return total
}

// callbackUnderLock invokes a user-provided function value under the lock.
func (b *broker) callbackUnderLock(fn func(int)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(1) // want "call through function value"
}

// goroutineUnderLock is quiet: the spawned goroutine does not run under
// the caller's lock.
func (b *broker) goroutineUnderLock(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- n
	}()
}

// localClosureUnderLock: a single-assignment local closure is inlined at
// its call site, so the send inside it is still caught.
func (b *broker) localClosureUnderLock(n int) {
	send := func() {
		b.ch <- n // want "channel send while b.mu is held"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	send()
}

// invokedLiteralUnderLock: an immediately invoked function literal runs in
// place, under the locks held at its call.
func (b *broker) invokedLiteralUnderLock(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	func() {
		b.ch <- n // want "channel send while b.mu is held"
	}()
}

// deferredLiteralUnderLock is quiet: a deferred literal is not entered.
func (b *broker) deferredLiteralUnderLock(n int) {
	b.mu.Lock()
	defer func() {
		b.ch <- n
	}()
	b.mu.Unlock()
}

// allowedSend carries a documented suppression: quiet.
func (b *broker) allowedSend(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	//genas:allow locksafe fixture: intentional blocking send under the lock
	b.ch <- n
}

// reacquire exercises sequential lock tracking across unlock/lock pairs.
func (b *broker) reacquire(n int) {
	b.mu.RLock()
	b.mu.RUnlock()
	b.ch <- n // quiet: nothing held here
	b.mu.Lock()
	b.mu.Unlock()
}
