package broker

import (
	"runtime"
	"slices"
	"sync"
)

// A handler subscription (SubOptions.Handler) has no channel and no
// goroutine of its own. It is pinned at subscribe time to one of the
// broker's delivery workers, round robin; a worker drains one FIFO of
// (subscription, notification) entries and calls each entry's handler in
// turn, so a subscription's handler runs sequentially and in the order its
// notifications were queued, and a slow handler delays the handlers that
// share its worker. The broker starts GOMAXPROCS workers at the first
// handler subscribe, and they end once Close has been called and their FIFO
// is empty. The FIFO holds the notifications in flight, so delivery memory
// grows with them, not with the subscriptions.
//
// A handler subscription's buffer is a count: room is how many more
// notifications it may queue, and a notification counts from the moment it
// is queued until its worker takes it, as one in a channel's ring does.
// DropNewest refuses a notification at the cap; DropOldest evicts the
// subscription's oldest queued one by bumping skip, and the worker discards
// that many of the subscription's next entries; Block waits, outside the
// send fence, for the worker to take one (blockingQueue).

// worker is one delivery worker. mu guards its FIFO, its waiters and the
// room and skip of every subscription pinned to it.
type worker struct {
	mu sync.Mutex
	// ring holds the FIFO: n entries from head, wrapping; its length is a
	// power of two, grown when full.
	ring    []entry
	head, n int
	// dead counts the entries DropOldest evicted that are still in ring
	// (the sum of the pinned subscriptions' skip).
	dead int
	// waiters are the Block-policy publishers waiting for room in a
	// pinned subscription, each on its publisher's wake channel.
	waiters []waiter
	// idle is set while the goroutine waits on wake, which then holds no
	// token: whoever clears idle sends the one token.
	idle bool
	wake chan struct{}
	// stop is set by Close: the goroutine exits once the FIFO is empty.
	stop bool
}

// entry is one queued notification.
type entry struct {
	s *Subscription
	n Notification
}

// waiter is one Block-policy publisher waiting for room in s.
type waiter struct {
	s    *Subscription
	wake chan struct{}
}

// minRing is the length a worker's ring starts at.
const minRing = 64

// pin makes s, a handler subscription with buffer capacity, a client of
// the next worker, round robin, creating the workers on the first call.
// Their goroutines start in startWorkers, once a subscription is
// registered. Caller holds regMu.
func (b *Broker) pin(s *Subscription, capacity int) {
	if b.workers == nil {
		b.workers = make([]*worker, min(runtime.GOMAXPROCS(0), 1<<16))
		for i := range b.workers {
			b.workers[i] = &worker{wake: make(chan struct{}, 1)}
		}
	}
	s.worker = uint16(b.next % len(b.workers))
	b.next++
	s.room = int32(min(capacity, 1<<31-1))
}

// startWorkers starts the workers' goroutines, once. Caller holds regMu.
func (b *Broker) startWorkers() {
	if b.running {
		return
	}
	b.running = true
	for _, w := range b.workers {
		go w.run()
	}
}

// run is the worker's goroutine: it takes the FIFO's entries in order,
// discarding the ones DropOldest evicted, and calls each handler without
// holding mu. Taking an entry gives its subscription room again and wakes
// the publishers waiting for it.
func (w *worker) run() {
	w.mu.Lock()
	for {
		if w.n == 0 {
			if w.stop {
				w.mu.Unlock()
				return
			}
			w.idle = true
			w.mu.Unlock()
			<-w.wake
			w.mu.Lock()
			continue
		}
		e := w.ring[w.head]
		w.ring[w.head] = entry{}
		w.head = (w.head + 1) & (len(w.ring) - 1)
		w.n--
		if e.s.skip > 0 {
			e.s.skip--
			w.dead--
			continue
		}
		e.s.room++
		if len(w.waiters) > 0 {
			w.release(e.s)
		}
		w.mu.Unlock()
		e.s.handler(e.n)
		w.mu.Lock()
	}
}

// offer queues n for s under its non-blocking drop policy, reporting as
// send does whether n was queued and how many older notifications were
// evicted for it. Runs under the send fence's read side, so s has not
// ended and the broker has not stopped the worker.
func (w *worker) offer(s *Subscription, n Notification) (sent bool, evicted int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case s.room > 0:
		s.room--
	case s.policy == DropOldest:
		s.skip++
		w.dead++
		evicted = 1
	default:
		return false, 0
	}
	w.put(s, n)
	return true, evicted
}

// tryQueue queues n for the Block-policy subscription s if it has room. It
// reports gone, queuing nothing, once s has ended or the broker has
// stopped the worker. With no room, a non-nil wake is registered to
// receive a token when the worker next takes one of s's entries.
func (w *worker) tryQueue(s *Subscription, n Notification, wake chan struct{}) (queued, gone bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case s.closed.Load() || w.stop:
		return false, true
	case s.room > 0:
		s.room--
		w.put(s, n)
		return true, false
	case wake != nil:
		w.waiters = append(w.waiters, waiter{s: s, wake: wake})
	}
	return false, false
}

// put appends an entry to the FIFO and wakes the goroutine if it waits.
// Caller holds mu.
func (w *worker) put(s *Subscription, n Notification) {
	if w.n == len(w.ring) {
		w.grow()
	}
	w.ring[(w.head+w.n)&(len(w.ring)-1)] = entry{s: s, n: n}
	w.n++
	w.signal()
}

// signal wakes the goroutine if it waits on wake. Caller holds mu.
func (w *worker) signal() {
	if w.idle {
		w.idle = false
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// grow makes room for one more entry in a full ring: it drops the evicted
// entries in place when they are at least half of it, and doubles it
// otherwise, so the ring stays within twice the notifications in flight.
// Caller holds mu.
func (w *worker) grow() {
	if w.dead > 0 && 2*w.dead >= w.n {
		w.compact()
		return
	}
	ring := make([]entry, max(2*len(w.ring), minRing))
	for i := range w.n {
		ring[i] = w.ring[(w.head+i)&(len(w.ring)-1)]
	}
	w.ring, w.head = ring, 0
}

// compact removes the evicted entries from the ring, keeping the order of
// the rest: a subscription's first skip entries are the evicted ones, so it
// consumes the skips as the goroutine would. Caller holds mu.
func (w *worker) compact() {
	mask := len(w.ring) - 1
	kept := 0
	for i := range w.n {
		e := w.ring[(w.head+i)&mask]
		if e.s.skip > 0 {
			e.s.skip--
			continue
		}
		w.ring[(w.head+kept)&mask] = e
		kept++
	}
	for i := kept; i < w.n; i++ {
		w.ring[(w.head+i)&mask] = entry{}
	}
	w.n, w.dead = kept, 0
}

// release sends a token to every publisher waiting for room in s and
// forgets them. Caller holds mu.
func (w *worker) release(s *Subscription) {
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if wt.s != s {
			kept = append(kept, wt)
			continue
		}
		select {
		case wt.wake <- struct{}{}:
		default:
		}
	}
	clear(w.waiters[len(kept):])
	w.waiters = kept
}

// forget removes the waiter registered with wake, if the worker has not
// released it, and then takes the token the worker may have sent: wake is
// its publisher's, and holds no token once its wait is over.
func (w *worker) forget(wake chan struct{}) {
	w.mu.Lock()
	w.waiters = slices.DeleteFunc(w.waiters, func(wt waiter) bool { return wt.wake == wake })
	w.mu.Unlock()
	select {
	case <-wake:
	default:
	}
}

// halt sets stop and wakes the goroutine, which then exits once its FIFO is
// empty. Close calls it after ending every subscription, without waiting
// for the goroutine, so that a handler may call Close.
func (w *worker) halt() {
	w.mu.Lock()
	w.stop = true
	w.signal()
	w.mu.Unlock()
}

// blockingQueue is blockingSend for a handler subscription: with no room it
// waits until its worker takes one of s's entries, s ends, or the
// publisher's cancel channel fires, counted as a waiter of the broker's end
// signal as blockingSend is. wake is the publisher's own one-token channel,
// which the worker sends on, so no wait allocates. The counts are
// blockingSend's.
func (b *Broker) blockingQueue(s *Subscription, n Notification, cancel <-chan struct{}, wake chan struct{}) bool {
	w := b.workers[s.worker]
	if queued, gone := w.tryQueue(s, n, nil); queued || gone {
		if queued {
			s.delivered.Add(1)
		}
		return queued
	}
	b.waiting.Add(1)
	defer b.waiting.Add(-1)
	for {
		ended := b.ended.Load().(chan struct{})
		queued, gone := w.tryQueue(s, n, wake)
		if gone {
			s.dropped.Add(1)
			return false
		}
		if queued {
			s.delivered.Add(1)
			return true
		}
		select {
		case <-wake:
		case <-ended:
			w.forget(wake)
		case <-cancel:
			w.forget(wake)
			s.dropped.Add(1)
			return false
		}
	}
}
