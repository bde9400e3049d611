package locksafe

import (
	"sync"
	"time"
)

// pair holds two locks: under both, a diagnostic names the one acquired
// first, the same on every run.
type pair struct {
	first  sync.Mutex
	second sync.RWMutex
	ch     chan int
}

func (p *pair) sendUnderBoth(n int) {
	p.first.Lock()
	defer p.first.Unlock()
	p.second.Lock()
	defer p.second.Unlock()
	p.ch <- n // want "channel send while p.first is held"
}

func (p *pair) receiveUnderBoth() int {
	p.first.Lock()
	defer p.first.Unlock()
	p.second.RLock()
	defer p.second.RUnlock()
	return <-p.ch // want "channel receive while p.first is held"
}

func (p *pair) sleepUnderBoth() {
	p.first.Lock()
	p.second.Lock()
	time.Sleep(time.Millisecond) // want "call to Sleep (sleep) while p.first is held"
	p.second.Unlock()
	p.first.Unlock()
}

func (p *pair) callbackUnderBoth(fn func()) {
	p.first.Lock()
	defer p.first.Unlock()
	p.second.Lock()
	defer p.second.Unlock()
	fn() // want "call through function value (possible user callback) while p.first is held"
}

func (p *pair) helperUnderBoth() {
	p.first.Lock()
	defer p.first.Unlock()
	p.second.Lock()
	defer p.second.Unlock()
	p.drain() // want "call to drain (calls receiveUnderBoth, which may block (channel receive)) while p.first is held"
}

func (p *pair) drain() { p.receiveUnderBoth() }

// secondFirst takes the locks the other way round: second is named.
func (p *pair) secondFirst(n int) {
	p.second.Lock()
	defer p.second.Unlock()
	p.first.Lock()
	defer p.first.Unlock()
	p.ch <- n // want "channel send while p.second is held"
}

// localAndField holds a local mutex taken before the field.
func (p *pair) localAndField(n int) {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	p.first.Lock()
	defer p.first.Unlock()
	p.ch <- n // want "channel send while mu is held"
}

// firstReleased drops the first lock: the second is what is still held.
func (p *pair) firstReleased(n int) {
	p.first.Lock()
	p.second.Lock()
	p.first.Unlock()
	p.ch <- n // want "channel send while p.second is held"
	p.second.Unlock()
}

// relocked takes first again while second is still held: second has been
// held longer, so it is named.
func (p *pair) relocked(n int) {
	p.first.Lock()
	p.second.Lock()
	p.first.Unlock()
	p.first.Lock()
	p.ch <- n // want "channel send while p.second is held"
	p.first.Unlock()
	p.second.Unlock()
}

func (p *pair) relockedReceive() int {
	p.first.Lock()
	p.second.Lock()
	defer p.second.Unlock()
	p.first.Unlock()
	p.first.Lock()
	defer p.first.Unlock()
	return <-p.ch // want "channel receive while p.second is held"
}

func (p *pair) relockedCallback(fn func()) {
	p.first.Lock()
	p.second.RLock()
	p.first.Unlock()
	p.first.Lock()
	fn() // want "call through function value (possible user callback) while p.second is held"
	p.first.Unlock()
	p.second.RUnlock()
}
