package federation

import "genas/internal/wire"

// ForwardBudget is forwardBudget, for the tests of the outbox rule.
const ForwardBudget = forwardBudget

// OutboxOf returns the outbox of the live link to peer, or nil.
func (f *Fed) OutboxOf(peer string) *wire.Outbox {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if l := f.links[peer]; l != nil {
		return l.out
	}
	return nil
}

// ForwardScratch hands each forward payload to handleFrame on a link from
// peer, threading the scratch through as runLink does, and returns the
// scratch runLink would keep.
func (f *Fed) ForwardScratch(peer string, payloads ...[]byte) []float64 {
	l := &peerLink{name: peer}
	var vals []float64
	for _, p := range payloads {
		vals, _ = f.handleFrame(l, wire.FrameForward, p, vals)
	}
	return vals
}
