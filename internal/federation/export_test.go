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
