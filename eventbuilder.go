package genas

import (
	"context"
	"errors"
	"fmt"
	"time"

	"genas/internal/event"
)

// EventBuilder assembles events without allocating per event: attribute
// values are written into a fixed positional buffer (by name, by label, or
// all at once with Values), and Publish hands that buffer to the matching
// engine directly — no map, and no event value unless at least one profile
// matched. A builder is reusable: Publish resets it for the next event.
//
//	eb := svc.NewEvent()
//	for reading := range sensor {
//		n, err := eb.Set("temperature", reading.T).Set("humidity", reading.H).Publish()
//		…
//	}
//
// A builder is not safe for concurrent use; give each publisher goroutine
// its own.
type EventBuilder struct {
	sch  *Schema
	svc  *Service // nil for schema-only builders: Event works, Publish fails
	vals []float64
	seen []bool
	at   time.Time
	err  error
}

// NewEvent returns an event builder over the schema. Builders from this
// constructor can Build events but not Publish them; use Service.NewEvent to
// bind one to a service (which also applies the service's WithDefaults).
func NewEvent(sch *Schema) *EventBuilder {
	return &EventBuilder{
		sch:  sch,
		vals: make([]float64, sch.N()),
		seen: make([]bool, sch.N()),
	}
}

// NewEvent returns an event builder bound to the service: Publish posts to
// this service, and attributes omitted from an event fall back to the
// service's WithDefaults values.
func (s *Service) NewEvent() *EventBuilder {
	eb := NewEvent(s.sch)
	eb.svc = s
	return eb
}

// Set assigns one attribute by name.
//
//genas:hotpath
func (b *EventBuilder) Set(name string, v float64) *EventBuilder {
	if b.err != nil {
		return b
	}
	i, err := b.sch.Index(name)
	if err != nil {
		b.err = err
		return b
	}
	b.vals[i] = v
	b.seen[i] = true
	return b
}

// SetLabel assigns one categorical attribute by label.
func (b *EventBuilder) SetLabel(name, label string) *EventBuilder {
	if b.err != nil {
		return b
	}
	i, err := b.sch.Index(name)
	if err != nil {
		b.err = err
		return b
	}
	c, err := labelCode(b.sch.At(i).Domain, label)
	if err != nil {
		b.err = err
		return b
	}
	b.vals[i] = c
	b.seen[i] = true
	return b
}

// Values assigns every attribute positionally in schema order — the fastest
// assembly path for publishers that already hold values in schema order.
//
//genas:hotpath
func (b *EventBuilder) Values(vals ...float64) *EventBuilder {
	if b.err != nil {
		return b
	}
	if len(vals) != b.sch.N() {
		//genas:allow hotpath cold arity-error branch; well-formed events assign without allocating
		b.err = fmt.Errorf("%w: got %d values for %d attributes", event.ErrArity, len(vals), b.sch.N())
		return b
	}
	copy(b.vals, vals)
	for i := range b.seen {
		b.seen[i] = true
	}
	return b
}

// At sets the event occurrence time (default: publish time).
func (b *EventBuilder) At(t time.Time) *EventBuilder {
	b.at = t
	return b
}

// Reset clears the builder for the next event. Publish resets implicitly.
func (b *EventBuilder) Reset() *EventBuilder {
	for i := range b.seen {
		b.seen[i] = false
	}
	b.at = time.Time{}
	b.err = nil
	return b
}

// finalize applies defaults and validates the assembled values in place.
//
//genas:hotpath
func (b *EventBuilder) finalize() error {
	if b.err != nil {
		return b.err
	}
	var d *event.Defaults
	if b.svc != nil {
		d = b.svc.defaults
	}
	if missing := d.Fill(b.vals, b.seen); missing > 0 {
		//genas:allow hotpath cold arity-error branch; fully-specified events skip it
		return fmt.Errorf("%w: event specifies %d of %d attributes",
			event.ErrArity, b.sch.N()-missing, b.sch.N())
	}
	for i := range b.vals {
		if err := b.sch.Validate(i, b.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// Event returns the assembled event as an owned value (the builder may be
// reused afterwards). It does not reset the builder.
func (b *EventBuilder) Event() (Event, error) {
	if err := b.finalize(); err != nil {
		return Event{}, err
	}
	ev, err := event.New(b.sch, b.vals...)
	if err != nil {
		return Event{}, err
	}
	ev.Time = b.at
	return ev, nil
}

// Publish posts the assembled event to the bound service and resets the
// builder. The buffer is only read during matching, so a steady publisher
// allocates nothing for events that match no profile.
func (b *EventBuilder) Publish() (int, error) {
	return b.publish(nil)
}

// PublishCtx is Publish with a cancellation context (see Service.PublishCtx).
func (b *EventBuilder) PublishCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		b.Reset()
		return 0, err
	}
	return b.publish(ctx)
}

// publish is the shared Publish/PublishCtx body. Either way the broker only
// reads the builder's buffer, and copies it when a profile matched.
//
//genas:hotpath
func (b *EventBuilder) publish(ctx context.Context) (int, error) {
	defer b.Reset()
	if b.svc == nil {
		//genas:allow senterr API misuse (zero-value builder), not a runtime condition callers should errors.Is-match
		return 0, errors.New("genas: event builder is not bound to a service; use Service.NewEvent")
	}
	if err := b.finalize(); err != nil {
		return 0, err
	}
	ev := event.Event{Vals: b.vals, Time: b.at}
	if ctx != nil {
		return b.svc.brk.PublishCtx(ctx, ev)
	}
	return b.svc.brk.Publish(ev)
}
