// Package hook bridges the sealed public facade to in-module integration
// points. The v1 surface deliberately has no Service.Broker() escape hatch;
// the daemon (cmd/genasd), the federation example (examples/federation) and
// the root package's tests still need the underlying broker to serve it over
// the wire, so package genas installs narrow accessors here at init time.
// The package is internal: external callers cannot reach it, which is the
// point.
package hook

import (
	"genas/internal/broker"
	"genas/internal/event"
)

// Installed by package genas in an init function. The argument is a
// *genas.Service (typed any to avoid the import cycle); passing anything
// else panics, which is the contract violation it looks like.
var (
	// BrokerOf returns the broker inside a *genas.Service.
	BrokerOf func(service any) *broker.Broker
	// DefaultsOf returns the service's configured event-attribute defaults
	// (nil when WithDefaults was not used).
	DefaultsOf func(service any) *event.Defaults
)
