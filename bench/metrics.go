package main

import "slices"

// metricDef names one metric the way BENCHMARK.json does.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// Count marks metrics that are counts made by the program or the
	// runtime: -compare reports their difference, never a speed-up.
	Count bool `json:"-"`
}

// endToEnd lists the metrics that gate: BENCHMARK.json repeats names, units
// and bounds, and a test keeps the two equal. The counts repeat exactly for
// one seed and within a fraction of their bound between seeds. Set-up time
// is the one timing here, because the benchmark contract requires it; it
// has the contract's widest bound.
var endToEnd = []metricDef{
	{Name: "ops_per_event", Unit: "ops", Better: "lower", Bound: 0.01, Count: true},
	{Name: "allocs_per_event", Unit: "allocs", Better: "lower", Bound: 0.02, Count: true},
	{Name: "bytes_per_sub", Unit: "bytes", Better: "lower", Bound: 0.02, Count: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// demoted lists the end-to-end timings. On this sandbox none of them holds
// a 10 % bound between two sets of runs of the same code (CALIBRATION.md),
// so they do not gate: every end-to-end run prints and records them, the
// traced run reports them among the per-layer metrics, and -compare judges
// them by pairs.
var demoted = []metricDef{
	{Name: "bench.events_per_s", Unit: "events/s", Better: "higher"},
	{Name: "bench.cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "bench.notify_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.churn_op_p50_us", Unit: "us", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics reduces a run to its end-to-end metrics, gating and demoted:
// the median over the repetitions, over all latency samples, over all churn
// steps and over the set-ups.
func e2eMetrics(r *e2eResult) map[string]float64 {
	return map[string]float64{
		"ops_per_event":          median(r.RepOpsPerEvent),
		"allocs_per_event":       median(r.RepAllocsPerEv),
		"bytes_per_sub":          median(r.BytesPerSub),
		"setup_s":                median(r.SetupS),
		"bench.events_per_s":     median(r.RepEventsPerS),
		"bench.cpu_us_per_event": median(r.RepCPUUsPerEvent),
		"bench.notify_p50_us":    r.NotifyUs.P50,
		"bench.churn_op_p50_us":  r.ChurnUs.P50,
	}
}

// withUnits attaches the declared units, keeping only declared metrics.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// perLayer lists what the traced run reports: the metrics of single layers,
// named <package>.<metric>, the demoted timings and the shape of the run.
// They have no bound: they explain end-to-end moves.
var perLayer = slices.Concat(layers, demoted, runShape)

var layers = []metricDef{
	{Name: "predicate.parse_us_per_profile", Unit: "us", Better: "lower"},
	{Name: "tree.match_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "tree.ops_per_event", Unit: "ops", Better: "lower", Count: true},
	{Name: "tree.nodes", Unit: "count", Better: "lower", Count: true},
	{Name: "tree.build_ms", Unit: "ms", Better: "lower"},
	{Name: "tree.insert_us_per_op", Unit: "us", Better: "lower"},
	{Name: "tree.remove_us_per_op", Unit: "us", Better: "lower"},
	{Name: "agg.expand_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "agg.compression_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "agg.roots", Unit: "count", Better: "lower", Count: true},
	{Name: "agg.add_us_per_op", Unit: "us", Better: "lower"},
	{Name: "agg.remove_us_per_op", Unit: "us", Better: "lower"},
	{Name: "agg.freeze_us", Unit: "us", Better: "lower"},
	{Name: "core.match_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.match_allocs_per_event", Unit: "allocs", Better: "lower", Count: true},
	{Name: "core.sharded_match_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.batch_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.add_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.remove_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "adaptive.observe_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adaptive.restructures", Unit: "count", Better: "lower", Count: true},
	{Name: "adaptive.restructure_ms", Unit: "ms", Better: "lower"},
	{Name: "adaptive.ops_ratio", Unit: "ratio", Better: "lower", Count: true},
	{Name: "broker.publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "broker.deliver_ns_per_notification", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_allocs_per_event", Unit: "allocs", Better: "lower", Count: true},
	{Name: "broker.dropped", Unit: "count", Better: "lower", Count: true},
	{Name: "broker.subscribe_us_per_op", Unit: "us", Better: "lower"},
	{Name: "genas.publish_values_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "genas.publish_map_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "genas.publish_batch_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "routing.hop_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.publish_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch_us_per_event", Unit: "us", Better: "lower"},
	{Name: "wire.notify_us_per_notification", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_event", Unit: "bytes", Better: "lower", Count: true},
	{Name: "wire.allocs_per_event", Unit: "allocs", Better: "lower", Count: true},
	{Name: "wire.subscribe_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "federation.hop_us_per_event", Unit: "us", Better: "lower"},
	{Name: "federation.forwarded_per_event", Unit: "ratio", Better: "lower", Count: true},
	{Name: "federation.filter_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "federation.routes", Unit: "count", Better: "lower", Count: true},
	{Name: "federation.route_install_us_per_op", Unit: "us", Better: "lower"},
}

var runShape = []metricDef{
	{Name: "bench.notify_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.churn_op_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.rep_spread_rel", Unit: "ratio", Better: "lower"},
	{Name: "bench.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}
