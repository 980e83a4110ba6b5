package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesMetricTable keeps them in
// step); Moves records, for a per-layer metric, which end-to-end metric it
// should move and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are printed on every workload with --trace 0. The failed ratio
// is the result's failed/attempted pair, not a metric: it is 0 on a
// correct run. Latency tails are gated at p90: on a shared 2-vCPU host
// the p99 of a run moved by 40-80% between runs of unchanged code, too
// much for any bound; the p99 and the highest percentile with ten
// samples beyond it are still reported in each run's notes and result
// file.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "apply_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "decide_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "decide_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower"},
}

const (
	onSat    = "events_per_s on tcp-1000-sat"
	onOpen   = "apply_p90_ms on tcp-1000-open"
	onDecide = "decide_p90_ms on tcp-1000-open"
	onReplay = "events_per_s on replay-1"
)

// perLayer are printed on every workload with --trace 1; a layer the
// workload does not run reads 0.
var perLayer = []metricDef{
	{Name: "fleet.listen_wait_ns", Unit: "ns", Better: "lower", Moves: onSat},
	{Name: "fleet.wire_decode_ns", Unit: "ns", Better: "lower", Moves: onSat},
	{Name: "fleet.text_decode_ns", Unit: "ns", Better: "lower", Moves: onOpen},
	{Name: "fleet.ingest_ns", Unit: "ns", Better: "lower", Moves: onSat + "; " + onOpen},
	{Name: "fleet.queue_wait_ns", Unit: "ns", Better: "lower", Moves: onOpen},
	{Name: "fleet.apply_ns", Unit: "ns", Better: "lower", Moves: onSat + "; " + onOpen},
	{Name: "fleet.queue_depth_p99", Unit: "count", Better: "lower", Moves: onSat + "; " + onOpen},
	{Name: "fleet.cycle_p50_ms", Unit: "ms", Better: "lower", Moves: onDecide + "; " + onOpen},
	{Name: "fleet.cycle_p99_ms", Unit: "ms", Better: "lower", Moves: onDecide + "; " + onOpen},
	{Name: "fleet.cycle_self_ms", Unit: "ms", Better: "lower", Moves: onDecide + "; " + onOpen},
	{Name: "fleet.cycle_lock_wait_ms", Unit: "ms", Better: "lower", Moves: onDecide},
	{Name: "layer.load.score_ns", Unit: "ns", Better: "lower", Moves: onDecide + "; " + onReplay},
	{Name: "layer.errors.score_ns", Unit: "ns", Better: "lower", Moves: onDecide + "; " + onReplay},
	{Name: "layer.memory.score_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "layer.swap.score_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.ingest_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.queue_wait_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.apply_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.barrier_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.cycle_self_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "runtime.columnar_read_ms", Unit: "ms", Better: "lower", Moves: "setup_s on replay-1"},
	{Name: "eventlog.append_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "timeseries.append_ns", Unit: "ns", Better: "lower", Moves: onReplay},
	{Name: "core.evaluations", Unit: "count", Better: "higher", Moves: "must equal the serial reference on replay-1"},
	{Name: "core.warnings", Unit: "count", Better: "lower", Moves: "must equal the serial reference on replay-1"},
	{Name: "core.actions", Unit: "count", Better: "lower", Moves: "must equal the serial reference on replay-1"},
	{Name: "obs.ledger_predictions", Unit: "count", Better: "higher", Moves: "must equal the serial reference on replay-1"},
	{Name: "obs.ledger_failures", Unit: "count", Better: "higher", Moves: "must equal the failure records sent"},
	{Name: "go.allocs_per_event", Unit: "count", Better: "lower", Moves: "cpu_us_per_event and apply_p90_ms on tcp-1000-open; events_per_s elsewhere"},
	{Name: "go.alloc_bytes_per_event", Unit: "B", Better: "lower", Moves: "cpu_us_per_event and apply_p90_ms on tcp-1000-open; events_per_s elsewhere"},
	{Name: "go.gc_pause_p99_ms", Unit: "ms", Better: "lower", Moves: "apply_p90_ms on tcp-1000-open; events_per_s elsewhere"},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "validates tcp-1000-open: the generator kept its schedule"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: cost of the traced run over the untraced one"},
}
