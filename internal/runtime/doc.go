// Package runtime turns the batch-mode PFM library into a long-running
// service: a concurrent, wall-clock Monitor–Evaluate–Act pipeline over
// live event streams, the online counterpart of the simulation-clocked
// experiments (the paper's Fig. 1 loop and Sect. 6 blueprint describe
// exactly this shape — a control loop that keeps up with monitoring
// ingest).
//
// The pipeline has two kinds of goroutine, each context-driven with
// clean shutdown and drain:
//
//	producers ──Ingest──▶ [bounded shard queues] ──▶ shard consumers:
//	                                                   Apply to predictor state
//	                                                   (shared state lock)
//	ticker / EvaluateNow / Stop ──▶ evaluate loop ──▶ CycleBatch(now):
//	replay driver ─────────────────────────────────▶   evaluate layers in a
//	                                                   worker pool (exclusive
//	                                                   state lock), then act
//	                                                   (serialized core.ActOn)
//
//	  - Ingest accepts error events and monitoring samples through bounded
//	    shard queues with an explicit overflow policy — Block
//	    (backpressure), DropOldest (keep the freshest evidence), or
//	    DropNewest (protect the backlog) — with per-policy drop counters.
//	    One consumer per shard applies events to the user's
//	    predictor-visible state under the shared side of the state lock.
//	  - A cycle is one synchronous CycleBatch. The evaluate loop runs one
//	    per ticker tick, per EvaluateNow request and once after Stop's
//	    drain, each over the single time the domain clock reads at its
//	    start; a replay driver may instead call CycleBatch with a stack of
//	    due times. Layers score in parallel in a worker pool under the
//	    exclusive side of the state lock, so they see a consistent
//	    snapshot while ingest keeps queueing behind them.
//	  - The act step then runs core.Engine.ActOn for each time in order,
//	    preserving the single cross-layer decision and oscillation-guard
//	    semantics of the batch engine.
//
// Observability is built in: every stage feeds an atomic-counter Metrics
// registry (events ingested/applied/dropped, evaluations, warnings,
// actions, per-stage latency histograms, queue depth) rendered in
// Prometheus text format and served, with the health, trace, ledger and
// incident endpoints, over stdlib net/http. HandleShared, ServeIncidents
// and StartServer are the parts of that plane the fleet reuses.
//
// Invariant (checked by the stress tests): after Stop returns, every
// event presented to Ingest was either applied or counted dropped —
// ingested = applied + dropped.
package runtime
