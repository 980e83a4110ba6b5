// Columnar replay mode (-replay-columnar): drive the single-tenant
// runtime from a recorded PFC1 struct-of-arrays trace (loggen -columnar)
// instead of a live simulator. There is no wall-clock pacing — events
// stream through the batched ingest path as fast as the pipeline applies
// them, and MEA cycles that fall due between events are stacked and run
// through Runtime.CycleBatch, so a simulated year replays in seconds and
// the run reports its sustained events/sec.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/runtime"
)

// runColumnar replays a columnar trace through the single-tenant pipeline
// of the live mode, minus the simulator: a recorded trace cannot be
// steered, so the countermeasure is a no-op and only its decision record
// matters, and the replay drives the cycles itself at the -replay-eval
// cadence.
func runColumnar(ctx context.Context, o *options) error {
	if o.replayEval <= 0 {
		return fmt.Errorf("replay-eval cadence must be positive, got %g", o.replayEval)
	}
	f, err := os.Open(o.replayColumnar)
	if err != nil {
		return err
	}
	trace, err := runtime.ReadColumnar(f)
	f.Close()
	if err != nil {
		return err
	}
	nErrors, nSamples := trace.CountKinds()
	// The runtime's own ticker stays off — cycles are driven synchronously
	// below, which is what lets them stack into batches.
	p, err := startPipeline(ctx, o, func() error { return nil }, o.replayEval, 0, nErrors)
	if err != nil {
		return err
	}
	defer p.srv.Close()
	rt := p.rt
	o.logger.Info("columnar replay starting",
		"trace", o.replayColumnar, "events", trace.Len(),
		"errors", nErrors, "samples", nSamples, "failures", len(trace.Failures),
		"cadence_sim_s", o.replayEval, "batch", o.batch, "shards", rt.Shards(),
		"policy", o.policy.String())

	start := time.Now()
	n := trace.Len()
	var span float64
	if n > 0 {
		span = trace.Times[n-1] - trace.Times[0]
	}
	// Cycle times are stacked while no event falls between them, then run
	// as one CycleBatch once an event (or ground-truth failure) intervenes
	// — serial-equivalent because the mirror state a stacked cycle reads
	// cannot have changed since the previous one.
	cycles := make([]float64, 0, 1024)
	fi := 0
	flush := func() error {
		if len(cycles) == 0 {
			return nil
		}
		if err := rt.Barrier(ctx); err != nil {
			return err
		}
		p.clock.Set(cycles[len(cycles)-1])
		rt.CycleBatch(cycles)
		cycles = cycles[:0]
		return nil
	}
	next := math.Inf(1)
	if n > 0 {
		next = trace.Times[0] + o.replayEval
	}
	for i := 0; i < n; i++ {
		t := trace.Times[i]
		for next <= t {
			for fi < len(trace.Failures) && trace.Failures[fi] <= next {
				if err := flush(); err != nil {
					return err
				}
				p.recordFailure(trace.Failures[fi])
				fi++
			}
			cycles = append(cycles, next)
			next += o.replayEval
		}
		if err := flush(); err != nil {
			return err
		}
		for fi < len(trace.Failures) && trace.Failures[fi] <= t {
			p.recordFailure(trace.Failures[fi])
			fi++
		}
		p.clock.Set(t)
		if err := rt.Ingest(ctx, trace.Event(i)); err != nil {
			return err
		}
	}
	for fi < len(trace.Failures) {
		p.recordFailure(trace.Failures[fi])
		fi++
	}
	if err := flush(); err != nil {
		return err
	}
	return p.finish(func() {
		elapsed := time.Since(start)
		o.logger.Info("columnar replay complete",
			"events", n, "wall_seconds", elapsed.Seconds(),
			"events_per_sec", int64(float64(n)/elapsed.Seconds()),
			"sim_days", span/86400, "cycles", rt.Cycles(),
			"speedup", span/elapsed.Seconds())
	})
}
