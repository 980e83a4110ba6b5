package main

import (
	"bytes"
	"context"
	"fmt"
	stdruntime "runtime"
	"slices"
	"time"

	"repro/internal/runtime"
)

// replayPasses replays the trace through freshly set-up runtimes until
// seconds have passed (at least three passes).
func replayPasses(ctx context.Context, pfc []byte, seconds float64, sp *spanRecorder) ([]replayPass, *replayRig, error) {
	var passes []replayPass
	var rig *replayRig
	start := time.Now()
	for len(passes) < 3 || time.Since(start).Seconds() < seconds {
		if rig != nil {
			rig.releaseStamps()
		}
		rig = nil
		base := time.Now()
		clock := func() int64 { return int64(time.Since(base)) }
		t0 := time.Now()
		r, read, err := setupReplay(ctx, pfc, sp, clock)
		if err != nil {
			return nil, nil, err
		}
		setup := time.Since(t0).Seconds()
		r.allocStamps()
		p, err := r.run(ctx)
		if err != nil {
			return nil, nil, err
		}
		p.SetupS, p.ReadS = setup, read
		passes = append(passes, p)
		rig = r
	}
	return passes, rig, nil
}

func runReplay(ctx context.Context, seed int64, seconds float64, traced bool) (*outcome, error) {
	pfc, err := replayTrace(seed, replayDays)
	if err != nil {
		return nil, err
	}
	trace, err := runtime.ReadColumnar(bytes.NewReader(pfc))
	if err != nil {
		return nil, err
	}
	ref, err := replayReference(trace)
	if err != nil {
		return nil, err
	}
	events := trace.Len()
	trace = nil

	out := &outcome{Metrics: map[string]float64{}, Samples: map[string]int{}}
	passes, rig, err := replayPasses(ctx, pfc, seconds, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		out.Attempted += int64(events)
		out.Failed += int64(events) - p.Applied + p.ApplyErrors
		out.Checks = append(out.Checks, checkReplay(p, ref, events)...)
	}
	out.Bins = map[string][]float64{}
	collect := func(name string, f func(p replayPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		out.Bins[name] = xs
		return median(xs)
	}
	eps := collect("events_per_s", func(p replayPass) float64 { return float64(p.Events) / p.ElapsedS })
	m := out.Metrics
	m["setup_s"] = collect("setup_s", func(p replayPass) float64 { return p.SetupS })
	m["events_per_s"] = eps
	m["apply_p50_ms"] = collect("apply_p50_ms", func(p replayPass) float64 { return p.Apply.P50 })
	m["apply_p90_ms"] = collect("apply_p90_ms", func(p replayPass) float64 { return p.Apply.P90 })
	collect("apply_p99_ms", func(p replayPass) float64 { return p.Apply.P99 })
	m["decide_p50_ms"] = collect("decide_p50_ms", func(p replayPass) float64 { return p.Decide.P50 })
	m["decide_p90_ms"] = collect("decide_p90_ms", func(p replayPass) float64 { return p.Decide.P90 })
	collect("decide_p99_ms", func(p replayPass) float64 { return p.Decide.P99 })
	m["cpu_us_per_event"] = collect("cpu_us_per_event", func(p replayPass) float64 { return p.CPUS * 1e6 / float64(p.Events) })
	m["go.allocs_per_event"] = collect("go.allocs_per_event", func(p replayPass) float64 { return float64(p.Mem.Mallocs) / float64(p.Events) })
	m["go.alloc_bytes_per_event"] = collect("go.alloc_bytes_per_event", func(p replayPass) float64 { return float64(p.Mem.Bytes) / float64(p.Events) })
	m["go.gc_pause_p99_ms"] = collect("go.gc_pause_p99_ms", func(p replayPass) float64 { return p.Mem.PauseP99Ms })
	m["runtime.columnar_read_ms"] = collect("runtime.columnar_read_ms", func(p replayPass) float64 { return p.ReadS * 1e3 })
	last := passes[len(passes)-1]
	m["core.evaluations"] = float64(last.Counts.Evaluations)
	m["core.warnings"] = float64(last.Counts.Warnings)
	m["core.actions"] = float64(last.Counts.Actions)
	m["obs.ledger_predictions"] = float64(last.Counts.Predictions)
	m["obs.ledger_failures"] = float64(last.Counts.Failures)
	out.Samples["passes"] = len(passes)
	out.Samples["events_per_pass"] = events
	out.Samples["latency_per_pass"] = last.Apply.N
	out.Samples["cycles_per_pass"] = last.Cycles
	out.Notes = append(out.Notes, fmt.Sprintf("apply tail p%g=%.4g ms, decide tail p%g=%.4g ms (last pass)",
		last.Apply.TailP, last.Apply.Tail, last.Decide.TailP, last.Decide.Tail))

	if !traced {
		// The heap with the last pipeline alive and the benchmark's own
		// buffers dropped.
		rig.releaseStamps()
		pfc = nil
		m["live_heap_mb"] = liveHeapMB()
		stdruntime.KeepAlive(rig)
	} else {
		sp := newSpanRecorder(traceSample)
		tpasses, _, err := replayPasses(ctx, pfc, seconds, sp)
		if err != nil {
			return nil, err
		}
		tEps := make([]float64, len(tpasses))
		for i, p := range tpasses {
			tEps[i] = float64(p.Events) / p.ElapsedS
			out.Checks = append(out.Checks, checkReplay(p, ref, events)...)
		}
		m["bench.trace_overhead_pct"] = (eps/median(tEps) - 1) * 100
		out.Notes = append(out.Notes, fmt.Sprintf("tracing overhead base: untraced %.0f events/s vs traced %.0f events/s (medians of %d and %d passes)",
			eps, median(tEps), len(passes), len(tpasses)))
		for _, name := range []string{"errors", "memory", "load", "swap"} {
			m["layer."+name+".score_ns"] = meanOf(sp.durations("layer." + name + ".score"))
		}
		m["runtime.ingest_ns"] = meanOf(sp.durations("runtime.ingest"))
		m["runtime.queue_wait_ns"] = meanOf(sp.durations("runtime.queue_wait"))
		m["runtime.apply_ns"] = meanOf(sp.durations("runtime.apply"))
		m["eventlog.append_ns"] = meanOf(sp.durations("eventlog.append"))
		m["timeseries.append_ns"] = meanOf(sp.durations("timeseries.append"))
		bar := make([]float64, len(tpasses))
		self := make([]float64, len(tpasses))
		for i, p := range tpasses {
			bar[i], self[i] = p.BarrierNs, p.CycleSelfNs
		}
		m["runtime.barrier_ns"] = median(bar)
		m["runtime.cycle_self_ns"] = median(self)
		out.SelfTable = sp.selfTimes()
		if err := sp.writeFile(spanPath("replay-1")); err != nil {
			return nil, err
		}
		out.Samples["traced_spans"] = len(sp.spans)
	}
	zeroMissing(m)
	out.Correct = len(out.Checks) == 0 && out.Failed == 0
	return out, nil
}

func spanPath(workload string) string {
	return fmt.Sprintf("%s/spans/%s.jsonl", outDir, workload)
}

// zeroMissing reports layers a workload does not run as 0.
func zeroMissing(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

func runOpen(ctx context.Context, seed int64, seconds float64, traced bool) (*outcome, error) {
	return runFleetWorkload(ctx, seed, fleetParams{
		Tenants: fleetTenants, LapSpan: fleetLapSpan, Open: true, Rate: openRate, Text: true,
		Seconds: seconds, Sample: traceSample, fault: noFault,
	}, traced)
}

func runSat(ctx context.Context, seed int64, seconds float64, traced bool) (*outcome, error) {
	return runFleetWorkload(ctx, seed, fleetParams{
		Tenants: fleetTenants, LapSpan: fleetLapSpan, MaxRate: satMaxRate,
		Seconds: seconds, Sample: traceSample, fault: noFault,
	}, traced)
}

func runFleetWorkload(ctx context.Context, seed int64, p fleetParams, traced bool) (*outcome, error) {
	in, err := prepareFleet(seed, p)
	if err != nil {
		return nil, err
	}
	defer in.free()
	out := &outcome{Metrics: map[string]float64{}, Samples: map[string]int{}}
	m := out.Metrics
	if traced {
		wire, text, err := decodeCosts(in.conns)
		if err != nil {
			return nil, err
		}
		m["fleet.wire_decode_ns"], m["fleet.text_decode_ns"] = wire, text
	}
	res, err := runFleet(ctx, p, in, fleetSetups, nil, !traced)
	if err != nil {
		return nil, err
	}
	addFleet(out, res)
	cost := func(r *fleetResult) float64 {
		if p.Open {
			return r.CPUS / float64(max(r.Applied, 1))
		}
		return r.WindowS / float64(max(r.Applied, 1))
	}
	m["setup_s"] = median(res.SetupS)
	m["events_per_s"] = float64(res.Applied) / res.WindowS
	m["apply_p50_ms"], m["apply_p90_ms"] = res.Apply.P50, res.Apply.P90
	m["decide_p50_ms"], m["decide_p90_ms"] = res.Decide.P50, res.Decide.P90
	m["cpu_us_per_event"] = res.CPUS * 1e6 / float64(max(res.Applied, 1))
	out.Bins = map[string][]float64{
		"events_per_s": res.Bins.Rate, "cpu_us_per_event": res.Bins.CPUus,
		"apply_p50_ms": res.Bins.ApplyP50, "apply_p99_ms": res.Bins.ApplyP99,
		"decide_p50_ms": res.Bins.DecideP50, "decide_p99_ms": res.Bins.DecideP99,
		"apply_p90_ms": res.Bins.ApplyP90, "decide_p90_ms": res.Bins.DecideP90,
		"setup_s": res.SetupS,
	}
	if b := res.Bins; len(b.Rate) >= 3 {
		m["events_per_s"] = median(b.Rate)
		m["apply_p50_ms"], m["apply_p90_ms"] = median(b.ApplyP50), median(b.ApplyP90)
		m["decide_p50_ms"], m["decide_p90_ms"] = median(b.DecideP50), median(b.DecideP90)
		m["cpu_us_per_event"] = median(b.CPUus)
	}
	m["live_heap_mb"] = res.HeapMB
	m["go.allocs_per_event"] = float64(res.Mem.Mallocs) / float64(max(res.Applied, 1))
	m["go.alloc_bytes_per_event"] = float64(res.Mem.Bytes) / float64(max(res.Applied, 1))
	m["go.gc_pause_p99_ms"] = res.Mem.PauseP99Ms
	m["bench.gen_lag_p99_ms"] = 0
	if p.Open {
		m["bench.gen_lag_p99_ms"] = res.GenLag.P99
	}
	k := res.Counters
	m["core.evaluations"] = float64(res.Cycles * p.Tenants)
	m["core.warnings"], m["core.actions"] = float64(k.Warnings), float64(k.Actions)
	m["obs.ledger_predictions"], m["obs.ledger_failures"] = float64(k.LedgerPredictions), float64(k.LedgerFailures)

	if traced {
		sp := newSpanRecorder(uint64(p.Sample))
		tres, err := runFleet(ctx, p, in, 1, sp, false)
		if err != nil {
			return nil, err
		}
		out.Checks = append(out.Checks, tres.Bad...)
		m["bench.trace_overhead_pct"] = (cost(tres)/cost(res) - 1) * 100
		basis := "wall s per event (closed loop)"
		if p.Open {
			basis = "CPU s per event (fixed rate)"
		}
		out.Notes = append(out.Notes, fmt.Sprintf("tracing overhead base: %s, untraced %.4g vs traced %.4g",
			basis, cost(res), cost(tres)))
		m["fleet.listen_wait_ns"] = meanOf(sp.durations("fleet.listen_wait"))
		m["fleet.ingest_ns"] = meanOf(sp.durations("fleet.ingest"))
		m["fleet.queue_wait_ns"] = meanOf(sp.durations("fleet.queue_wait"))
		m["fleet.apply_ns"] = meanOf(sp.durations("fleet.apply"))
		m["fleet.queue_depth_p99"] = summarize(tres.QueueDepths).P99
		cyc := summarize(sp.durations("fleet.cycle"))
		m["fleet.cycle_p50_ms"], m["fleet.cycle_p99_ms"] = cyc.P50/1e6, cyc.P99/1e6
		cycleSelf, _ := sp.selfDurations("fleet.cycle")
		m["fleet.cycle_self_ms"] = meanOf(cycleSelf) / 1e6
		m["fleet.cycle_lock_wait_ms"] = meanOf(sp.durations("fleet.cycle_lock_wait")) / 1e6
		// One load span scores a batch of tenants; its Trace field holds
		// the batch size.
		var loadNs, loadN float64
		for _, s := range sp.spans {
			if s.Name == "layer.load.score" {
				loadNs += float64(s.End - s.Start)
				loadN += float64(s.Trace)
			}
		}
		m["layer.load.score_ns"] = loadNs / max(loadN, 1)
		m["layer.errors.score_ns"] = meanOf(sp.durations("layer.errors.score"))
		out.Samples["traced_cycles"] = cyc.N
		out.Samples["traced_spans"] = len(sp.spans)
		out.SelfTable = sp.selfTimes()
		if err := sp.writeFile(spanPath(workloadName(p))); err != nil {
			return nil, err
		}
	}
	zeroMissing(m)
	out.Correct = len(out.Checks) == 0 && out.Failed == 0
	return out, nil
}

func workloadName(p fleetParams) string {
	if p.Open {
		return "tcp-1000-open"
	}
	return "tcp-1000-sat"
}

// addFleet folds one untraced fleet run into the outcome.
func addFleet(out *outcome, res *fleetResult) {
	k := res.Counters
	out.Attempted += res.Sent
	notAdmitted := res.Sent - k.Ingested - k.FailuresRecorded
	out.Failed += max(notAdmitted, 0) + (k.Ingested - k.Applied) + k.DecodeErrors + k.ApplyErrors + k.Unknown
	out.Checks = append(out.Checks, res.Bad...)
	out.Samples["records_sent"] = int(res.Sent)
	out.Samples["latency"] = res.Apply.N
	out.Samples["bins"] = len(res.Bins.Rate)
	if len(res.Bins.N) > 0 {
		out.Samples["latency_min_per_bin"] = int(slices.Min(res.Bins.N))
	}
	out.Samples["cycles"] = res.Cycles
	out.Samples["gen_lag"] = res.GenLag.N
	out.Notes = append(out.Notes, fmt.Sprintf("window %.3f s; apply tail p%g=%.4g ms, decide tail p%g=%.4g ms",
		res.WindowS, res.Apply.TailP, res.Apply.Tail, res.Decide.TailP, res.Decide.Tail))
	out.Notes = append(out.Notes, fmt.Sprintf("apply ms at p90/p95/p98/p99/p99.5/p99.9: %.3g", res.ApplyLadder))
	if res.RanOut {
		out.Notes = append(out.Notes, "a sender ran out of pre-encoded laps before the time was up; the bins stop there (raise satMaxRate)")
	}
}
