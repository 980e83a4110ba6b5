package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
)

// tinyFleet runs a few tenants to completion (closed loop, all records
// sent) with an optional wire fault.
func tinyFleet(t *testing.T, fault encodeFault) *fleetResult {
	t.Helper()
	return tinyFleetTraced(t, fault, nil)
}

func tinyFleetTraced(t *testing.T, fault encodeFault, sp *spanRecorder) *fleetResult {
	t.Helper()
	p := fleetParams{Tenants: 6, LapSpan: 1200, MaxRate: 1, Seconds: 20, Sample: latencySample, fault: fault}
	in, err := prepareFleet(5, p)
	if err != nil {
		t.Fatal(err)
	}
	defer in.free()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := runFleet(ctx, p, in, 1, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTenantPair finds two connection-0 positions holding consecutive
// load samples of one tenant with different values, so swapping them
// reorders that tenant's stream.
func sameTenantPair(t *testing.T) (int, int) {
	t.Helper()
	p := fleetParams{Tenants: 6, LapSpan: 1200, MaxRate: 1, Seconds: 20, fault: noFault}
	in, err := prepareFleet(5, p)
	if err != nil {
		t.Fatal(err)
	}
	defer in.free()
	c := in.conns[0]
	prev := map[int32]int{}
	for k, ri := range c.lapRecs {
		m := in.tr.meta[ri]
		if !m.load {
			continue
		}
		if j, ok := prev[m.tenant]; ok && in.tr.meta[c.lapRecs[j]].value != m.value {
			return j, k
		}
		prev[m.tenant] = k
	}
	t.Fatal("no same-tenant load pair in the trace")
	return -1, -1
}

func TestFleetChecksPassOnCleanRun(t *testing.T) {
	res := tinyFleet(t, noFault)
	if len(res.Bad) != 0 {
		t.Fatalf("clean run failed its checks: %v", res.Bad)
	}
	if res.Sent == 0 || res.Applied != res.SentEvents {
		t.Fatalf("sent %d, applied %d of %d events", res.Sent, res.Applied, res.SentEvents)
	}
}

func TestFleetChecksCatchDroppedRecord(t *testing.T) {
	res := tinyFleet(t, encodeFault{Drop: 3, SwapA: -1, SwapB: -1})
	joined := strings.Join(res.Bad, "\n")
	if !strings.Contains(joined, "serial fold") {
		t.Errorf("a lost record must break the per-tenant fold: %v", res.Bad)
	}
	if !strings.Contains(joined, "sent") && !strings.Contains(joined, "applied") {
		t.Errorf("a lost record must break the conservation counts: %v", res.Bad)
	}
}

func TestFleetChecksCatchReorderedRecord(t *testing.T) {
	a, b := sameTenantPair(t)
	res := tinyFleet(t, encodeFault{Drop: -1, SwapA: a, SwapB: b})
	if !strings.Contains(strings.Join(res.Bad, "\n"), "serial fold") {
		t.Errorf("a reordered record must break the per-tenant fold: %v", res.Bad)
	}
}

// replayOnce runs one pass of the replay wiring over trace and checks it
// against the reference of ref.
func replayOnce(t *testing.T, trace *runtime.ColumnarTrace, ref replayCounts, events int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base := time.Now()
	rig, err := newReplayRig(ctx, trace, nil, func() int64 { return int64(time.Since(base)) })
	if err != nil {
		t.Fatal(err)
	}
	rig.allocStamps()
	p, err := rig.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return checkReplay(p, ref, events)
}

func replayFixture(t *testing.T) (*runtime.ColumnarTrace, replayCounts) {
	t.Helper()
	pfc, err := replayTrace(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := readColumnar(pfc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := replayReference(trace)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Evaluations == 0 || ref.Predictions == 0 {
		t.Fatalf("degenerate reference %+v", ref)
	}
	return trace, ref
}

// without returns trace minus event i.
func without(tr *runtime.ColumnarTrace, i int) *runtime.ColumnarTrace {
	cut := func(s []float64) []float64 { return append(append([]float64(nil), s[:i]...), s[i+1:]...) }
	c := *tr
	c.Times, c.Values = cut(tr.Times), cut(tr.Values)
	c.Kinds = append(append([]uint8(nil), tr.Kinds[:i]...), tr.Kinds[i+1:]...)
	c.Sevs = append(append([]uint8(nil), tr.Sevs[:i]...), tr.Sevs[i+1:]...)
	c.Keys = append(append([]uint32(nil), tr.Keys[:i]...), tr.Keys[i+1:]...)
	c.Msgs = append(append([]uint32(nil), tr.Msgs[:i]...), tr.Msgs[i+1:]...)
	c.Types = append(append([]int32(nil), tr.Types[:i]...), tr.Types[i+1:]...)
	return &c
}

func TestReplayChecksPassAndCatchFaults(t *testing.T) {
	trace, ref := replayFixture(t)
	n := trace.Len()
	if bad := replayOnce(t, trace, ref, n); len(bad) != 0 {
		t.Fatalf("clean replay failed its checks: %v", bad)
	}
	if bad := replayOnce(t, without(trace, n/2), ref, n); len(bad) == 0 {
		t.Error("a dropped record passed the replay checks")
	}
	// Reorder: deliver two samples of one variable in swapped order.
	swapped := *trace
	swapped.Times = append([]float64(nil), trace.Times...)
	swapped.Values = append([]float64(nil), trace.Values...)
	i := n / 3
	for ; i < n; i++ {
		if runtime.EventKind(trace.Kinds[i]) == runtime.KindSample {
			break
		}
	}
	j := i + 1
	for ; j < n; j++ {
		if runtime.EventKind(trace.Kinds[j]) == runtime.KindSample && trace.Keys[j] == trace.Keys[i] && trace.Times[j] > trace.Times[i] {
			break
		}
	}
	if j == n {
		t.Fatal("no later sample of the same variable")
	}
	swapped.Times[i], swapped.Times[j] = swapped.Times[j], swapped.Times[i]
	swapped.Values[i], swapped.Values[j] = swapped.Values[j], swapped.Values[i]
	if bad := replayOnce(t, &swapped, ref, n); len(bad) == 0 {
		t.Error("a reordered record passed the replay checks")
	}
}

// hasLayers requires the self-time table to name every layer.
func hasLayers(t *testing.T, sp *spanRecorder, names ...string) {
	t.Helper()
	rows := map[string]layerTime{}
	for _, r := range sp.selfTimes() {
		rows[r.Name] = r
	}
	for _, n := range names {
		if r, ok := rows[n]; !ok || r.Count == 0 || r.SelfNs < 0 || r.SelfNs > r.TotalNs {
			t.Errorf("self-time row %q: %+v (present %v)", n, r, ok)
		}
	}
}

func TestTracedFleetRunRecordsEveryLayer(t *testing.T) {
	sp := newSpanRecorder(latencySample)
	res := tinyFleetTraced(t, noFault, sp)
	if len(res.Bad) != 0 {
		t.Fatalf("traced run failed its checks: %v", res.Bad)
	}
	hasLayers(t, sp, "fleet.listen_wait", "fleet.ingest", "fleet.queue_wait", "fleet.apply",
		"fleet.cycle", "fleet.cycle_lock_wait", "layer.load.score", "layer.errors.score")
}

func TestTracedReplayRecordsEveryLayer(t *testing.T) {
	trace, ref := replayFixture(t)
	sp := newSpanRecorder(8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base := time.Now()
	rig, err := newReplayRig(ctx, trace, sp, func() int64 { return int64(time.Since(base)) })
	if err != nil {
		t.Fatal(err)
	}
	rig.allocStamps()
	p, err := rig.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkReplay(p, ref, trace.Len()); len(bad) != 0 {
		t.Fatalf("traced replay failed its checks: %v", bad)
	}
	hasLayers(t, sp, "runtime.ingest", "runtime.queue_wait", "runtime.apply", "eventlog.append",
		"timeseries.append", "runtime.barrier", "runtime.cycle_batch",
		"layer.errors.score", "layer.memory.score", "layer.load.score", "layer.swap.score")
	if p.CycleSelfNs <= 0 || p.BarrierNs <= 0 || p.IngestNs <= 0 {
		t.Errorf("per-call times missing: %+v", p)
	}
}
