package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/runtime"
	"repro/internal/scp"
)

// binStats are the run's per-second figures. The window is cut into
// one-second bins, skipping the first (ramp-up); the reported metric is
// the median over bins, which a transient host stall moves less than it
// moves a whole-window figure. Latencies are binned by due time; rates
// and CPU come from the per-second samples of the applied counter and
// the process CPU time.
type binStats struct {
	Rate                 []float64 // events applied per second
	CPUus                []float64 // process CPU µs per applied event
	ApplyP50, ApplyP99   []float64 // ms
	DecideP50, DecideP99 []float64 // ms
	ApplyP90, DecideP90  []float64 // ms
	N                    []float64 // latency samples per bin
}

// latencies returns a record's apply and decide latency [ms] from its due
// time: to its Apply, and to the end of the first cycle that began after
// it applied. A record that never applied is +Inf on both.
func (rig *fleetRig) latencies(due, applied int64) (applyMs, decideMs float64) {
	if applied == 0 {
		return math.Inf(1), math.Inf(1)
	}
	k := sort.Search(len(rig.cycles), func(i int) bool { return rig.cycles[i][0] > applied })
	decideMs = math.Inf(1)
	if k < len(rig.cycles) {
		decideMs = float64(rig.cycles[k][1]-due) / 1e6
	}
	return float64(applied-due) / 1e6, decideMs
}

// collect computes the run's figures and reads the program's counters.
func (rig *fleetRig) collect(res *fleetResult) {
	// Bins cover whole seconds of the sending window after the first,
	// ending early if a closed-loop sender ran out of encoded laps.
	end := rig.startNs + int64(rig.p.Seconds*1e9)
	for _, c := range rig.conns {
		if c.ranOut != 0 {
			end = min(end, c.ranOut)
			res.RanOut = true
		}
	}
	nb := max(int((end-rig.startNs)/int64(time.Second))-1, 0)
	nb = min(nb, len(res.appliedAt)-2, len(res.cpuAt)-2)
	apply := make([][]float64, max(nb, 0))
	decide := make([][]float64, max(nb, 0))
	for ci, c := range rig.conns {
		res.Sent += int64(c.sent)
		for p := 0; p < c.sent; p++ {
			_, ri := c.lapIndex(p)
			if rig.tr.meta[ri].failure {
				res.SentFails++
				continue
			}
			res.SentEvents++
			if p%latencySample != 0 {
				continue
			}
			a := rig.appliedNs(ci, p)
			if a == 0 {
				res.Unapplied++
			}
			due := rig.dueNs(c, p)
			if b := int((due-rig.startNs)/int64(time.Second)) - 1; b >= 0 && b < nb {
				am, dm := rig.latencies(due, a)
				apply[b] = append(apply[b], am)
				decide[b] = append(decide[b], dm)
			}
		}
	}
	res.WindowS = float64(res.drainEnd-rig.startNs) / 1e9
	st := &res.Bins
	var allApply, allDecide []float64
	for b := 0; b < nb; b++ {
		applied := float64(res.appliedAt[b+2] - res.appliedAt[b+1])
		st.Rate = append(st.Rate, applied)
		if applied > 0 {
			st.CPUus = append(st.CPUus, float64((res.cpuAt[b+2]-res.cpuAt[b+1]).Microseconds())/applied)
		}
		allApply, allDecide = append(allApply, apply[b]...), append(allDecide, decide[b]...)
		as, ds := summarize(apply[b]), summarize(decide[b])
		st.ApplyP50, st.ApplyP99 = append(st.ApplyP50, as.P50), append(st.ApplyP99, as.P99)
		st.DecideP50, st.DecideP99 = append(st.DecideP50, ds.P50), append(st.DecideP99, ds.P99)
		st.ApplyP90, st.DecideP90 = append(st.ApplyP90, as.P90), append(st.DecideP90, ds.P90)
		st.N = append(st.N, float64(as.N))
	}
	res.Apply, res.Decide = summarize(allApply), summarize(allDecide)
	for _, q := range []float64{90, 95, 98, 99, 99.5, 99.9} {
		res.ApplyLadder = append(res.ApplyLadder, percentile(allApply, q))
	}
	var lags []float64
	for _, c := range rig.conns {
		lags = append(lags, c.lags...)
	}
	res.GenLag = summarize(lags)
	res.Cycles = len(rig.cycles)

	m := rig.f.Metrics()
	k := &res.Counters
	k.Ingested, k.Applied = m.Ingested.Value(), m.Applied.Value()
	k.Dropped, k.ApplyErrors = m.Dropped(), m.ApplyErrors.Value()
	k.DecodeErrors = rig.ls.DecodeErrors()
	k.Unknown = promCounter(m, "pfm_fleet_unknown_tenant_total")
	for i := 0; i < rig.p.Tenants; i++ {
		if v, ok := rig.f.TenantStatus(scp.TenantID(i)); ok {
			k.FailuresRecorded += v.Failures
			k.Warnings += v.Warnings
			k.Actions += v.Actions
		}
	}
	k.LedgerPredictions, k.LedgerFailures = rig.led.Totals()
	res.Applied = k.Applied
}

// promCounter reads one unlabeled counter from the metric registry's
// Prometheus rendering (-1 if absent).
func promCounter(m *runtime.Metrics, name string) int64 {
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		return -1
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), name+" %g", &v); err == nil {
			return int64(v)
		}
	}
	return -1
}

// checkFleet runs the fleet output checks and returns every failure.
func checkFleet(rig *fleetRig, res *fleetResult) []string {
	var bad []string
	k := res.Counters
	if k.Pumped != res.Sent {
		bad = append(bad, fmt.Sprintf("the listener delivered %d of %d records sent", k.Pumped, res.Sent))
	}
	if res.Sent != k.Ingested+k.FailuresRecorded {
		bad = append(bad, fmt.Sprintf("sent %d records != ingested %d + failures recorded %d", res.Sent, k.Ingested, k.FailuresRecorded))
	}
	if k.Applied != k.Ingested || k.Ingested != res.SentEvents {
		bad = append(bad, fmt.Sprintf("applied %d, ingested %d, sent events %d", k.Applied, k.Ingested, res.SentEvents))
	}
	if res.Unapplied != 0 {
		bad = append(bad, fmt.Sprintf("%d sampled event records never applied", res.Unapplied))
	}
	if k.Dropped != 0 || k.DecodeErrors != 0 || k.ApplyErrors != 0 || k.Unknown != 0 {
		bad = append(bad, fmt.Sprintf("drops %d, decode errors %d, apply errors %d, unknown tenants %d", k.Dropped, k.DecodeErrors, k.ApplyErrors, k.Unknown))
	}
	if k.LedgerFailures != res.SentFails {
		bad = append(bad, fmt.Sprintf("ledger failures %d != failure records sent %d", k.LedgerFailures, res.SentFails))
	}
	return append(bad, checkFold(rig.tr, rig.conns, rig.states)...)
}

// checkFold folds each tenant's sent event records serially into a fresh
// state and requires the fleet's final state to be bit-equal.
func checkFold(tr *fleetTrace, conns [2]*wireConn, states []*fleetState) []string {
	capacity := scp.DefaultConfig().Capacity
	want := make([]fleetState, len(states))
	for i := range want {
		want[i] = fleetState{capacity: capacity}
	}
	for _, c := range conns {
		for p := 0; p < c.sent; p++ {
			_, ri := c.lapIndex(p)
			m := tr.meta[ri]
			if m.failure {
				continue
			}
			w := &want[m.tenant]
			_ = w.apply(m.event())
			w.applied++
		}
	}
	var bad []string
	for i, got := range states {
		w := want[i]
		if got.applied != w.applied || math.Float64bits(got.util) != math.Float64bits(w.util) ||
			math.Float64bits(got.errs) != math.Float64bits(w.errs) {
			bad = append(bad, fmt.Sprintf("tenant %s final state (applied %d util %v errs %v) != serial fold (applied %d util %v errs %v)",
				scp.TenantID(i), got.applied, got.util, got.errs, w.applied, w.util, w.errs))
			if len(bad) >= 5 {
				break
			}
		}
	}
	return bad
}
