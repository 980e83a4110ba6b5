package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// flushSample is the share of replay flushes (Barrier + CycleBatch) a
// traced run records: one in flushSample.
const flushSample = 16

// replayDays is the simulated span of one replay-1 pass: about two
// seconds of replay on a 2-vCPU host, so a run holds several passes.
const replayDays = 56

// replayTrace simulates one SCP tenant for days and encodes the result as
// a PFC1 columnar trace, the way loggen -columnar does
// (cmd/loggen/main.go:114-167).
func replayTrace(seed int64, days float64) ([]byte, error) {
	cfg := scp.DefaultConfig()
	cfg.Seed = seed
	sys, err := scp.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(days * 86400); err != nil {
		return nil, err
	}
	series := make([]interface {
		Len() int
		ValueAt(float64) (float64, bool)
	}, len(scp.SARVariables))
	for j, name := range scp.SARVariables {
		s, err := sys.SAR(name)
		if err != nil {
			return nil, err
		}
		series[j] = s
	}
	first, _ := sys.SAR(scp.SARVariables[0])
	log := sys.Log()
	b := runtime.NewColumnarBuilder()
	b.Grow(log.Len() + first.Len()*len(scp.SARVariables))
	ei := 0
	for i := 0; i < first.Len(); i++ {
		t := first.At(i).T
		for ei < log.Len() && log.At(ei).Time <= t {
			if err := b.AddError(log.At(ei)); err != nil {
				return nil, err
			}
			ei++
		}
		for j, name := range scp.SARVariables {
			v, _ := series[j].ValueAt(t)
			if err := b.AddSample(t, name, v); err != nil {
				return nil, err
			}
		}
	}
	for ; ei < log.Len(); ei++ {
		if err := b.AddError(log.At(ei)); err != nil {
			return nil, err
		}
	}
	for _, f := range sys.FailureTimes() {
		if err := b.AddFailure(f); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if _, err := b.Trace().WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayCounts are the outputs replay-1 checks against the serial
// reference: the engine's decisions and the ledger's combined table.
type replayCounts struct {
	Evaluations int64
	Warnings    int64
	Actions     int64
	Predictions int64
	Failures    int64
	Combined    predict.ContingencyTable
	Mirror      uint64 // digest of the mirror state after the replay
}

// mirrorDigest hashes the mirror's error log and SAR series.
func mirrorDigest(m *mirror) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(float64(m.log.Len()))
	for i := 0; i < m.log.Len(); i++ {
		e := m.log.At(i)
		put(e.Time)
		put(float64(e.Type))
		h.Write([]byte(e.Component))
		h.Write([]byte(e.Message))
	}
	for _, name := range scp.SARVariables {
		s := m.sar[name]
		put(float64(s.Len()))
		for i := 0; i < s.Len(); i++ {
			p := s.At(i)
			put(p.T)
			put(p.V)
		}
	}
	return h.Sum64()
}

// replaySchedule walks a trace the way pfmd -replay-columnar does
// (cmd/pfmd/columnar.go:178-233): cycles fall due every cadence of trace
// time and run before the first event at or after them, failures are
// recorded in time order between cycles, and one last cycle runs at the
// final event time (the runtime's Stop-time cycle). The callbacks get
// the event index, the cycle times due before it, and each failure time.
type replaySchedule struct {
	cycles  func(event int, nows []float64) error // called before event (or with event == n at the end)
	failure func(t float64)
	event   func(i int) error
}

func walkReplay(trace *runtime.ColumnarTrace, cadence float64, s replaySchedule) error {
	n := trace.Len()
	cycles := make([]float64, 0, 1024)
	fi := 0
	flush := func(i int) error {
		if len(cycles) == 0 {
			return nil
		}
		err := s.cycles(i, cycles)
		cycles = cycles[:0]
		return err
	}
	next := math.Inf(1)
	if n > 0 {
		next = trace.Times[0] + cadence
	}
	for i := 0; i < n; i++ {
		t := trace.Times[i]
		for next <= t {
			for fi < len(trace.Failures) && trace.Failures[fi] <= next {
				if err := flush(i); err != nil {
					return err
				}
				s.failure(trace.Failures[fi])
				fi++
			}
			cycles = append(cycles, next)
			next += cadence
		}
		if err := flush(i); err != nil {
			return err
		}
		for fi < len(trace.Failures) && trace.Failures[fi] <= t {
			s.failure(trace.Failures[fi])
			fi++
		}
		if err := s.event(i); err != nil {
			return err
		}
	}
	for fi < len(trace.Failures) {
		s.failure(trace.Failures[fi])
		fi++
	}
	return flush(n)
}

// replayReference drives an identically built engine serially over the
// trace: apply each event to a fresh mirror, score the layers and act at
// the same cycle times, journal like the runtime's act stage
// (internal/runtime/runtime.go journalCycle), then one final cycle at the
// last event time.
func replayReference(trace *runtime.ColumnarTrace) (replayCounts, error) {
	nErrors, _ := trace.CountKinds()
	p, err := newReplayParts(nErrors, nil)
	if err != nil {
		return replayCounts{}, err
	}
	var c replayCounts
	cycle := func(now float64) {
		scores := p.engine.EvaluateLayers(now)
		d := p.engine.ActOn(now, scores)
		c.Evaluations++
		if d.Warned {
			c.Warnings++
		}
		if d.Executed {
			c.Actions++
		}
		for i, l := range p.layers {
			if !math.IsNaN(scores[i]) {
				p.ledger.RecordPrediction(l.Name, now, scores[i] >= l.Threshold, scores[i])
			}
		}
		p.ledger.RecordPrediction(obs.CombinedLayer, now, d.Warned, d.Confidence)
		p.ledger.Advance(now)
	}
	last := 0.0
	err = walkReplay(trace, pfmdReplayEval, replaySchedule{
		cycles: func(_ int, nows []float64) error {
			for _, now := range nows {
				cycle(now)
			}
			last = nows[len(nows)-1]
			return nil
		},
		failure: p.ledger.RecordFailure,
		event: func(i int) error {
			last = trace.Times[i]
			return p.m.apply(trace.Event(i))
		},
	})
	if err != nil {
		return replayCounts{}, fmt.Errorf("reference replay: %w", err)
	}
	cycle(last)
	snap := p.ledger.Snapshot()
	c.Predictions, c.Failures = snap.Predictions, snap.Failures
	c.Combined = p.ledger.Cumulative(obs.CombinedLayer)
	c.Mirror = mirrorDigest(p.m)
	return c, nil
}

// replayPass is one measured replay of the whole trace through a freshly
// set-up runtime.
type replayPass struct {
	SetupS      float64
	ReadS       float64
	Events      int
	Cycles      int
	ElapsedS    float64
	CPUS        float64
	Apply       latencySummary // ms, ingest call -> Apply
	Decide      latencySummary // ms, ingest call -> end of the deciding CycleBatch
	Counts      replayCounts
	Ingested    int64
	Applied     int64
	ApplyErrors int64
	Dropped     int64
	Mem         memDelta
	// Traced runs only: per-call times [ns].
	IngestNs, BarrierNs, CycleSelfNs float64
}

// replayRig is one pfmd -replay-columnar pipeline plus the benchmark's
// per-event stamps.
type replayRig struct {
	trace *runtime.ColumnarTrace
	parts *replayParts
	rt    *runtime.Runtime

	clock     func() int64
	ingestNs  []int64 // when event i was offered to Ingest
	applyNs   []int64 // when event i finished applying
	applied   int     // Apply calls so far (Apply is serialized: one shard)
	sp        *spanRecorder
	ingestSp  []uint64       // traced: span ID of event i's ingest
	ingestEnd []atomic.Int64 // traced: when event i's Ingest returned
	cycleSpan atomic.Uint64
	simNow    *atomic.Uint64
}

// setupReplay decodes the PFC1 bytes and builds and starts the pipeline
// with pfmd's wiring (cmd/pfmd/columnar.go:54-157, without the HTTP
// plane and the flight recorder).
func setupReplay(ctx context.Context, pfc []byte, sp *spanRecorder, clock func() int64) (*replayRig, float64, error) {
	t0 := time.Now()
	trace, err := runtime.ReadColumnar(bytes.NewReader(pfc))
	if err != nil {
		return nil, 0, err
	}
	read := time.Since(t0).Seconds()
	rig, err := newReplayRig(ctx, trace, sp, clock)
	return rig, read, err
}

// newReplayRig builds and starts the pipeline for a decoded trace.
func newReplayRig(ctx context.Context, trace *runtime.ColumnarTrace, sp *spanRecorder, clock func() int64) (*replayRig, error) {
	rig := &replayRig{trace: trace, clock: clock, sp: sp}
	var timed func(string, rawFunc) rawFunc
	if sp != nil {
		timed = func(name string, raw rawFunc) rawFunc {
			label := "layer." + name + ".score"
			return func(now float64) (float64, error) {
				parent := rig.cycleSpan.Load()
				if parent == 0 {
					return raw(now)
				}
				t0 := sp.now()
				v, err := raw(now)
				sp.add(0, parent, 0, label, t0, sp.now())
				return v, err
			}
		}
	}
	nErrors, _ := trace.CountKinds()
	parts, err := newReplayParts(nErrors, timed)
	if err != nil {
		return nil, err
	}
	parts.m.sp = sp
	rig.parts = parts
	var simNow atomic.Uint64
	rt, err := runtime.New(runtime.Config{
		Engine:        parts.engine,
		Apply:         rig.apply,
		Clock:         func() float64 { return math.Float64frombits(simNow.Load()) },
		QueueCapacity: pfmdQueue,
		Overflow:      runtime.Block,
		Workers:       pfmdWorkers,
		Shards:        pfmdShards,
		Tracer:        newPfmdTracer(),
		Ledger:        parts.ledger,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(ctx); err != nil {
		return nil, err
	}
	rig.rt = rt
	rig.simNow = &simNow
	return rig, nil
}

// allocStamps sizes the per-event stamp buffers (outside the timed set-up).
func (r *replayRig) allocStamps() {
	n := r.trace.Len()
	r.ingestNs = make([]int64, n)
	r.applyNs = make([]int64, n)
	if r.sp != nil {
		r.ingestSp = make([]uint64, n)
		r.ingestEnd = make([]atomic.Int64, n)
	}
}

// apply is the runtime's Apply callback: pfmd's mirror apply, stamped.
func (r *replayRig) apply(ev runtime.Event) error {
	j := r.applied
	r.applied++
	if r.sp.sampled(uint64(j)) && j < len(r.ingestSp) {
		id := r.sp.newID()
		t0 := r.sp.now()
		r.parts.m.parent = id
		err := r.parts.m.apply(ev)
		r.parts.m.parent = 0
		end := r.sp.now()
		r.sp.add(0, r.ingestSp[j], uint64(j), "runtime.queue_wait", queuedAt(&r.ingestEnd[j], t0), t0)
		r.sp.add(id, r.ingestSp[j], uint64(j), "runtime.apply", t0, end)
		r.applyNs[j] = r.clock()
		return err
	}
	err := r.parts.m.apply(ev)
	if j < len(r.applyNs) {
		r.applyNs[j] = r.clock()
	}
	return err
}

// run replays the whole trace at full speed, as pfmd -replay-columnar
// does, and stops the runtime.
func (r *replayRig) run(ctx context.Context) (replayPass, error) {
	var p replayPass
	trace, rt, sp := r.trace, r.rt, r.sp
	type flushMark struct {
		ingested int
		end      int64
	}
	var flushes []flushMark
	var barrierNs int64
	nBarriers := 0
	mem0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	err := walkReplay(trace, pfmdReplayEval, replaySchedule{
		cycles: func(i int, nows []float64) error {
			tb := sp.now()
			if err := rt.Barrier(ctx); err != nil {
				return err
			}
			tc := sp.now()
			r.simNow.Store(math.Float64bits(nows[len(nows)-1]))
			// Traced runs record one flush in flushSample, with its layer
			// score calls as children.
			traced := sp != nil && len(flushes)%flushSample == 0
			var id uint64
			if traced {
				id = sp.newID()
				r.cycleSpan.Store(id)
			}
			rt.CycleBatch(nows)
			end := r.clock()
			if traced {
				r.cycleSpan.Store(0)
				te := sp.now()
				sp.add(0, 0, 0, "runtime.barrier", tb, tc)
				sp.add(id, 0, uint64(len(nows)), "runtime.cycle_batch", tc, te)
				barrierNs += tc - tb
				nBarriers++
			}
			p.Cycles += len(nows)
			flushes = append(flushes, flushMark{ingested: i, end: end})
			return nil
		},
		failure: r.parts.ledger.RecordFailure,
		event: func(i int) error {
			r.simNow.Store(math.Float64bits(trace.Times[i]))
			if sp.sampled(uint64(i)) {
				id := sp.newID()
				r.ingestSp[i] = id
				t0 := sp.now()
				r.ingestNs[i] = r.clock()
				err := rt.Ingest(ctx, trace.Event(i))
				t1 := sp.now()
				r.ingestEnd[i].Store(t1)
				sp.add(id, 0, uint64(i), "runtime.ingest", t0, t1)
				return err
			}
			r.ingestNs[i] = r.clock()
			return rt.Ingest(ctx, trace.Event(i))
		},
	})
	if err != nil {
		return p, err
	}
	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Stop(stopCtx); err != nil {
		return p, fmt.Errorf("runtime stop: %w", err)
	}
	stopEnd := r.clock()
	p.Cycles++ // Stop's final cycle
	p.ElapsedS = time.Since(start).Seconds()
	p.CPUS = (cpuTime() - cpu0).Seconds()
	p.Mem = readMem().sub(mem0)
	n := trace.Len()
	p.Events = n

	// Latencies: event i is decided by the first CycleBatch that began
	// after it was ingested (its Barrier applied it), or by Stop's cycle.
	applyMs := make([]float64, n)
	decideMs := make([]float64, n)
	fi := 0
	for i := 0; i < n; i++ {
		if r.applyNs[i] == 0 {
			applyMs[i] = math.Inf(1)
		} else {
			applyMs[i] = float64(r.applyNs[i]-r.ingestNs[i]) / 1e6
		}
		for fi < len(flushes) && flushes[fi].ingested <= i {
			fi++
		}
		end := stopEnd
		if fi < len(flushes) {
			end = flushes[fi].end
		}
		decideMs[i] = float64(end-r.ingestNs[i]) / 1e6
	}
	p.Apply = summarize(applyMs)
	p.Decide = summarize(decideMs)

	mm := rt.Metrics()
	p.Ingested, p.Applied = mm.Ingested.Value(), mm.Applied.Value()
	p.ApplyErrors, p.Dropped = mm.ApplyErrors.Value(), mm.Dropped()
	snap := r.parts.ledger.Snapshot()
	p.Counts = replayCounts{
		Evaluations: mm.Evaluations.Value(),
		Warnings:    mm.Warnings.Value(),
		Actions:     mm.Actions.Value(),
		Predictions: snap.Predictions,
		Failures:    snap.Failures,
		Combined:    r.parts.ledger.Cumulative(obs.CombinedLayer),
		Mirror:      mirrorDigest(r.parts.m),
	}
	if sp != nil {
		p.BarrierNs = float64(barrierNs) / float64(max(nBarriers, 1))
		// Per cycle: a cycle_batch span's Trace field holds its cycle count.
		var selfNs, cycles float64
		self, counts := sp.selfDurations("runtime.cycle_batch")
		for i, s := range self {
			selfNs += s
			cycles += float64(counts[i])
		}
		p.CycleSelfNs = selfNs / max(cycles, 1)
		p.IngestNs = meanOf(sp.durations("runtime.ingest"))
	}
	return p, nil
}

// releaseStamps drops the per-event stamp buffers (benchmark state, not
// program state) before the heap is measured.
func (r *replayRig) releaseStamps() {
	r.ingestNs, r.applyNs, r.ingestSp, r.ingestEnd = nil, nil, nil, nil
}

// checkReplay compares one pass with the serial reference and the
// pipeline's own conservation counters; it returns every mismatch.
func checkReplay(p replayPass, ref replayCounts, events int) []string {
	var bad []string
	if p.Counts != ref {
		bad = append(bad, fmt.Sprintf("decisions/ledger/mirror differ from the serial reference: got %+v want %+v", p.Counts, ref))
	}
	if p.Ingested != int64(events) {
		bad = append(bad, fmt.Sprintf("ingested %d of %d events", p.Ingested, events))
	}
	if p.Applied != p.Ingested {
		bad = append(bad, fmt.Sprintf("applied %d != ingested %d", p.Applied, p.Ingested))
	}
	if p.ApplyErrors != 0 || p.Dropped != 0 {
		bad = append(bad, fmt.Sprintf("%d apply errors, %d drops", p.ApplyErrors, p.Dropped))
	}
	return bad
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// readColumnar decodes PFC1 bytes.
func readColumnar(pfc []byte) (*runtime.ColumnarTrace, error) {
	return runtime.ReadColumnar(bytes.NewReader(pfc))
}
