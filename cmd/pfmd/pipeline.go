// The single-tenant pipeline shared by the live and -replay-columnar
// modes: mirror state, the Fig. 11 layers over it, engine, quality
// ledger, tracer, flight recorder and the runtime with its HTTP plane,
// built by startPipeline and ended by finish. The two modes differ only
// in the countermeasure, the cycle driver and the cadence.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/lifecycle"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/pfmmodel"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
)

// mirror is the runtime's predictor-visible state: the ingest stage
// replays the simulator's error log and SAR series into it, and the
// layers read it. Locking is owned by the runtime: Apply and evaluation
// never overlap, and sharded ingest (-shards > 1) is safe here because the
// default shard key serializes all error-log appends on one shard while
// each SAR series is only touched by its own variable's shard (the sar map
// itself is fully populated before Start and read-only afterwards).
type mirror struct {
	log *eventlog.Log
	sar map[string]*ts.Series
}

func newMirror() *mirror {
	m := &mirror{log: eventlog.NewLog(), sar: make(map[string]*ts.Series)}
	for _, name := range scp.SARVariables {
		m.sar[name] = ts.New(name)
	}
	return m
}

// apply integrates one streamed event.
func (m *mirror) apply(ev runtime.Event) error {
	switch ev.Kind {
	case runtime.KindError:
		return m.log.Append(ev.Error)
	case runtime.KindSample:
		s, ok := m.sar[ev.Variable]
		if !ok {
			return fmt.Errorf("unknown variable %q", ev.Variable)
		}
		return s.Append(ev.Time, ev.Value)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// layers builds the per-level predictors of the Fig. 11 blueprint over
// the mirror state. Each layer is a calibrated predictor — score =
// raw/scale with the warning threshold at 1.0 — whose initial scale is the
// blueprint's hand-tuned warning level, so the static behaviour is
// unchanged while the lifecycle (with -hotswap) can refit a scale whose
// signal regime drifted.
func (m *mirror) layers(memFloor float64) []*core.Layer {
	rawErrors := func(now float64) (float64, error) {
		// Application level: detected-error rate over the data window —
		// counted off the time column, nothing materialized.
		lo, hi := m.log.ScanWindow(now-600, now+1e-9)
		return float64(hi-lo) / 600, nil
	}
	rawMemory := func(now float64) (float64, error) {
		// OS/resource level: free-memory depletion trend.
		w := m.sar["mem_free"].Window(now-1200, now+1e-9)
		if w.Len() < 3 {
			return 0, nil
		}
		slope, _, err := w.LinearTrend()
		if err != nil {
			return 0, nil
		}
		score := -slope
		if v, ok := w.Last(); ok && v.V < memFloor {
			score += 1
		}
		return score, nil
	}
	rawLoad := func(now float64) (float64, error) {
		// Platform level: utilization headroom.
		v, ok := m.sar["cpu"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	rawSwap := func(now float64) (float64, error) {
		// Platform level: swap pressure (already degrading).
		v, ok := m.sar["swap"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	return []*core.Layer{
		{Name: "errors", Predictor: newCalibrated(rawErrors, 0.05), Threshold: 1},
		{Name: "memory", Predictor: newCalibrated(rawMemory, 0.1), Threshold: 1},
		{Name: "load", Predictor: newCalibrated(rawLoad, 0.85), Threshold: 1},
		{Name: "swap", Predictor: newCalibrated(rawSwap, 0.5), Threshold: 1},
	}
}

// parseMetaWeights builds the -meta-weights stacker: one logistic weight
// per layer (in layer order), bias fixed at −Σ wᵢθᵢ so a system sitting
// exactly at every layer threshold scores 0.5. The stacker itself is
// returned (not just its Score closure) so the lifecycle can down-weight a
// freshly swapped layer during probation.
func parseMetaWeights(spec string, layers []*core.Layer) (*meta.Stacker, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != len(layers) {
		return nil, fmt.Errorf("-meta-weights needs %d comma-separated weights, got %d", len(layers), len(parts))
	}
	names := make([]string, len(layers))
	weights := make([]float64, len(layers))
	bias := 0.0
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-meta-weights[%d]: %w", i, err)
		}
		names[i] = layers[i].Name
		weights[i] = w
		bias -= w * layers[i].Threshold
	}
	return meta.NewStacker(names, weights, bias)
}

// simClock is a replay's domain clock: the newest simulated time, kept as
// float64 bits so the pipeline's Clock reads it from any goroutine.
type simClock struct{ bits atomic.Uint64 }

func (c *simClock) Now() float64  { return math.Float64frombits(c.bits.Load()) }
func (c *simClock) Set(t float64) { c.bits.Store(math.Float64bits(t)) }

// Advance moves the clock forward to t; an earlier t leaves it unchanged.
func (c *simClock) Advance(t float64) {
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) >= t || c.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// pipeline is one running single-tenant serving stack.
type pipeline struct {
	o        *options
	clock    simClock
	action   *act.Action
	engine   *core.Engine
	ledger   *obs.Ledger
	tracer   *obs.Tracer
	lcm      *lifecycle.Manager
	recorder *obs.Recorder
	dp       *diagProvider
	rt       *runtime.Runtime
	srv      *http.Server
}

// startPipeline builds the pipeline, starts the runtime and serves its
// HTTP plane on -addr. mitigate is the countermeasure body, cadence the
// engine's cycle spacing in simulated seconds, tick the runtime's
// wall-clock cycle interval (0 when the caller drives CycleBatch), and
// logEvents presizes the mirror's error log. The caller closes p.srv.
func startPipeline(ctx context.Context, o *options, mitigate func() error, cadence float64, tick time.Duration, logEvents int) (*pipeline, error) {
	p := &pipeline{o: o}
	m := newMirror()
	m.log.Grow(logEvents)
	layers := m.layers(2 * scp.DefaultConfig().SwapThreshold)
	layerNames := make([]string, len(layers))
	for i, l := range layers {
		layerNames[i] = l.Name
	}
	var combiner core.Combiner
	var stacker *meta.Stacker
	var err error
	if o.metaWeights != "" {
		if stacker, err = parseMetaWeights(o.metaWeights, layers); err != nil {
			return nil, err
		}
		combiner = stacker.Score
		o.logger.Info("meta combiner", "weights", o.metaWeights)
	}
	if p.action, err = act.New("mitigate+prepare", act.PreparedRepair,
		act.Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3}, mitigate); err != nil {
		return nil, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, err
	}
	const leadTime = 300.0
	// Externally clocked engine: the runtime drives it on replay time.
	if p.engine, err = core.New(nil, layers, combiner, selector,
		[]*act.Action{p.action}, nil, core.Config{
			EvalInterval:        cadence,
			LeadTime:            leadTime,
			WarnThreshold:       0.2, // any single layer suffices (4 layers)
			OscillationWindow:   1800,
			MaxActionsPerWindow: 6,
		}); err != nil {
		return nil, err
	}
	// Online prediction-quality ledger: journaled by the runtime's act
	// step, ground truth fed by the mode's driver through recordFailure,
	// matched with the engine's lead time Δtl and the -ledger-slack Δtp.
	if p.ledger, err = obs.NewLedger(obs.LedgerConfig{
		LeadTime: leadTime, Slack: o.ledgerSlack, Window: o.ledgerWindow,
	}, layerNames...); err != nil {
		return nil, err
	}
	if o.traceCap > 0 {
		p.tracer = obs.NewTracer(o.traceCap)
		p.tracer.SetSampleInterval(o.traceSample)
	}
	// Predictor lifecycle (-hotswap): drift-triggered recalibration with
	// shadow validation against the live ledger and zero-downtime swaps.
	if o.hotswap {
		if p.lcm, err = lifecycle.NewManager(layers, p.ledger, lifecycle.Config{
			ScoreWarmup:         o.driftWarmup,
			ScoreThresholdSigma: o.driftThreshold,
			ShadowMinResolved:   o.driftShadowMin,
			CooldownCycles:      o.driftCooldown,
		}); err != nil {
			return nil, err
		}
		o.logger.Info("predictor lifecycle enabled",
			"drift_warmup", o.driftWarmup, "drift_threshold_sigma", o.driftThreshold,
			"shadow_min_resolved", o.driftShadowMin, "cooldown_cycles", o.driftCooldown)
	}
	// Flight recorder: always-on bounded capture keyed to the act step's
	// warn/act decisions, lifecycle events, and ledger burn rate.
	if p.recorder, p.dp, err = buildRecorder(o.incidents, m, layerNames, p.tracer, p.ledger, p.lcm, o.logger); err != nil {
		return nil, err
	}
	if p.rt, err = runtime.New(runtime.Config{
		Engine:        p.engine,
		Apply:         m.apply,
		Clock:         p.clock.Now,
		QueueCapacity: o.queueCap,
		Overflow:      o.policy,
		EvalInterval:  tick,
		Workers:       o.workers,
		Shards:        o.shards,
		BatchSize:     o.batch,
		Profiling:     o.pprof,
		Tracer:        p.tracer,
		Ledger:        p.ledger,
		Lifecycle:     p.lcm,
		Recorder:      p.recorder,
	}); err != nil {
		return nil, err
	}
	if p.lcm != nil {
		watchLifecycle(p.lcm, stacker, layers, p.tracer, o.logger)
	}
	p.engine.SetCycleObserver(decisionLog(o.logger, p.tracer, layerNames))
	if err := p.rt.Start(ctx); err != nil {
		return nil, err
	}
	var bound string
	if p.srv, bound, err = p.rt.Serve(o.addr); err != nil {
		_ = p.rt.Stop(context.Background())
		return nil, err
	}
	o.logger.Info("serving observability endpoints",
		"addr", bound, "tracez", p.tracer != nil, "ledger", true, "pprof", o.pprof)
	return p, nil
}

// decisionLog is the structured decision log: every MEA cycle at debug,
// warnings at info, linked to the newest completed /tracez span.
func decisionLog(logger *slog.Logger, tracer *obs.Tracer, layerNames []string) core.CycleObserver {
	return func(now float64, scores []float64, d core.Decision) {
		attrs := []any{
			slog.Float64("sim_now", now),
			slog.Float64("confidence", d.Confidence),
			slog.Bool("warned", d.Warned),
			slog.String("action", d.ActionName),
			slog.Bool("executed", d.Executed),
			slog.Bool("suppressed", d.Suppressed),
		}
		if tracer != nil {
			attrs = append(attrs, slog.Uint64("trace_id", tracer.NewestCompleteID()))
		}
		for i, s := range scores {
			if i < len(layerNames) && !math.IsNaN(s) {
				attrs = append(attrs, slog.Float64("score_"+layerNames[i], s))
			}
		}
		if d.Warned {
			logger.Info("failure warning", attrs...)
		} else {
			logger.Debug("cycle", attrs...)
		}
	}
}

// recordFailure feeds one ground-truth failure to the quality ledger and
// the incident diagnoser's training set.
func (p *pipeline) recordFailure(t float64) {
	p.ledger.RecordFailure(t)
	if p.dp != nil {
		p.dp.RecordFailure(t)
	}
}

// finish stops the pipeline gracefully (bounded, so Ctrl-C always wins
// within seconds) and writes the exit report: the mode's own summary
// line, the pipeline counters, the action, lifecycle, quality, model and
// incident logs, the engine's report and the -trace-dump table.
func (p *pipeline) finish(modeSummary func()) error {
	o := p.o
	stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.rt.Stop(stopCtx); err != nil {
		o.logger.Warn("drain incomplete", "err", err)
	}
	modeSummary()
	mm := p.rt.Metrics()
	o.logger.Info("pipeline summary",
		"ingested", mm.Ingested.Value(), "applied", mm.Applied.Value(),
		"dropped", mm.Dropped(), "evaluations", mm.Evaluations.Value(),
		"warnings", mm.Warnings.Value(), "actions", mm.Actions.Value(),
		"suppressed", mm.Suppressed.Value())
	logActionStats(o.logger, p.action)
	if p.lcm != nil {
		logLifecycle(o.logger, p.lcm)
	}
	logQuality(o.logger, p.ledger)
	logModelAssessment(o.logger, p.ledger)
	logIncidents(o.logger, p.recorder)
	fmt.Fprint(o.stdout, p.engine.Report())
	if o.traceDump > 0 && p.tracer != nil {
		fmt.Fprintf(o.stdout, "\nslowest %d end-to-end traces:\n\n", o.traceDump)
		return obs.WriteText(o.stdout, p.tracer.Slowest(o.traceDump), runtime.KindLabel)
	}
	return nil
}

// watchLifecycle subscribes the service to predictor-lifecycle events: every
// transition is logged (swap decisions at info, linked to the newest /tracez
// span), and when a meta stacker combines the layers, a freshly swapped
// layer is down-weighted during probation and restored on confirm/rollback.
func watchLifecycle(
	lcm *lifecycle.Manager,
	stacker *meta.Stacker,
	layers []*core.Layer,
	tracer *obs.Tracer,
	logger *slog.Logger,
) {
	lcm.Subscribe(func(e lifecycle.Event) {
		attrs := []any{
			slog.String("layer", e.Layer),
			slog.String("event", string(e.Type)),
			slog.Uint64("version", e.Version),
			slog.Float64("sim_now", e.Time),
		}
		switch e.Type {
		case lifecycle.EventSwapped, lifecycle.EventShadowDiscarded,
			lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			attrs = append(attrs,
				slog.Float64("candidate_f", e.CandidateF),
				slog.Float64("incumbent_f", e.IncumbentF))
		}
		if e.Duration > 0 {
			attrs = append(attrs, slog.Float64("retrain_seconds", e.Duration))
		}
		if e.Err != "" {
			attrs = append(attrs, slog.String("err", e.Err))
		}
		if tracer != nil {
			attrs = append(attrs, slog.Uint64("trace_id", tracer.NewestCompleteID()))
		}
		switch e.Type {
		case lifecycle.EventSwapped, lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			logger.Info("predictor swap decision", attrs...)
		default:
			logger.Info("predictor lifecycle", attrs...)
		}
	})
	if stacker == nil {
		return
	}
	// Probation discount: trust a just-swapped predictor at half its
	// configured weight until the swap is confirmed (or rolled back).
	const probationDiscount = 0.5
	initial := make(map[string]float64, len(layers))
	for _, l := range layers {
		if w, err := stacker.Weight(l.Name); err == nil {
			initial[l.Name] = w
		}
	}
	lcm.Subscribe(func(e lifecycle.Event) {
		w0, ok := initial[e.Layer]
		if !ok {
			return
		}
		switch e.Type {
		case lifecycle.EventSwapped:
			if prev, err := stacker.Reweight(e.Layer, w0*probationDiscount); err == nil {
				logger.Info("stacker reweighted for probation",
					"layer", e.Layer, "weight", w0*probationDiscount, "previous", prev)
			}
		case lifecycle.EventConfirmed, lifecycle.EventRolledBack:
			if _, err := stacker.Reweight(e.Layer, w0); err == nil {
				logger.Info("stacker weight restored", "layer", e.Layer, "weight", w0)
			}
		}
	})
}

// logLifecycle reports the per-layer predictor-lifecycle outcome.
func logLifecycle(logger *slog.Logger, lcm *lifecycle.Manager) {
	for _, st := range lcm.States() {
		logger.Info("predictor lifecycle summary",
			"layer", st.Layer, "state", st.State, "version", st.Version,
			"drifts", st.Drifts, "retrains", st.Retrains,
			"retrain_errors", st.RetrainErrors, "swaps", st.Swaps,
			"rollbacks", st.Rollbacks, "confirms", st.Confirms,
			"eval_errors", st.EvalErrors)
	}
}

// logActionStats reports the countermeasure's execution record.
func logActionStats(logger *slog.Logger, a *act.Action) {
	s := a.Stats()
	logger.Info("action stats", "action", a.Name(),
		"executions", s.Executions, "failures", s.Failures,
		"mean_duration", s.MeanDuration(), "last_duration", s.LastDuration)
}

// logQuality reports the ledger's per-layer online quality tables.
func logQuality(logger *slog.Logger, led *obs.Ledger) {
	for _, layer := range led.Layers() {
		c := led.Cumulative(layer)
		attrs := []any{
			slog.String("layer", layer),
			slog.Int("tp", c.TP), slog.Int("fp", c.FP),
			slog.Int("tn", c.TN), slog.Int("fn", c.FN),
		}
		for _, m := range []struct {
			name string
			v    float64
		}{
			{"precision", c.Precision()}, {"recall", c.Recall()},
			{"fpr", c.FPR()}, {"f1", c.FMeasure()},
		} {
			if !math.IsNaN(m.v) {
				attrs = append(attrs, slog.Float64(m.name, m.v))
			}
		}
		logger.Info("prediction quality", attrs...)
	}
}

// logModelAssessment compares the Sect. 5 CTMC under the measured combined
// quality against the paper's Table 2 reference parameterization.
func logModelAssessment(logger *slog.Logger, led *obs.Ledger) {
	a, err := obs.AssessModel(led.Cumulative(obs.CombinedLayer), pfmmodel.DefaultParams())
	if err != nil {
		logger.Debug("model assessment unavailable", "reason", err.Error())
		return
	}
	logger.Info("model assessment",
		"measured_precision", a.Measured.Precision,
		"measured_recall", a.Measured.Recall,
		"measured_fpr", a.Measured.FPR,
		"measured_availability", a.Measured.Availability,
		"reference_availability", a.Reference.Availability,
		"availability_delta", a.AvailabilityDelta,
		"unavailability_ratio", a.Measured.UnavailabilityRatio,
		"reference_unavailability_ratio", a.Reference.UnavailabilityRatio,
		"unavailability_ratio_delta", a.UnavailabilityRatioDelta,
		"mttf_relative", a.MTTFRelative,
		"hazard_at_mttf", a.Measured.HazardAtMTTF)
}
