package main

// The daemon's wiring, copied from cmd/pfmd (a main package, so it cannot
// be imported). Each copy cites the lines it mirrors; keep them in step.
// The only additions are the benchmark's timing hooks, which are nil-safe
// and cost one branch when the run is untraced.

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
	ts "repro/internal/timeseries"
)

// pfmd's defaults for the settings the benchmark wires (cmd/pfmd/main.go
// flag block, lines 237-274).
const (
	pfmdQueue       = 4096  // -queue
	pfmdWorkers     = 4     // -workers
	pfmdShards      = 1     // -shards
	pfmdTraceCap    = 256   // -trace-cap
	pfmdLedgerSlack = 300.0 // -ledger-slack
	pfmdLedgerWin   = 0.0   // -ledger-window
	pfmdReplayEval  = 900.0 // -replay-eval [sim s]
	pfmdCompress    = 3600.0
	pfmdScopes      = 64    // -fleet-scopes
	pfmdSkew        = 1.0   // -skew
	pfmdEvalEveryMs = 250   // -eval
	pfmdLeadTime    = 300.0 // const leadTime in columnar.go:92 and fleet.go:126
)

// newPfmdTracer builds the program's own tracer at pfmd's defaults
// (columnar.go:114-118, fleet.go:133-138).
func newPfmdTracer() *obs.Tracer {
	tr := obs.NewTracer(pfmdTraceCap)
	tr.SetSampleInterval(obs.DefaultSampleInterval)
	return tr
}

// mirror is pfmd's single-tenant predictor-visible state
// (cmd/pfmd/main.go:95-107).
type mirror struct {
	log *eventlog.Log
	sar map[string]*ts.Series

	sp     *spanRecorder // traced runs only
	parent uint64        // span the current apply nests in (apply is serialized)
}

func newMirror() *mirror {
	m := &mirror{log: eventlog.NewLog(), sar: make(map[string]*ts.Series)}
	for _, name := range scp.SARVariables {
		m.sar[name] = ts.New(name)
	}
	return m
}

// apply mirrors cmd/pfmd/main.go:109-122; traced runs time the eventlog
// and timeseries appends as children of the current apply span.
func (m *mirror) apply(ev runtime.Event) error {
	switch ev.Kind {
	case runtime.KindError:
		if m.parent != 0 {
			t0 := m.sp.now()
			err := m.log.Append(ev.Error)
			m.sp.add(0, m.parent, 0, "eventlog.append", t0, m.sp.now())
			return err
		}
		return m.log.Append(ev.Error)
	case runtime.KindSample:
		s, ok := m.sar[ev.Variable]
		if !ok {
			return fmt.Errorf("unknown variable %q", ev.Variable)
		}
		if m.parent != 0 {
			t0 := m.sp.now()
			err := s.Append(ev.Time, ev.Value)
			m.sp.add(0, m.parent, 0, "timeseries.append", t0, m.sp.now())
			return err
		}
		return s.Append(ev.Time, ev.Value)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// layers mirrors cmd/pfmd/main.go:130-175. timed wraps each raw signal so
// a traced run records one span per score call.
func (m *mirror) layers(memFloor float64, timed func(name string, raw rawFunc) rawFunc) []*core.Layer {
	rawErrors := func(now float64) (float64, error) {
		lo, hi := m.log.ScanWindow(now-600, now+1e-9)
		return float64(hi-lo) / 600, nil
	}
	rawMemory := func(now float64) (float64, error) {
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
		v, ok := m.sar["cpu"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	rawSwap := func(now float64) (float64, error) {
		v, ok := m.sar["swap"].Last()
		if !ok {
			return 0, nil
		}
		return v.V, nil
	}
	if timed == nil {
		timed = func(_ string, raw rawFunc) rawFunc { return raw }
	}
	return []*core.Layer{
		{Name: "errors", Predictor: newCalibrated(timed("errors", rawErrors), 0.05), Threshold: 1},
		{Name: "memory", Predictor: newCalibrated(timed("memory", rawMemory), 0.1), Threshold: 1},
		{Name: "load", Predictor: newCalibrated(timed("load", rawLoad), 0.85), Threshold: 1},
		{Name: "swap", Predictor: newCalibrated(timed("swap", rawSwap), 0.5), Threshold: 1},
	}
}

type rawFunc = func(now float64) (float64, error)

// calibrated is the serving half of pfmd's calibrated layer predictor
// (cmd/pfmd/calibrated.go:24-67): score = raw/scale, each evaluation
// appended to a bounded ring. The retrain half is unused without
// -hotswap, pfmd's default.
type calibrated struct {
	raw   rawFunc
	scale float64
	ring  []float64
	next  int
}

const calibratedRing = 512 // calibrated.go:36

func newCalibrated(raw rawFunc, scale float64) *calibrated {
	return &calibrated{raw: raw, scale: scale, ring: make([]float64, 0, calibratedRing)}
}

// Evaluate mirrors cmd/pfmd/calibrated.go:52-67.
func (c *calibrated) Evaluate(now float64) (float64, error) {
	v, err := c.raw(now)
	if err != nil {
		return 0, err
	}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		if len(c.ring) < cap(c.ring) {
			c.ring = append(c.ring, v)
		} else {
			c.ring[c.next] = v
		}
		c.next = (c.next + 1) % cap(c.ring)
	}
	return v / c.scale, nil
}

// replayParts are the pieces pfmd -replay-columnar builds around the
// runtime: mirror, layers, engine, ledger and the no-op countermeasure
// (cmd/pfmd/columnar.go:68-113, without -meta-weights).
type replayParts struct {
	m      *mirror
	layers []*core.Layer
	engine *core.Engine
	ledger *obs.Ledger
}

func newReplayParts(nErrors int, timed func(string, rawFunc) rawFunc) (*replayParts, error) {
	m := newMirror()
	m.log.Grow(nErrors)
	layers := m.layers(2*scp.DefaultConfig().SwapThreshold, timed)
	action, err := act.New("mitigate+prepare", act.PreparedRepair,
		act.Params{Cost: 0.5, SuccessProb: 0.85, Complexity: 0.3},
		func() error { return nil })
	if err != nil {
		return nil, err
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		return nil, err
	}
	engine, err := core.New(nil, layers, nil, selector,
		[]*act.Action{action}, nil, core.Config{
			EvalInterval:        pfmdReplayEval,
			LeadTime:            pfmdLeadTime,
			WarnThreshold:       0.2,
			OscillationWindow:   1800,
			MaxActionsPerWindow: 6,
		})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.Name
	}
	ledger, err := obs.NewLedger(obs.LedgerConfig{
		LeadTime: pfmdLeadTime, Slack: pfmdLedgerSlack, Window: pfmdLedgerWin,
	}, names...)
	if err != nil {
		return nil, err
	}
	return &replayParts{m: m, layers: layers, engine: engine, ledger: ledger}, nil
}

// fleetState is pfmd's per-tenant fleet mirror (cmd/pfmd/fleet.go:55-75),
// plus the benchmark's bookkeeping: the tenant's index and how many of its
// events have applied, which maps each Apply call to the record it applies.
type fleetState struct {
	capacity float64
	util     float64
	errs     float64

	idx     int32
	applied int64
}

// apply mirrors cmd/pfmd/fleet.go:61-75.
func (s *fleetState) apply(ev fleet.Event) error {
	if ev.Kind == runtime.KindError {
		if ev.Error.Severity >= 2 {
			s.errs += 1
		} else {
			s.errs += 0.25
		}
		return nil
	}
	if ev.Variable == "load" {
		s.util = 0.8*s.util + 0.2*ev.Value/s.capacity
		s.errs *= 0.9
	}
	return nil
}

// fleetLayers mirrors cmd/pfmd/fleet.go:79-97. The hooks let the benchmark
// time the scorers from outside; nil hooks leave pfmd's functions as is.
func fleetLayers(onBatch func(n int, start int64), onScore func(start int64), clock func() int64) []fleet.LayerTemplate {
	load := func(states []fleet.TenantState, _ float64, out []float64) error {
		for i, st := range states {
			out[i] = st.(*fleetState).util
		}
		return nil
	}
	errs := func(st fleet.TenantState, _ float64) (float64, error) {
		return 1 - math.Exp(-st.(*fleetState).errs/3), nil
	}
	tmpl := []fleet.LayerTemplate{
		{Name: "load", Threshold: 0.85, ScoreBatch: load},
		{Name: "errors", Threshold: 0.6, Score: errs},
	}
	if onBatch != nil {
		tmpl[0].ScoreBatch = func(states []fleet.TenantState, now float64, out []float64) error {
			t0 := clock()
			err := load(states, now, out)
			onBatch(len(states), t0)
			return err
		}
	}
	if onScore != nil {
		tmpl[1].Score = func(st fleet.TenantState, now float64) (float64, error) {
			t0 := clock()
			s, err := errs(st, now)
			onScore(t0)
			return s, err
		}
	}
	return tmpl
}

// fleetEngine is the per-tenant engine configuration of pfmd -fleet
// (cmd/pfmd/fleet.go:147-153) at the default -compress and -eval.
func fleetEngine() core.Config {
	return core.Config{
		EvalInterval:        pfmdCompress * pfmdEvalEveryMs / 1000,
		LeadTime:            pfmdLeadTime,
		WarnThreshold:       0.5,
		OscillationWindow:   1800,
		MaxActionsPerWindow: 6,
	}
}

// clockSource advances the fleet's domain clock to the newest record time
// without pacing (cmd/pfmd/fleet.go:240-260). n counts records yielded, so
// the benchmark knows when every sent record has reached the pump.
type clockSource struct {
	src    fleet.Source
	simNow *atomic.Uint64
	n      atomic.Int64
}

func (c *clockSource) Next() (fleet.Record, error) {
	rec, err := c.src.Next()
	if err != nil {
		return rec, err
	}
	c.n.Add(1)
	for {
		old := c.simNow.Load()
		if math.Float64frombits(old) >= rec.Event.Time {
			break
		}
		if c.simNow.CompareAndSwap(old, math.Float64bits(rec.Event.Time)) {
			break
		}
	}
	return rec, nil
}
