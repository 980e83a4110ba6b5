// Command pfmd runs the PFM library as a long-running service: the
// concurrent streaming MEA runtime (internal/runtime) fed by the SCP
// simulator in real-time-scaled replay mode. Simulated operation is paced
// by the wall clock at a configurable time-compression factor; the
// simulator's error log and SAR samples stream through the bounded ingest
// queue into mirror state, layered predictors score in a worker pool, and
// the serialized act stage steers the live simulator through a command
// mailbox (applied on the simulation thread between replay slices).
//
// Observability: /metrics (Prometheus text), /healthz and /readyz
// (readiness), /livez (liveness), /tracez (end-to-end span traces),
// /ledger (online Sect. 3.3 prediction quality), /layers (predictor
// lifecycle state, with -hotswap) and /incidents (flight-recorder bundles)
// on -addr while the replay runs, e.g.
//
//	pfmd -days 2 -compress 7200 -hotswap -incident-dir /tmp/incidents &
//	curl -s localhost:9600/metrics | grep pfm_
//	curl -s localhost:9600/ledger | head
//	curl -s localhost:9600/layers
//	curl -s "localhost:9600/tracez?n=10"
//	curl -s localhost:9600/incidents | head
//
// The flight recorder keeps bounded always-on state (recent event-window
// indices, per-layer score history, span IDs) and assembles a correlated
// incident bundle — pre-trigger events, scores, versions, slowest spans,
// suspect components, lifecycle states, runtime snapshot — whenever a
// warning clears -incident-warn, a countermeasure fires, a predictor
// drifts or rolls back, or ledger quality burns down. Bundles are served
// on /incidents and optionally persisted to -incident-dir as JSON.
//
// With -hotswap the predictor lifecycle watches every layer's score stream
// (self-calibrating CUSUM) and ledger quality (Page–Hinkley) for drift,
// recalibrates a candidate off the hot path, validates it in shadow against
// the incumbent's live F-measure, and swaps it in without pausing the MEA
// loop; swap decisions are logged with the newest trace ID.
//
// Progress and decisions are structured logs on stderr (-log-format=json
// for machine ingestion); result tables stay on stdout.
//
// pfmd has three modes: the live simulation (the default), -replay-columnar
// and -fleet. A flag that the chosen mode would ignore is an error.
//
// Usage:
//
//	pfmd [-addr :9600] [-seed 11] [-days 1] [-compress 3600]
//	     [-queue 4096] [-overflow block|drop-oldest|drop-newest]
//	     [-workers 4] [-eval 250ms] [-shards 1] [-pprof]
//	     [-log-format text|json] [-log-level info|debug]
//	     [-trace-cap 256] [-trace-dump 0]
//	     [-ledger-window 0] [-ledger-slack 300]
//	     [-meta-weights w1,w2,w3,w4]
//	     [-hotswap] [-drift-warmup 240] [-drift-threshold 8]
//	     [-drift-shadow-min 20] [-drift-cooldown 200]
//	     [-batch 0] [-replay-columnar trace.cols] [-replay-eval 900]
//	     [-incident-dir DIR] [-incident-cap 32] [-incident-warn 0.5]
//	pfmd -fleet [-tenants 100] [-skew 1] [-fleet-scopes 64]
//	     [-fleet-trace FILE | -listen ADDR] [-act-budget 0] [-rate-limit 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pfmd:", err)
		os.Exit(1)
	}
}

// options holds every pfmd flag, plus the parsed overflow policy, the
// logger and the output for result tables.
type options struct {
	addr                string
	seed                int64
	days, compress      float64
	queueCap            int
	overflow            string
	workers             int
	evalEvery           time.Duration
	shards              int
	pprof               bool
	logFormat, logLevel string
	traceCap, traceDump int
	traceSample         int
	ledgerWindow        float64
	ledgerSlack         float64
	metaWeights         string
	hotswap             bool
	driftWarmup         int
	driftThreshold      float64
	driftShadowMin      int
	driftCooldown       int
	fleet               bool
	tenants             int
	skew                float64
	fleetScopes         int
	fleetTrace, listen  string
	actBudget           int
	rateLimit           float64
	batch               int
	replayColumnar      string
	replayEval          float64
	incidents           incidentOptions
	policy              runtime.OverflowPolicy
	logger              *slog.Logger
	stdout              io.Writer
}

// The three modes, named as in flag errors.
const (
	modeLive     = "live"
	modeColumnar = "-replay-columnar"
	modeFleet    = "-fleet"
)

// modeFlags lists the modes that read each mode-specific flag; every
// other flag is read by all three.
var modeFlags = map[string][]string{
	"seed":             {modeLive, modeFleet},
	"days":             {modeLive, modeFleet},
	"compress":         {modeLive, modeFleet},
	"eval":             {modeLive, modeFleet},
	"pprof":            {modeLive, modeColumnar},
	"trace-dump":       {modeLive, modeColumnar},
	"batch":            {modeLive, modeColumnar},
	"meta-weights":     {modeLive, modeColumnar},
	"incident-dir":     {modeLive, modeColumnar},
	"incident-cap":     {modeLive, modeColumnar},
	"incident-warn":    {modeLive, modeColumnar},
	"hotswap":          {modeLive},
	"drift-warmup":     {modeLive},
	"drift-threshold":  {modeLive},
	"drift-shadow-min": {modeLive},
	"drift-cooldown":   {modeLive},
	"replay-eval":      {modeColumnar},
	"tenants":          {modeFleet},
	"skew":             {modeFleet},
	"fleet-scopes":     {modeFleet},
	"fleet-trace":      {modeFleet},
	"listen":           {modeFleet},
	"act-budget":       {modeFleet},
	"rate-limit":       {modeFleet},
}

// run parses args, picks the mode and runs it until its input ends or ctx
// is canceled. Logs go to stderr, result tables to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o := &options{stdout: stdout}
	fs := flag.NewFlagSet("pfmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":9600", "metrics/health listen address")
	fs.Int64Var(&o.seed, "seed", 11, "simulation seed")
	fs.Float64Var(&o.days, "days", 1, "replay horizon [simulated days]")
	fs.Float64Var(&o.compress, "compress", 3600, "time compression [simulated seconds per wall second]")
	fs.IntVar(&o.queueCap, "queue", 4096, "ingest queue capacity")
	fs.StringVar(&o.overflow, "overflow", "block", "overflow policy: block|drop-oldest|drop-newest")
	fs.IntVar(&o.workers, "workers", 4, "layer-evaluation worker pool size")
	fs.DurationVar(&o.evalEvery, "eval", 250*time.Millisecond, "wall-clock MEA cadence")
	fs.IntVar(&o.shards, "shards", 1, "parallel ingest shards (per-variable routing)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose /debug/pprof/ on the metrics address")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text|json")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: info|debug (debug logs every MEA cycle)")
	fs.IntVar(&o.traceCap, "trace-cap", 256, "end-to-end trace ring capacity (0 disables tracing)")
	fs.IntVar(&o.traceDump, "trace-dump", 0, "print the N slowest end-to-end traces at exit")
	fs.IntVar(&o.traceSample, "trace-sample", obs.DefaultSampleInterval, "trace 1 in N ingested events (1 = every event)")
	fs.Float64Var(&o.ledgerWindow, "ledger-window", 0, "rolling quality window [sim s]; 0 = cumulative")
	fs.Float64Var(&o.ledgerSlack, "ledger-slack", 300, "prediction-period slack Δtp for TP matching [sim s]")
	fs.StringVar(&o.metaWeights, "meta-weights", "", "comma-separated logistic combiner weight per layer (errors,memory,load,swap); empty = threshold voting")
	fs.BoolVar(&o.hotswap, "hotswap", false, "enable the predictor lifecycle: drift-triggered recalibration with shadow validation and zero-downtime hot-swap")
	fs.IntVar(&o.driftWarmup, "drift-warmup", 240, "score-drift detector self-calibration window [cycles]")
	fs.Float64Var(&o.driftThreshold, "drift-threshold", 8, "score-drift CUSUM threshold [σ]")
	fs.IntVar(&o.driftShadowMin, "drift-shadow-min", 20, "resolved shadow predictions before a promotion decision")
	fs.IntVar(&o.driftCooldown, "drift-cooldown", 200, "cycles a layer is muted after a lifecycle episode")
	fs.BoolVar(&o.fleet, "fleet", false, "run the multi-tenant fleet runtime instead of the single-instance pipeline")
	fs.IntVar(&o.tenants, "tenants", 100, "fleet size (with -fleet)")
	fs.Float64Var(&o.skew, "skew", 1, "Zipf exponent of the tenant load profile (with -fleet)")
	fs.IntVar(&o.fleetScopes, "fleet-scopes", 64, "dedicated per-tenant quality-ledger scopes before folding (with -fleet)")
	fs.StringVar(&o.fleetTrace, "fleet-trace", "", "replay a recorded trace file instead of simulating (.trace text or .wire binary, see loggen -tenants)")
	fs.StringVar(&o.listen, "listen", "", "accept tenant traces over TCP on this address instead of simulating (with -fleet; PFW1 wire or text line protocol, see loggen -send)")
	fs.IntVar(&o.actBudget, "act-budget", 0, "max tenants that may execute a countermeasure per cycle, criticality-prioritized (with -fleet; 0 = unlimited)")
	fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-tenant ingest drain cap [events per simulated second] (with -fleet; 0 = unlimited)")
	fs.IntVar(&o.batch, "batch", 0, "ingest drain chunk size per shard (0 = runtime default)")
	fs.StringVar(&o.replayColumnar, "replay-columnar", "", "replay a PFC1 columnar trace (see loggen -columnar) at full speed instead of simulating")
	fs.Float64Var(&o.replayEval, "replay-eval", 900, "MEA cadence in simulated seconds (with -replay-columnar)")
	fs.StringVar(&o.incidents.dir, "incident-dir", "", "persist captured incident bundles as JSON files in this directory")
	fs.IntVar(&o.incidents.cap, "incident-cap", 32, "retained incident bundles (0 disables the flight recorder)")
	fs.Float64Var(&o.incidents.warn, "incident-warn", 0.5, "combined-confidence gate for warn-triggered incident capture")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	mode := modeLive
	switch {
	case o.fleet && o.replayColumnar != "":
		return fmt.Errorf("-fleet and -replay-columnar select different modes; pass one")
	case o.fleet:
		mode = modeFleet
	case o.replayColumnar != "":
		mode = modeColumnar
	}
	var unused error
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := modeFlags[f.Name]; ok && unused == nil && !slices.Contains(modes, mode) {
			unused = fmt.Errorf("-%s is not used in %s mode", f.Name, mode)
		}
	})
	if unused != nil {
		return unused
	}
	if o.days <= 0 || o.compress <= 0 {
		return fmt.Errorf("days and compress must be positive")
	}
	var err error
	if o.policy, err = runtime.ParsePolicy(o.overflow); err != nil {
		return err
	}
	if o.logger, err = newLogger(stderr, o.logFormat, o.logLevel); err != nil {
		return err
	}
	if o.traceDump > o.traceCap {
		o.traceCap = o.traceDump
	}
	switch mode {
	case modeColumnar:
		return runColumnar(ctx, o)
	case modeFleet:
		return runFleet(ctx, o)
	}
	return runLive(ctx, o)
}

// newLogger builds the service logger from the -log-format/-log-level
// flags, writing to w.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	default:
		return nil, fmt.Errorf("unknown log level %q (want info|debug)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

// runLive is the live mode: the SCP simulator replays in wall-paced slices
// into the pipeline, whose ticker drives the cycles and whose
// countermeasure steers the simulator.
func runLive(ctx context.Context, o *options) error {
	scpCfg := scp.DefaultConfig()
	scpCfg.Seed = o.seed
	sys, err := scp.New(scpCfg)
	if err != nil {
		return err
	}

	// Act commands cross back to the simulation thread through a mailbox:
	// the act step enqueues, the replay loop applies between slices, so
	// the non-thread-safe simulator is only ever touched from one
	// goroutine.
	cmds := make(chan func(), 64)
	mitigate := func() error {
		select {
		case cmds <- func() {
			if !sys.Up() {
				return
			}
			if sys.Utilization() > 0.85 {
				_ = sys.ShedLoad(0.3)
				_ = sys.Engine().Schedule(1200, func() {
					if sys.Up() {
						_ = sys.ShedLoad(0)
					}
				})
			}
			if sys.FreeMemory() < 2*scpCfg.SwapThreshold {
				_ = sys.CleanupState()
			}
			_ = sys.PrepareRepair()
		}:
		default: // mailbox full: the pending mitigation will cover it
		}
		return nil
	}
	p, err := startPipeline(ctx, o, mitigate, o.compress*o.evalEvery.Seconds(), o.evalEvery, 0)
	if err != nil {
		return err
	}
	defer p.srv.Close()
	o.logger.Info("replay starting",
		"sim_days", o.days, "compress", o.compress, "policy", o.policy.String(),
		"workers", o.workers, "shards", p.rt.Shards())
	if err := replay(ctx, sys, p, cmds, o.days*86400, o.compress); err != nil && ctx.Err() == nil {
		return err
	}
	return p.finish(func() {
		o.logger.Info("system summary",
			"availability", sys.MeasuredAvailability(),
			"failures", len(sys.Failures()), "restarts", len(sys.Restarts()))
	})
}

// replay advances the simulator in wall-paced slices, applying queued act
// commands on the simulation thread, streaming new error events and SAR
// samples into the pipeline, and journaling ground-truth failures into its
// ledger.
func replay(ctx context.Context, sys *scp.System, p *pipeline, cmds chan func(), horizon, compress float64) error {
	const wallSlice = 100 * time.Millisecond
	simSlice := compress * wallSlice.Seconds()
	seenLog := 0
	seenFail := 0
	seenSAR := make(map[string]int, len(scp.SARVariables))
	ticker := time.NewTicker(wallSlice)
	defer ticker.Stop()
	for elapsed := 0.0; elapsed < horizon; elapsed += simSlice {
		// Countermeasures decided by the act stage since the last slice.
		for {
			select {
			case cmd := <-cmds:
				cmd()
				continue
			default:
			}
			break
		}
		step := math.Min(simSlice, horizon-elapsed)
		if err := sys.Run(step); err != nil {
			return err
		}
		p.clock.Set(sys.Now())
		// Ground truth for the ledger: failures the slice produced.
		for times := sys.FailureTimes(); seenFail < len(times); seenFail++ {
			p.recordFailure(times[seenFail])
		}
		// Stream everything the slice produced.
		for n := sys.Log().Len(); seenLog < n; seenLog++ {
			e := sys.Log().At(seenLog)
			if err := p.rt.Ingest(ctx, runtime.Event{Kind: runtime.KindError, Time: e.Time, Error: e}); err != nil {
				return err
			}
		}
		for _, name := range scp.SARVariables {
			series, err := sys.SAR(name)
			if err != nil {
				return err
			}
			for n := series.Len(); seenSAR[name] < n; seenSAR[name]++ {
				pt := series.At(seenSAR[name])
				if err := p.rt.Ingest(ctx, runtime.Event{
					Kind: runtime.KindSample, Time: pt.T, Variable: name, Value: pt.V,
				}); err != nil {
					return err
				}
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
	return nil
}
