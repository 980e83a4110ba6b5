package runtime

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/pfmmodel"
	"repro/internal/predict"
)

// Health is the /healthz and /readyz response body of both HTTP planes:
// the single-tenant runtime reports itself as one tenant, the fleet its
// membership.
type Health struct {
	// Status is "ok" while serving, "draining" once a graceful Stop has
	// begun (queues flushing through Apply), and "stopped" after the
	// drain completes. Readiness returns 503 for both non-ok states;
	// liveness (/livez) stays 200 for the life of the process.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Tenants       int     `json:"tenants"`
	Shards        int     `json:"shards"`
	QueueDepth    int     `json:"queueDepth"`    // summed across queues
	QueueCapacity int     `json:"queueCapacity"` // summed across queues
	Evaluations   int64   `json:"evaluations"`
	Cycles        int64   `json:"cycles"`
	// LastCycleAgoSeconds is the age of the newest act decision; -1
	// before the first cycle completes.
	LastCycleAgoSeconds float64 `json:"lastCycleAgoSeconds"`
}

// NewHealth fills the readiness fields both planes derive the same way:
// the status from the pipeline's running and stopped flags, the uptime,
// and the age of the newest cycle (lastCycle in unix nanos, 0 before the
// first one). The caller fills the sizing fields.
func NewHealth(running, stopped bool, uptime time.Duration, lastCycle int64) Health {
	h := Health{Status: "ok", UptimeSeconds: uptime.Seconds(), LastCycleAgoSeconds: -1}
	switch {
	case stopped:
		h.Status = "stopped"
	case !running:
		h.Status = "draining"
	}
	if lastCycle != 0 {
		h.LastCycleAgoSeconds = time.Since(time.Unix(0, lastCycle)).Seconds()
	}
	return h
}

// health snapshots readiness state.
func (r *Runtime) health() Health {
	h := NewHealth(r.Running(), r.stopped.Load(), r.Uptime(), r.lastCycle.Load())
	h.Tenants = 1
	h.Shards = r.Shards()
	h.QueueDepth = r.QueueDepth()
	h.QueueCapacity = r.queueCapacity()
	h.Evaluations = r.metrics.Evaluations.Value()
	h.Cycles = r.Cycles()
	return h
}

// KindLabel names an event kind byte for trace rendering.
func KindLabel(k uint8) string {
	switch EventKind(k) {
	case KindError:
		return "error"
	case KindSample:
		return "sample"
	default:
		return strconv.Itoa(int(k))
	}
}

// traceJSON is one trace in /tracez?format=json.
type traceJSON struct {
	ID      uint64           `json:"id"`
	Kind    string           `json:"kind"`
	Key     string           `json:"key"`
	Shard   int              `json:"shard"`
	State   string           `json:"state"` // "done" | "applied" | "dropped"
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns"`
}

func toTraceJSON(v obs.TraceView) traceJSON {
	state := "applied"
	switch {
	case v.Dropped:
		state = "dropped"
	case v.Complete:
		state = "done"
	}
	stages := make(map[string]int64, obs.NumStages)
	for i, d := range v.Stages {
		// Incomplete traces omit the cycle stages they never reached.
		if d == 0 && i > obs.StageApply && !v.Complete {
			continue
		}
		stages[obs.StageNames[i]] = int64(d)
	}
	return traceJSON{
		ID: v.ID, Kind: KindLabel(v.Kind), Key: v.Key, Shard: v.Shard,
		State: state, TotalNs: int64(v.Total), Stages: stages,
	}
}

// serveTracez renders tr's slowest recent end-to-end traces: a human text
// table by default, JSON with ?format=json, count via ?n= (default 20).
func serveTracez(w http.ResponseWriter, req *http.Request, tr *obs.Tracer) {
	n := 20
	if v, err := strconv.Atoi(req.URL.Query().Get("n")); err == nil && v > 0 {
		n = v
	}
	traces := tr.Slowest(n)
	if req.URL.Query().Get("format") == "json" {
		out := make([]traceJSON, len(traces))
		for i, v := range traces {
			out[i] = toTraceJSON(v)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "tracez: %d slowest of the %d most recent traces\n\n", len(traces), tr.Capacity())
	_ = obs.WriteText(w, traces, KindLabel)
}

// TableJSON renders a contingency table with its derived metrics; metric
// pointers are nil while their denominator is empty (JSON cannot carry NaN).
type TableJSON struct {
	TP        int      `json:"tp"`
	FP        int      `json:"fp"`
	TN        int      `json:"tn"`
	FN        int      `json:"fn"`
	Precision *float64 `json:"precision,omitempty"`
	Recall    *float64 `json:"recall,omitempty"`
	FPR       *float64 `json:"fpr,omitempty"`
	F1        *float64 `json:"f1,omitempty"`
}

// NewTableJSON renders c for JSON.
func NewTableJSON(c predict.ContingencyTable) TableJSON {
	finite := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	return TableJSON{
		TP: c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
		Precision: finite(c.Precision()), Recall: finite(c.Recall()),
		FPR: finite(c.FPR()), F1: finite(c.FMeasure()),
	}
}

// ledgerLayerJSON is one layer in the /ledger response.
type ledgerLayerJSON struct {
	Layer      string    `json:"layer"`
	Rolling    TableJSON `json:"rolling"`
	Cumulative TableJSON `json:"cumulative"`
	Pending    int       `json:"pending"`
}

// ledgerJSON is the /ledger response body.
type ledgerJSON struct {
	LeadTimeSeconds float64           `json:"leadTimeSeconds"`
	SlackSeconds    float64           `json:"slackSeconds"`
	WindowSeconds   float64           `json:"windowSeconds"`
	Watermark       float64           `json:"watermark"`
	Predictions     int64             `json:"predictions"`
	Failures        int64             `json:"failures"`
	Layers          []ledgerLayerJSON `json:"layers"`
	// Model compares the Section 5 CTMC under the combined layer's
	// measured cumulative quality against the paper's Table 2 reference;
	// absent until the table can parameterize the chain.
	Model *obs.ModelAssessment `json:"model,omitempty"`
}

// serveLedger renders the prediction-quality ledger as JSON.
func (r *Runtime) serveLedger(w http.ResponseWriter, _ *http.Request) {
	snap := r.cfg.Ledger.Snapshot()
	out := ledgerJSON{
		LeadTimeSeconds: snap.LeadTime,
		SlackSeconds:    snap.Slack,
		WindowSeconds:   snap.Window,
		Watermark:       snap.Watermark,
		Predictions:     snap.Predictions,
		Failures:        snap.Failures,
		Layers:          make([]ledgerLayerJSON, len(snap.Layers)),
	}
	for i, lq := range snap.Layers {
		out.Layers[i] = ledgerLayerJSON{
			Layer:      lq.Layer,
			Rolling:    NewTableJSON(lq.Rolling),
			Cumulative: NewTableJSON(lq.Cumulative),
			Pending:    lq.Pending,
		}
	}
	if a, err := obs.AssessModel(r.cfg.Ledger.Cumulative(obs.CombinedLayer), pfmmodel.DefaultParams()); err == nil {
		out.Model = &a
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// IncidentSummary is one bundle row in the /incidents list view.
type IncidentSummary struct {
	ID          string          `json:"id"`
	Scope       string          `json:"scope,omitempty"`
	Trigger     obs.TriggerKind `json:"trigger"`
	Time        float64         `json:"time"`
	Detail      string          `json:"detail,omitempty"`
	Confidence  float64         `json:"confidence"`
	Action      string          `json:"action,omitempty"`
	TraceID     uint64          `json:"trace_id,omitempty"`
	EventsTotal int             `json:"events_total"`
	TopSuspect  string          `json:"top_suspect,omitempty"`
}

// SummarizeIncident projects a bundle onto its list row.
func SummarizeIncident(b *obs.IncidentBundle) IncidentSummary {
	s := IncidentSummary{
		ID: b.ID, Scope: b.Scope, Trigger: b.Trigger, Time: b.Time,
		Detail: b.Detail, Confidence: b.Confidence, Action: b.Action,
		TraceID: b.TraceID, EventsTotal: b.EventsTotal,
	}
	if len(b.Suspects) > 0 {
		s.TopSuspect = b.Suspects[0].Component
	}
	return s
}

// ServeIncidents renders the /incidents plane over any bundle source:
// the newest-last summary list by default, one full bundle with ?id=.
// Shared by the single-tenant runtime and the fleet handler.
func ServeIncidents(w http.ResponseWriter, req *http.Request,
	list func() []*obs.IncidentBundle, get func(id string) *obs.IncidentBundle) {
	w.Header().Set("Content-Type", "application/json")
	if id := req.URL.Query().Get("id"); id != "" {
		b := get(id)
		if b == nil {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "{\"error\":\"no bundle %q (evicted or never captured)\"}\n", id)
			return
		}
		_ = json.NewEncoder(w).Encode(b)
		return
	}
	bundles := list()
	out := make([]IncidentSummary, len(bundles))
	for i, b := range bundles {
		out[i] = SummarizeIncident(b)
	}
	_ = json.NewEncoder(w).Encode(out)
}

// HandleShared mounts the routes both HTTP planes serve:
//
//	GET /metrics — Prometheus text exposition of m
//	GET /healthz — JSON readiness (200 while running, 503 once draining
//	               or stopped); /readyz is an alias
//	GET /livez   — JSON liveness (200 for the life of the process)
//	GET /tracez  — slowest recent end-to-end traces (with a tracer; text
//	               table, or JSON with ?format=json)
func HandleShared(mux *http.ServeMux, m *Metrics, health func() Health, tr *obs.Tracer) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
	ready := func(w http.ResponseWriter, _ *http.Request) {
		h := health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	}
	mux.HandleFunc("/healthz", ready)
	mux.HandleFunc("/readyz", ready)
	// Liveness ignores drain state: restarting a draining process would
	// turn every graceful shutdown into a kill.
	mux.HandleFunc("/livez", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"live\",\"pipeline\":%q}\n", health().Status)
	})
	if tr != nil {
		mux.HandleFunc("/tracez", func(w http.ResponseWriter, req *http.Request) { serveTracez(w, req, tr) })
	}
}

// Handler serves the observability endpoints: the shared routes of
// HandleShared, plus
//
//	GET /ledger    — prediction-quality ledger snapshot (with Config.Ledger)
//	GET /layers    — per-layer predictor lifecycle status: state, serving
//	                 version, drift/retrain/swap counters (with
//	                 Config.Lifecycle)
//	GET /incidents — flight-recorder bundles: summary list, or one full
//	                 bundle with ?id= (with Config.Recorder)
//
// With Config.Profiling set, the standard net/http/pprof handlers are also
// mounted under /debug/pprof/.
func (r *Runtime) Handler() http.Handler {
	mux := http.NewServeMux()
	HandleShared(mux, r.metrics, r.health, r.cfg.Tracer)
	if r.cfg.Ledger != nil {
		mux.HandleFunc("/ledger", r.serveLedger)
	}
	if r.cfg.Lifecycle != nil {
		mux.HandleFunc("/layers", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(r.cfg.Lifecycle.States())
		})
	}
	if r.cfg.Recorder != nil {
		mux.HandleFunc("/incidents", func(w http.ResponseWriter, req *http.Request) {
			ServeIncidents(w, req, r.cfg.Recorder.Bundles, r.cfg.Recorder.Bundle)
		})
	}
	if r.cfg.Profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve starts the observability server on addr (e.g. ":9600"; ":0" picks
// a free port). It returns the server and the bound address; shut it down
// with srv.Shutdown or srv.Close.
func (r *Runtime) Serve(addr string) (*http.Server, string, error) {
	return StartServer(addr, r.Handler())
}

// HTTP limits of the observability servers. A client gets readHeaderTimeout
// to send its request headers and idleTimeout between keep-alive requests.
// There is no write timeout: /debug/pprof/profile streams for 30 s.
var readHeaderTimeout = 10 * time.Second

const idleTimeout = 2 * time.Minute

// StartServer serves h on addr (":0" picks a free port) under the HTTP
// limits above. It returns the server and the bound address; shut it down
// with srv.Shutdown or srv.Close.
func StartServer(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
