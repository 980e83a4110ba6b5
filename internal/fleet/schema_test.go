package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/act"
	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/runtime"
)

var updateSchema = flag.Bool("update-schema", false, "rewrite testdata/schema/*.golden from the current planes")

// schemaRoutes are the paths probed for each plane's route set: a path is
// served when it answers anything but 404 (admin routes answer a GET with
// 405). /debug/pprof/profile is left out because it streams for 30 s.
var schemaRoutes = []string{
	"/metrics", "/healthz", "/readyz", "/livez", "/tracez", "/ledger",
	"/layers", "/incidents", "/fleet", "/fleet/tenants", "/fleet/tenants/x",
	"/fleet/resize", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol",
}

// httpSchema renders the observable schema of one HTTP plane as sorted
// lines: the route set, every /metrics family with its type, label keys
// and series count (label values are left out, so build revisions and
// timings cannot move it), and the JSON keys of /healthz and
// /tracez?format=json.
func httpSchema(t *testing.T, h http.Handler) []string {
	t.Helper()
	get := func(path string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.Bytes()
	}
	var out []string
	for _, p := range schemaRoutes {
		if code, _ := get(p); code != http.StatusNotFound {
			out = append(out, "route "+p)
		}
	}

	_, body := get("/metrics")
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	series := map[string]int{}
	family := func(name string) string {
		if _, ok := types[name]; ok {
			return name
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fam := family(name)
		series[fam]++
		if labels[fam] == nil {
			labels[fam] = map[string]bool{}
		}
		if strings.HasPrefix(rest, "{") {
			inner := rest[1:strings.LastIndex(rest, "}")]
			for _, kv := range splitLabels(inner) {
				labels[fam][kv[:strings.Index(kv, "=")]] = true
			}
		}
	}
	for fam, n := range series {
		keys := make([]string, 0, len(labels[fam]))
		for k := range labels[fam] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		typ := types[fam]
		if typ == "" {
			typ = "untyped"
		}
		out = append(out, fmt.Sprintf("metric %s %s labels=%s series=%d", fam, typ, strings.Join(keys, ","), n))
	}

	for _, p := range []string{"/healthz", "/tracez?format=json"} {
		_, body := get(p)
		var obj map[string]any
		var arr []map[string]any
		switch {
		case json.Unmarshal(body, &obj) == nil:
		case json.Unmarshal(body, &arr) == nil && len(arr) > 0:
			obj = arr[0]
		}
		for k := range obj {
			out = append(out, fmt.Sprintf("json %s %s", strings.SplitN(p, "?", 2)[0], k))
		}
	}
	sort.Strings(out)
	return out
}

// splitLabels splits a label list at the commas between quoted values.
func splitLabels(s string) []string {
	var out []string
	quoted, start := false, 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\':
			i++
		case s[i] == '"':
			quoted = !quoted
		case s[i] == ',' && !quoted:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// checkSchemaGolden compares a plane's schema with its golden file.
func checkSchemaGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", "schema", name+".golden")
	text := strings.Join(got, "\n") + "\n"
	if *updateSchema {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-schema)", err)
	}
	if string(want) == text {
		return
	}
	have := map[string]bool{}
	for _, l := range got {
		have[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		wantSet[l] = true
		if !have[l] {
			t.Errorf("%s plane lost %q", name, l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("%s plane gained %q (add it with -update-schema)", name, l)
		}
	}
}

// TestHTTPSchemaGolden pins the route set, metric families and JSON keys
// of the single-tenant and fleet HTTP planes, with every optional
// observer enabled, so a refactor of the serving stack cannot quietly
// drop a route, a series or a key.
func TestHTTPSchemaGolden(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		checkSchemaGolden(t, "runtime", httpSchema(t, schemaRuntime(t)))
	})
	t.Run("fleet", func(t *testing.T) {
		checkSchemaGolden(t, "fleet", httpSchema(t, schemaFleet(t)))
	})
}

// schemaRuntime runs a two-shard, two-layer runtime with tracer, ledger,
// lifecycle, recorder and profiling through one applied event and one
// cycle, and returns its handler.
func schemaRuntime(t *testing.T) http.Handler {
	var level atomic.Uint64
	layers := []*core.Layer{
		{Name: "level", Threshold: 0.5, Evaluate: func(float64) (float64, error) {
			return math.Float64frombits(level.Load()), nil
		}},
		{Name: "quiet", Threshold: 0.5, Evaluate: func(float64) (float64, error) { return 0, nil }},
	}
	action, err := act.New("noop", act.PreparedRepair, act.Params{Cost: 1, SuccessProb: 1, Complexity: 1},
		func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	sel, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.New(nil, layers, nil, sel, []*act.Action{action}, nil,
		core.Config{EvalInterval: 1, LeadTime: 5, WarnThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	led, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 5}, "level", "quiet")
	if err != nil {
		t.Fatal(err)
	}
	lcm, err := lifecycle.NewManager(layers, led, lifecycle.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(16)
	tracer.SetSampleInterval(1)
	rec, err := obs.NewRecorder(obs.RecorderConfig{Layers: []string{"level", "quiet"}, Tracer: tracer, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	rt, err := runtime.New(runtime.Config{
		Engine: engine,
		Apply: func(ev runtime.Event) error {
			level.Store(math.Float64bits(ev.Value))
			return nil
		},
		Clock:     func() float64 { return float64(clock.Load()) },
		Shards:    2,
		Workers:   1,
		Profiling: true,
		Tracer:    tracer,
		Ledger:    led,
		Lifecycle: lcm,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Stop(ctx) })
	if err := rt.Ingest(ctx, runtime.Event{Kind: runtime.KindSample, Time: 1, Variable: "load", Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Store(10)
	rt.CycleBatch([]float64{10})
	return rt.Handler()
}

// schemaFleet runs a three-tenant, two-shard fleet with tracer, ledger
// and recorder through one applied event per tenant and one cycle, and
// returns its handler.
func schemaFleet(t *testing.T) http.Handler {
	clock := newTestClock(0)
	led, err := obs.NewScopedLedger(obs.LedgerConfig{LeadTime: 300}, 2, "load")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewScopedRecorder(obs.RecorderConfig{Layers: []string{"load"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(16)
	tracer.SetSampleInterval(1)
	cfg := testFleetConfig(specs("a", "b", "c"), clock)
	cfg.Shards = 2
	cfg.Workers = 1
	cfg.Ledger = led
	cfg.JournalLayers = true
	cfg.Recorder = rec
	cfg.Tracer = tracer
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Stop(ctx) })
	for _, id := range []string{"a", "b", "c"} {
		if err := f.Ingest(ctx, sample(id, 1, 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Set(10)
	f.EvaluateCycle()
	return f.Handler()
}
