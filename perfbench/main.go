// Command pfmbench is the end-to-end benchmark of the PFM serving path.
// Each workload generates its inputs from a seed, drives the system wired
// the way cmd/pfmd wires it, checks the outputs, and prints every metric
// by name and unit; the last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	replay-1        single-tenant PFC1 replay through runtime.Runtime (closed loop)
//	tcp-1000-open   1000 Zipf(1) tenants over two loopback connections (PFW1 + text) at a fixed rate
//	tcp-1000-sat    the same tenants, both connections PFW1, as fast as the sockets accept
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics, a
// self-time table and the tracing overhead, and writes the spans to
// .bench_build/perfbench/spans/. Every run also writes its full result,
// with the host it ran on, to .bench_build/perfbench/results/.
//
// Usage:
//
//	pfmbench --workload replay-1 --seed 1 --seconds 15 --trace 0
//	pfmbench --compare old.json new.json   # per-metric verdict; host mismatch is never a pass
//	pfmbench --spread results/*.json       # quartile spread per workload and metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// outDir holds spans and result files, inside the build directory the
// checkout ignores.
const outDir = ".bench_build/perfbench"

// Fleet workload sizing. openRate is about half the tcp-1000-sat rate on
// a 2-vCPU Intel Xeon host (BENCHMARK.json records it with the workload).
const (
	fleetTenants = 1000
	fleetLapSpan = 1800.0 // simulated seconds per generated lap
	openRate     = 400000.0
	satMaxRate   = 1100000.0 // upper bound used to size the pre-encoded laps
	traceSample  = 256       // traced runs record spans for one record in traceSample
	fleetSetups  = 21
)

type workload struct {
	name string
	why  string
	run  func(ctx context.Context, seed int64, seconds float64, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"replay-1", "closed-loop single-tenant PFC1 replay through runtime.Runtime: mirror appends, the four layer scorers and engine cycles; no TCP, no fleet", runReplay},
	{"tcp-1000-open", fmt.Sprintf("open loop, 1000 Zipf(1) tenants over one PFW1 and one text connection at %.0f records/s: freshness and decision latency under load", openRate), runOpen},
	{"tcp-1000-sat", "1000 tenants, two PFW1 connections sending as fast as TCP accepts: the highest rate without a growing backlog", runSat},
}

// outcome is one workload run's result.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"-"`
	Checks    []string           `json:"checks"`
	Samples   map[string]int     `json:"samples"`
	Notes     []string           `json:"notes"`
	SelfTable []layerTime        `json:"self_table,omitempty"`
	// Bins are the per-second (fleet) or per-pass (replay) figures the
	// reported medians are taken over.
	Bins map[string][]float64 `json:"bins,omitempty"`
}

// record is the full result file: the outcome plus where and how it ran.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	OpenRate float64            `json:"open_rate"`
	Host     host               `json:"host"`
	Time     string             `json:"time"`
	Metrics  map[string]float64 `json:"metrics"`
	Outcome  *outcome           `json:"outcome"`
}

func main() {
	wl := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run [s]")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files (args: old new)")
	spread := flag.Bool("spread", false, "report quartile spreads over result files (args: files)")
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *spread:
		err = runSpread(flag.Args())
	default:
		err = runWorkload(*wl, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfmbench:", err)
		os.Exit(1)
	}
}

func runWorkload(name string, seed int64, seconds float64, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad --seconds %g or --trace %d", seconds, trace)
	}
	h := currentHost()
	fmt.Printf("pfmbench %s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s rev=%s open_rate=%.0f/s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Revision, openRate)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out, err := w.run(ctx, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	kept := make(map[string]float64, len(defs))
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.MaxFloat64 // a record that never applied: infinite latency
		}
		kept[d.Name] = v
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Printf("  %-28s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, k := range sortedKeys(out.Samples) {
		fmt.Printf("  samples %-20s %d\n", k, out.Samples[k])
	}
	out.Notes = append(out.Notes, fmt.Sprintf("peak RSS %.0f MiB", maxRSSMB()))
	for _, n := range out.Notes {
		fmt.Println("  note:", n)
	}
	for _, c := range out.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	if trace == 1 && out.SelfTable != nil {
		fmt.Println()
		writeSelfTable(os.Stdout, out.SelfTable)
	}
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, OpenRate: openRate,
		Host: h, Time: time.Now().UTC().Format(time.RFC3339), Metrics: kept, Outcome: out}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchBounds reads the end-to-end bounds from BENCHMARK.json.
func benchBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, err
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}

// compareRecords renders a verdict per end-to-end metric. Two results
// from different hosts, workloads or trace modes are a mismatch, never a
// pass; ok is false then and whenever a metric regressed past its bound.
func compareRecords(old, cur record, bounds map[string]float64) (lines []string, ok bool) {
	if !old.Host.sameMachine(cur.Host) {
		return []string{fmt.Sprintf("host mismatch: %+v vs %+v — not comparable", old.Host, cur.Host)}, false
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return []string{fmt.Sprintf("workload mismatch: %s/trace%d vs %s/trace%d", old.Workload, old.Trace, cur.Workload, cur.Trace)}, false
	}
	ok = true
	for _, d := range endToEnd {
		a, okA := old.Metrics[d.Name]
		b, okB := cur.Metrics[d.Name]
		if !okA || !okB {
			continue
		}
		change := (b - a) / a
		worse := change
		if d.Better == "higher" {
			worse = -change
		}
		verdict := "ok"
		if bound, has := bounds[d.Name]; has && worse > bound {
			verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", bound*100)
			ok = false
		}
		lines = append(lines, fmt.Sprintf("%-20s %14.6g -> %14.6g %+7.1f%%  %s", d.Name, a, b, change*100, verdict))
	}
	return lines, ok
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare needs two result files")
	}
	old, err := readRecord(args[0])
	if err != nil {
		return err
	}
	cur, err := readRecord(args[1])
	if err != nil {
		return err
	}
	bounds, err := benchBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	lines, ok := compareRecords(old, cur, bounds)
	fmt.Println(strings.Join(lines, "\n"))
	if !ok {
		return fmt.Errorf("comparison failed")
	}
	return nil
}

func runSpread(paths []string) error {
	vals := make(map[string]map[string][]float64)
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("%s/trace%d", r.Workload, r.Trace)
		if vals[key] == nil {
			vals[key] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			vals[key][k] = append(vals[key][k], v)
		}
	}
	for _, key := range sortedKeys(vals) {
		for _, m := range sortedKeys(vals[key]) {
			xs := vals[key][m]
			fmt.Printf("%-24s %-28s n=%2d median=%-14.6g spread=%.4f\n", key, m, len(xs), median(xs), quartileSpread(xs))
		}
	}
	return nil
}
