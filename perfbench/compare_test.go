package main

import (
	"strings"
	"testing"
)

func TestCompareAcrossHostsIsAMismatchNeverAPass(t *testing.T) {
	h := host{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Revision: "a"}
	old := record{Workload: "replay-1", Host: h, Metrics: map[string]float64{"events_per_s": 100}}
	cur := old
	cur.Host.Revision = "b"
	bounds := map[string]float64{"events_per_s": 0.1}
	if lines, ok := compareRecords(old, cur, bounds); !ok {
		t.Fatalf("same host, same numbers should pass: %v", lines)
	}
	for _, mutate := range []func(*host){
		func(h *host) { h.CPUModel = "cpu B" },
		func(h *host) { h.NProc = 8 },
		func(h *host) { h.GOMAXPROCS = 1 },
		func(h *host) { h.GoVersion = "go1.25.0" },
		func(h *host) { h.GOARCH = "arm64" },
	} {
		other := cur
		mutate(&other.Host)
		lines, ok := compareRecords(old, other, bounds)
		if ok || len(lines) != 1 || !strings.Contains(lines[0], "host mismatch") {
			t.Errorf("cross-host comparison gave ok=%v %v", ok, lines)
		}
	}
}

func TestCompareFlagsRegressionPastBound(t *testing.T) {
	h := host{CPUModel: "cpu", NProc: 2}
	old := record{Workload: "w", Host: h, Metrics: map[string]float64{"events_per_s": 100, "setup_s": 1}}
	cur := record{Workload: "w", Host: h, Metrics: map[string]float64{"events_per_s": 85, "setup_s": 1.05}}
	bounds := map[string]float64{"events_per_s": 0.1, "setup_s": 0.25}
	lines, ok := compareRecords(old, cur, bounds)
	if ok {
		t.Fatalf("a 15%% throughput drop past a 10%% bound must fail: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "events_per_s") || strings.Count(joined, "REGRESSION") != 1 {
		t.Errorf("verdicts:\n%s", joined)
	}
}
