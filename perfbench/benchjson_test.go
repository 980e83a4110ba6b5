package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesMetricTable keeps BENCHMARK.json and the
// program's metric tables in step.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	rate := strconv.FormatFloat(openRate, 'f', 0, 64)
	if !strings.Contains(spec.Workloads[1].Why, rate) {
		t.Errorf("tcp-1000-open's why must record the fixed rate %s", rate)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", d.Name)
		}
	}
}
