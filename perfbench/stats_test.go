package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestHighestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},        // too few for any tail
		{20, 50},      // p50 leaves 10
		{99, 75},      // p90 leaves 9
		{100, 90},     // p90 leaves 10
		{999, 90},     // p99 leaves 9
		{1000, 99},    // p99 leaves 10
		{10000, 99.9}, // p99.9 leaves 10
		{3000000, 99.999},
	} {
		got := highestTail(c.n)
		if got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("highestTail(%d) = %g leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestSummarizeCountsAndInfinity(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 1
	}
	xs[7] = math.Inf(1) // a record that never applied
	s := summarize(xs)
	if s.N != 2000 || s.P50 != 1 || s.P99 != 1 || beyond(s.N, 99) < minBeyond {
		t.Fatalf("summary %+v", s)
	}
	if s.TailP != 99 { // p99.9 leaves only 2 samples beyond it
		t.Errorf("tail p%g, want 99", s.TailP)
	}
	// Infinite samples sort last and show in the tail once they are 1%.
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	if s := summarize(xs); !math.IsInf(s.Tail, 1) || !math.IsInf(s.P99, 1) {
		t.Errorf("unapplied records must read as infinite latency: %+v", s)
	}
	if s := summarize(make([]float64, 500)); s.TailP != 90 || beyond(s.N, 99) >= minBeyond {
		t.Errorf("500 samples leave 5 beyond p99, so the tail is p90: %+v", s)
	}
}

func TestQuartileSpreadMatchesPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %g, want %g", got, want)
	}
	// statistics.quantiles([1, 3, 5], n=4) == [1.0, 3.0, 5.0]
	if got := quartileSpread([]float64{5, 1, 3}); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("spread %g, want %g", got, 4.0/3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median %g", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	sp := newSpanRecorder(1)
	parent := sp.newID()
	// Two overlapping children cover [10, 40) of the parent's [0, 100).
	sp.add(0, parent, 0, "child", 10, 30)
	sp.add(0, parent, 0, "child", 20, 40)
	sp.add(parent, 0, 0, "cycle", 0, 100)
	sp.add(0, 0, 0, "x_wait", 0, 5)
	rows := map[string]layerTime{}
	for _, r := range sp.selfTimes() {
		rows[r.Name] = r
	}
	if r := rows["cycle"]; r.TotalNs != 100 || r.SelfNs != 70 || r.Wait {
		t.Errorf("cycle row %+v", r)
	}
	if r := rows["child"]; r.Count != 2 || r.SelfNs != 40 {
		t.Errorf("child row %+v", r)
	}
	if !rows["x_wait"].Wait {
		t.Error("_wait spans are waits")
	}
	if got, _ := sp.selfDurations("cycle"); len(got) != 1 || got[0] != 70 {
		t.Errorf("self durations %v", got)
	}
}
