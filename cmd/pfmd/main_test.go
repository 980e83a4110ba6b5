package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/runtime"
)

// columnarTrace writes a six-hour PFC1 trace: SAR samples every minute,
// a CPU ramp past the load layer's warning level in the fourth hour with
// errors around it, and one failure after the ramp.
func columnarTrace(t *testing.T) string {
	t.Helper()
	b := runtime.NewColumnarBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for ts := 60.0; ts <= 6*3600; ts += 60 {
		cpu := 0.4
		if ts > 3*3600 && ts < 4*3600 {
			cpu = 0.95
			must(b.AddError(eventlog.Event{Time: ts, Component: "db", Type: 4, Severity: eventlog.SeverityError, Message: "timeout"}))
		}
		must(b.AddSample(ts, "cpu", cpu))
		must(b.AddSample(ts, "mem_free", 4096))
		must(b.AddSample(ts, "swap", 0))
		if ts == 4*3600 {
			must(b.AddFailure(ts))
		}
	}
	path := filepath.Join(t.TempDir(), "trace.cols")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := b.Trace().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunModes runs each pfmd mode at tiny size and checks that it exits
// cleanly with its summary line.
func TestRunModes(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		summary string // regexp over the log
	}{
		{"live", []string{"-days", "0.05", "-compress", "14400", "-eval", "50ms"},
			`msg="pipeline summary" ingested=[1-9]\d* applied=[1-9]\d* dropped=0 evaluations=[1-9]`},
		{"columnar", []string{"-replay-columnar", columnarTrace(t), "-replay-eval", "300", "-trace-dump", "2"},
			`msg="pipeline summary" ingested=1139 applied=1139 dropped=0 evaluations=72 warnings=11 actions=10`},
		{"fleet", []string{"-fleet", "-tenants", "3", "-days", "0.05", "-compress", "14400", "-eval", "50ms"},
			`msg="fleet summary" tenants=3 cycles=[1-9]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			if err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			if !regexp.MustCompile(tc.summary).MatchString(stderr.String()) {
				t.Fatalf("no line matching %q in the log:\n%s", tc.summary, stderr.String())
			}
			if tc.name == "columnar" && !strings.Contains(stdout.String(), "slowest 2 end-to-end traces") {
				t.Errorf("no -trace-dump table on stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRunRejectsUnusedFlags pins that a flag the chosen mode would
// silently ignore is an error naming the flag and the mode.
func TestRunRejectsUnusedFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "-pprof"}, "-pprof is not used in -fleet mode"},
		{[]string{"-fleet", "-trace-dump", "3"}, "-trace-dump is not used in -fleet mode"},
		{[]string{"-fleet", "-batch", "8"}, "-batch is not used in -fleet mode"},
		{[]string{"-fleet", "-meta-weights", "1,1,1,1"}, "-meta-weights is not used in -fleet mode"},
		{[]string{"-fleet", "-hotswap"}, "-hotswap is not used in -fleet mode"},
		{[]string{"-fleet", "-drift-cooldown", "5"}, "-drift-cooldown is not used in -fleet mode"},
		{[]string{"-fleet", "-incident-dir", "x"}, "-incident-dir is not used in -fleet mode"},
		{[]string{"-fleet", "-replay-eval", "60"}, "-replay-eval is not used in -fleet mode"},
		{[]string{"-replay-columnar", "x", "-seed", "3"}, "-seed is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-days", "2"}, "-days is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-compress", "60"}, "-compress is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-eval", "1s"}, "-eval is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-hotswap"}, "-hotswap is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-drift-warmup", "9"}, "-drift-warmup is not used in -replay-columnar mode"},
		{[]string{"-replay-columnar", "x", "-tenants", "3"}, "-tenants is not used in -replay-columnar mode"},
		{[]string{"-listen", "127.0.0.1:0"}, "-listen is not used in live mode"},
		{[]string{"-act-budget", "2"}, "-act-budget is not used in live mode"},
		{[]string{"-replay-eval", "60"}, "-replay-eval is not used in live mode"},
		{[]string{"-fleet", "-replay-columnar", "x"}, "-fleet and -replay-columnar select different modes"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
