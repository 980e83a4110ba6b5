package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestReplayWiringMatchesPfmd runs the daemon's own columnar replay on a
// short seeded trace and requires the benchmark's replay-1 wiring to make
// the same number of evaluations, warnings and actions.
func TestReplayWiringMatchesPfmd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/pfmd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pfmd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/pfmd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pfmd: %v\n%s", err, out)
	}
	pfc, err := replayTrace(21, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.cols")
	if err := os.WriteFile(path, pfc, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-replay-columnar", path, "-addr", "127.0.0.1:0")
	var stderr []byte
	cmd.Stdout = nil
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		n, rerr := errPipe.Read(buf)
		stderr = append(stderr, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pfmd: %v\n%s", err, stderr)
	}
	summary := regexp.MustCompile(`msg="pipeline summary".* evaluations=(\d+) warnings=(\d+) actions=(\d+)`).FindSubmatch(stderr)
	if summary == nil {
		t.Fatalf("no pipeline summary in pfmd output:\n%s", stderr)
	}
	daemon := make([]int64, 3)
	for i := range daemon {
		daemon[i], _ = strconv.ParseInt(string(summary[i+1]), 10, 64)
	}

	trace, err := readColumnar(pfc)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	rig, err := newReplayRig(ctx, trace, nil, func() int64 { return int64(time.Since(base)) })
	if err != nil {
		t.Fatal(err)
	}
	rig.allocStamps()
	p, err := rig.run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bench := []int64{p.Counts.Evaluations, p.Counts.Warnings, p.Counts.Actions}
	for i, name := range []string{"evaluations", "warnings", "actions"} {
		if bench[i] != daemon[i] {
			t.Errorf("%s: benchmark wiring %d, pfmd %d", name, bench[i], daemon[i])
		}
	}
	t.Logf("pfmd and the benchmark wiring: evaluations/warnings/actions %v", daemon)
	if daemon[1] == 0 {
		t.Error("the parity trace must raise warnings, or the check covers evaluations only")
	}
}
