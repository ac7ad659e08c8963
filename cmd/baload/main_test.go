package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs baload's run() with stdout/stderr redirected to temp files
// (run takes *os.File, matching main's os.Stdout/os.Stderr) and returns the
// exit code plus both outputs.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	_ = outF.Close()
	_ = errF.Close()
	outB, _ := os.ReadFile(outF.Name())
	errB, _ := os.ReadFile(errF.Name())
	return code, string(outB), string(errB)
}

// TestSelfhostShardedVerify is the end-to-end exercise of the sharded
// serving path in one process: baload starts its own server with 4 shards
// and batches of up to 8, drives a closed loop against it over real loopback
// TCP, then re-executes every observed instance serially and compares —
// the seed = base + id replay contract surviving shards and batching.
func TestSelfhostShardedVerify(t *testing.T) {
	code, stdout, stderr := capture(t, []string{
		"-selfhost", "-protocol", "alg1-multi", "-t", "3",
		"-shards", "4", "-batch", "8",
		"-c", "8", "-requests", "4", "-mod", "64",
		"-verify", "-seed", "5",
	})
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "selfhost:") {
		t.Fatalf("no selfhost banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "instances match serial core.Run exactly") {
		t.Fatalf("verification did not run:\n%s", stdout)
	}
	if !strings.Contains(stdout, "shards=4") {
		t.Fatalf("shard count not surfaced:\n%s", stdout)
	}
}

// TestSelfhostFaultPlan drives the self-hosted server with an in-budget
// fault plan: instances must still decide and verify serially (the plan is
// part of the template on both sides).
func TestSelfhostFaultPlan(t *testing.T) {
	code, stdout, stderr := capture(t, []string{
		"-selfhost", "-protocol", "alg1", "-t", "3",
		"-faults", "crash=6@3", "-shards", "2",
		"-c", "4", "-requests", "2",
		"-seed", "11",
	})
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "amortized:") {
		t.Fatalf("no load summary:\n%s", stdout)
	}
}

// TestSelfhostDrainFailureSetsExitCode: a drain that fails is baload's
// failure too, as it is baserve's — here a trace that cannot be written.
func TestSelfhostDrainFailureSetsExitCode(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the spool's writes")
	}
	code, stdout, stderr := capture(t, []string{
		"-selfhost", "-protocol", "alg1", "-t", "1", "-c", "2", "-requests", "2", "-trace", "/dev/full",
	})
	if code != 1 || !strings.Contains(stderr, "/dev/full") {
		t.Fatalf("exit %d, want 1 naming the trace file\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "submitted: 4 ok") {
		t.Fatalf("the load itself should have run:\n%s", stdout)
	}
}

// TestUsageGolden pins the flag surface: `baload -h` prints
// testdata/usage.txt byte for byte, so adding or removing a flag is a
// visible diff. Regenerate it only for a change meant to move the surface:
// `go build -o /tmp/baload ./cmd/baload && /tmp/baload -h 2> cmd/baload/testdata/usage.txt`.
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, got := capture(t, []string{"-h"}); code != 2 || got != string(want) {
		t.Fatalf("baload -h: exit %d, usage differs from testdata/usage.txt:\n%s", code, got)
	}
}

// TestBadFlags pins the typed failure paths.
func TestBadFlags(t *testing.T) {
	if code, _, _ := capture(t, []string{"-protocol", "no-such", "-selfhost"}); code == 0 {
		t.Fatal("unknown protocol accepted")
	}
	if code, _, _ := capture(t, []string{"-faults", "bogus", "-selfhost"}); code == 0 {
		t.Fatal("bad fault spec accepted")
	}
}

// TestOpenLoopSelfhost drives the open loop end to end in one process:
// Poisson arrivals against a self-hosted server, a generous SLO gate that
// must pass, and a metrics endpoint scrapable mid-run semantics (the
// exporter is exercised directly in internal/obs; here we pin the flag
// wiring and the banner).
func TestOpenLoopSelfhost(t *testing.T) {
	code, stdout, stderr := capture(t, []string{
		"-selfhost", "-protocol", "alg1-multi", "-t", "3",
		"-shards", "4", "-batch", "8",
		"-c", "8", "-mod", "64",
		"-rate", "300", "-duration", "500ms", "-seed", "9",
		"-slo-p99", "5s",
		"-verify",
	})
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "offered:") {
		t.Fatalf("no open-loop banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "slo: ok") {
		t.Fatalf("SLO gate did not report:\n%s", stdout)
	}
	if !strings.Contains(stdout, "instances match serial core.Run exactly") {
		t.Fatalf("verification did not run:\n%s", stdout)
	}
}

// TestSLOGateFails pins the gate's contract: an unmeetable bound exits
// non-zero and says why on stderr.
func TestSLOGateFails(t *testing.T) {
	code, stdout, stderr := capture(t, []string{
		"-selfhost", "-protocol", "alg1", "-t", "2",
		"-c", "2",
		"-rate", "200", "-duration", "300ms", "-seed", "3",
		"-slo-p99", "1ns",
	})
	if code == 0 {
		t.Fatalf("impossible SLO passed\nstdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "slo: FAIL") {
		t.Fatalf("no SLO failure report:\n%s", stderr)
	}
}

// TestSLORequiresOpenLoop pins the flag-surface guard: -slo-p99 without
// -rate is a usage error (closed-loop latency cannot gate an SLO).
func TestSLORequiresOpenLoop(t *testing.T) {
	code, _, stderr := capture(t, []string{"-selfhost", "-slo-p99", "10ms"})
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "-slo-p99 requires the open loop") {
		t.Fatalf("no usage message:\n%s", stderr)
	}
}
