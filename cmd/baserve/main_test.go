package main

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// TestMain lets the test binary be the drills' forked server: a process
// cli.Fork started serves its argv instead of running the tests.
func TestMain(m *testing.M) {
	cli.ServeForked("baserve")
	os.Exit(m.Run())
}

// fork starts a baserve child (see TestMain), so the drills can signal it as
// an operator would; it returns the child, its banner and the path of its
// output, and kills the child at cleanup.
func fork(t *testing.T, args []string) (*exec.Cmd, cli.Started, string) {
	t.Helper()
	outF, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = outF.Close() }()
	child, banner, err := cli.Fork(args, outF)
	if err != nil {
		out, _ := os.ReadFile(outF.Name())
		t.Fatalf("%v:\n%s", err, out)
	}
	t.Cleanup(func() {
		_ = child.Process.Kill()
		_ = child.Wait()
	})
	return child, banner, outF.Name()
}

// TestServeOpsPlaneEndToEnd is the ops-plane acceptance: baserve with
// -metrics-addr and a spooled -trace, real submissions over the wire, a
// typed stats reply, a live /metrics scrape whose counters match, then a
// SIGINT drain that leaves a parseable JSONL trace on disk.
func TestServeOpsPlaneEndToEnd(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	child, banner, outPath := fork(t, []string{
		"-protocol", "alg1-multi", "-t", "3",
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-batch", "4", "-shards", "2",
		"-trace", tracePath, "-trace-ring", "8",
	})

	cl, err := service.DialClient(banner.Addr)
	if err != nil {
		t.Fatal(err)
	}
	const values = 12
	for i := 0; i < values; i++ {
		if _, err := cl.Submit(ident.Value(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != values || st.ValuesDecided != values {
		t.Fatalf("typed wire stats: %+v", st)
	}

	resp, err := http.Get("http://" + banner.MetricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	for _, want := range []string{
		"byzex_service_submitted_total 12",
		"byzex_service_values_decided_total 12",
		`byzex_trace_events_total{kind="instance-done"}`,
		"byzex_trace_spool_dropped_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("scrape missing %q:\n%s", want, exposition)
		}
	}
	_ = cl.Close()

	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	out, _ := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("drain: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "drained after") || !strings.Contains(string(out), "trace: "+tracePath) {
		t.Fatalf("drain summary missing:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("spooled trace unreadable: %v", err)
	}
	var dones int
	for _, e := range events {
		if e.Kind == trace.KindInstanceDone {
			dones++
		}
	}
	if dones == 0 {
		t.Fatalf("spooled trace has no instance-done events (%d events)", len(events))
	}
}

// TestUsageGolden pins the flag surface: `baserve -h` prints
// testdata/usage.txt byte for byte, so adding or removing a flag is a
// visible diff. Regenerate it only for a change meant to move the surface:
// `go build -o /tmp/baserve ./cmd/baserve && /tmp/baserve -h 2> cmd/baserve/testdata/usage.txt`.
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	outF, _ := os.Create(filepath.Join(dir, "o"))
	errF, _ := os.Create(filepath.Join(dir, "e"))
	code := run([]string{"-h"}, outF, errF)
	_ = outF.Close()
	_ = errF.Close()
	if got, _ := os.ReadFile(errF.Name()); code != 2 || string(got) != string(want) {
		t.Fatalf("baserve -h: exit %d, usage differs from testdata/usage.txt:\n%s", code, got)
	}
}

// TestServeBadFlags pins the typed failure paths of the shared surface.
func TestServeBadFlags(t *testing.T) {
	dir := t.TempDir()
	outF, _ := os.Create(filepath.Join(dir, "o"))
	errF, _ := os.Create(filepath.Join(dir, "e"))
	defer func() { _ = outF.Close(); _ = errF.Close() }()
	if code := run([]string{"-wire-version", "1"}, outF, errF); code == 0 {
		t.Fatal("-wire-version without -transport tcp accepted")
	}
	if code := run([]string{"-protocol", "no-such"}, outF, errF); code == 0 {
		t.Fatal("unknown protocol accepted")
	}
}
