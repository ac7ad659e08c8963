package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// startServe runs baserve's run() in a goroutine with stdout/stderr
// captured in temp files and returns the exit-code channel plus the output
// paths. Callers drain the server by sending SIGINT to the test process —
// run() installs the same NotifyContext the real binary uses, so this
// exercises the production drain path.
func startServe(t *testing.T, args []string) (done <-chan int, stdoutPath, stderrPath string) {
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
	ch := make(chan int, 1)
	go func() {
		code := run(args, outF, errF)
		_ = outF.Close()
		_ = errF.Close()
		ch <- code
	}()
	return ch, outF.Name(), errF.Name()
}

// waitForBanner waits until the server writing to path has printed its whole
// banner and returns it as cli parsed it — the banner's format has one owner.
func waitForBanner(t *testing.T, path string) cli.Started {
	t.Helper()
	b, err := cli.AwaitBanner(path, 10*time.Second)
	if err != nil {
		out, _ := os.ReadFile(path)
		t.Fatalf("%v:\n%s", err, out)
	}
	return b
}

// TestServeOpsPlaneEndToEnd is the ops-plane acceptance in one process:
// baserve with -metrics-addr and a spooled -trace, real submissions over
// the wire, a typed stats reply, a live /metrics scrape whose counters
// match, then a SIGINT drain that leaves a parseable JSONL trace on disk.
func TestServeOpsPlaneEndToEnd(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	done, stdoutPath, stderrPath := startServe(t, []string{
		"-protocol", "alg1-multi", "-t", "3",
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-batch", "4", "-shards", "2",
		"-trace", tracePath, "-trace-ring", "8",
	})
	banner := waitForBanner(t, stdoutPath)
	metricsAddr, addr := banner.MetricsAddr, banner.Addr

	cl, err := service.DialClient(addr)
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

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
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

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			errOut, _ := os.ReadFile(stderrPath)
			t.Fatalf("exit %d\nstderr:\n%s", code, errOut)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain after SIGINT")
	}

	out, _ := os.ReadFile(stdoutPath)
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
