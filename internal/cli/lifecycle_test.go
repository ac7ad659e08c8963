package cli_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// start parses args on the serving surface and brings a server up on a
// loopback port; it returns the server and the file its banner was printed to.
func start(t *testing.T, ctx context.Context, args ...string) (*cli.Server, string) {
	t.Helper()
	fs := flag.NewFlagSet("lifecycle", flag.ContinueOnError)
	sf := cli.RegisterServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	tmpl, err := sf.ResolveWarn(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sf.Start(ctx, tmpl, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	srv.Banner(&out, "lifecycle")
	path := filepath.Join(t.TempDir(), "stdout")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return srv, path
}

// submit sends count values over the wire and checks the ids are dense from
// first with seed = template seed + id.
func submit(t *testing.T, addr string, count int, first uint64, seed int64) {
	t.Helper()
	cl, err := service.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	for i := 0; i < count; i++ {
		rep, err := cl.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if want := first + uint64(i); rep.InstanceID != want || rep.Seed != seed+int64(want) {
			t.Fatalf("submit %d: id %d seed %d, want id %d seed %d", i, rep.InstanceID, rep.Seed, want, seed+int64(want))
		}
	}
}

// TestLifecycleRestartContinues drives the whole lifecycle in one process,
// twice over one journal directory: journal + spool + metrics on port 0,
// submissions over the wire, a scrape, a drain; the second generation has
// nothing to replay and continues ids, seeds and the watermark.
func TestLifecycleRestartContinues(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "gen1.jsonl")
	args := []string{
		"-protocol", "alg1", "-t", "1", "-seed", "40", "-shards", "2",
		"-journal-dir", filepath.Join(dir, "journal"), "-fsync", "always",
		"-metrics-addr", "127.0.0.1:0",
	}
	ctx := context.Background()

	srv, outPath := start(t, ctx, append(args[:len(args):len(args)], "-trace", tracePath)...)
	printed, _ := os.ReadFile(outPath)
	out := string(printed)
	// The format the drills and operators' scripts have always matched.
	for _, legacy := range []string{
		`(?m)^journal: \S+ fsync=always watermark=0 replayed=0 recovery=\S+$`,
		`(?m)^metrics: http://[^/\s]+/metrics$`,
		`(?m)^lifecycle: alg1 n=3 t=1 batch=1 shards=2 listening on (\S+)$`,
	} {
		if !regexp.MustCompile(legacy).MatchString(out) {
			t.Fatalf("banner does not match %s:\n%s", legacy, out)
		}
	}
	b, err := cli.AwaitBanner(outPath, 0)
	if err != nil || b != srv.Started || b.Fsync != "always" || b.MetricsAddr == "" || b.Recovery <= 0 {
		t.Fatalf("banner read back as %+v (err %v), server started as %+v:\n%s", b, err, srv.Started, out)
	}
	if err := os.WriteFile(outPath, printed[:len(printed)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AwaitBanner(outPath, 0); err == nil {
		t.Fatal("a banner whose last line is still being written read as complete")
	}

	const gen1 = 5
	submit(t, srv.Addr, gen1, 0, 40)
	resp, err := http.Get("http://" + srv.MetricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"byzex_service_submitted_total 5", "byzex_journal_records_total 5", "byzex_trace_spool_flushed_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	if failures, err := srv.Drain(); failures != 0 || err != nil {
		t.Fatalf("drain: %d checkpoint failures, err %v", failures, err)
	}
	if _, err := service.DialClient(srv.Addr); err == nil {
		t.Fatal("serving listener still open after the drain")
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatalf("spooled trace unreadable: %v", err)
	}
	dones := 0
	for _, e := range events {
		if e.Kind == trace.KindInstanceDone {
			dones++
		}
	}
	if dones != gen1 {
		t.Fatalf("spooled trace has %d instance-done events, want %d", dones, gen1)
	}

	srv2, outPath2 := start(t, ctx, args...)
	if srv2.Replayed != 0 || srv2.Watermark != gen1 || srv2.Spool != nil {
		t.Fatalf("second generation: %+v", srv2.Started)
	}
	if b, err := cli.AwaitBanner(outPath2, 0); err != nil || b != srv2.Started {
		t.Fatalf("second banner read back as %+v (err %v), server started as %+v", b, err, srv2.Started)
	}
	submit(t, srv2.Addr, 3, gen1, 40)
	if failures, err := srv2.Drain(); failures != 0 || err != nil {
		t.Fatalf("second drain: %d checkpoint failures, err %v", failures, err)
	}
	if st := srv2.Service.Stats(); st.Submitted != gen1+3 || st.ValuesDecided != gen1+3 {
		t.Fatalf("counters did not carry across the restart: %+v", st)
	}
}

// TestStartUnderCancelledContext: a start whose context is already done —
// the signal beat the bring-up — still hands back a server that drains
// clean: no goroutine outlives it and the journal directory is free for the
// next generation.
func TestStartUnderCancelledContext(t *testing.T) {
	journalDir := filepath.Join(t.TempDir(), "journal")
	args := []string{
		"-protocol", "alg1", "-t", "1", "-journal-dir", journalDir,
		"-metrics-addr", "127.0.0.1:0", "-trace", filepath.Join(t.TempDir(), "t.jsonl"),
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv, _ := start(t, ctx, args...)
	if failures, err := srv.Drain(); failures != 0 || err != nil {
		t.Fatalf("drain under a cancelled context: %d checkpoint failures, err %v", failures, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the start, %d after the drain:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
	srv2, _ := start(t, context.Background(), args...)
	submit(t, srv2.Addr, 2, 0, 1)
	if _, err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainReportsWhatFailed pins that a drain returns its failures instead
// of printing and forgetting them. The injection is the one
// journal.TestCheckpointFailuresCounted uses: the writer is closed under the
// server, so the drain's final checkpoint is refused and counted. A trace
// file that cannot be written (/dev/full) fails the spool's close.
func TestDrainReportsWhatFailed(t *testing.T) {
	ctx := context.Background()
	srv, _ := start(t, ctx, "-protocol", "alg1", "-t", "1", "-journal-dir", filepath.Join(t.TempDir(), "journal"))
	submit(t, srv.Addr, 1, 0, 1)
	if err := srv.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	failures, err := srv.Drain()
	if failures != 1 || err != nil {
		t.Fatalf("drain over a closed writer: %d checkpoint failures (want 1), err %v", failures, err)
	}
	var warning bytes.Buffer
	cli.CheckpointWarning(&warning, failures)
	if !strings.Contains(warning.String(), "1 checkpoint write(s) failed") {
		t.Fatalf("warning %q", warning.String())
	}
	cli.CheckpointWarning(&warning, 0)
	if strings.Count(warning.String(), "\n") != 1 {
		t.Fatalf("a clean drain warned: %q", warning.String())
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail the spool's writes")
	}
	srv, _ = start(t, ctx, "-protocol", "alg1", "-t", "1", "-trace", "/dev/full")
	submit(t, srv.Addr, 1, 0, 1)
	if _, err := srv.Drain(); err == nil {
		t.Fatal("drain swallowed the spool's failed close")
	}
}

// TestServeArgsForwardsWhatWasSet: the churn child's argv is every serving
// flag the user set — and none of the command's own — and parses back to
// the same values.
func TestServeArgsForwardsWhatWasSet(t *testing.T) {
	fs := flag.NewFlagSet("baload", flag.ContinueOnError)
	cli.RegisterServeFlags(fs)
	fs.Int("c", 16, "")
	fs.String("addr", "", "")
	if err := fs.Parse([]string{
		"-c", "4", "-addr", "x:1", "-trace", "f.jsonl", "-metrics-addr", "127.0.0.1:0",
		"-batch", "4", "-faults", "crash=1@2;drop=0->2@1-3", "-t", "3", "-linger", "2ms",
	}); err != nil {
		t.Fatal(err)
	}
	got := cli.ServeArgs(fs)
	want := []string{
		"-batch=4", "-faults=crash=1@2;drop=0->2@1-3", "-linger=2ms",
		"-metrics-addr=127.0.0.1:0", "-t=3", "-trace=f.jsonl",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarded %q, want %q", got, want)
	}
	child := flag.NewFlagSet("child", flag.ContinueOnError)
	sf := cli.RegisterServeFlags(child)
	if err := child.Parse(got); err != nil {
		t.Fatal(err)
	}
	if *sf.Batch != 4 || sf.Faults != "crash=1@2;drop=0->2@1-3" || *sf.Linger != 2*time.Millisecond ||
		*sf.MetricsAddr != "127.0.0.1:0" || sf.T != 3 || *sf.TracePath != "f.jsonl" {
		t.Fatalf("child parsed %q into %+v", got, sf)
	}
}
