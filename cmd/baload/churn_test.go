package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/journal"
	"byzex/internal/trace"
)

// TestMain lets the test binary act as the churn drill's server child, as
// main does: a process cli.Fork started serves — its argv is the serving
// flags, which nothing has parsed yet — instead of running the tests.
func TestMain(m *testing.M) {
	cli.ServeForked("baload")
	os.Exit(m.Run())
}

// TestChurnDrill runs the full -churn mode in miniature: two SIGKILL/restart
// cycles over one journal directory plus the final clean drain, with the
// test binary acting as its own server child. It pins the drill's contract:
// exit 0, one benchmark-format recovery line per restart (the `go test
// -bench` shape, `name iters value unit...`), every restart's replay
// count within the checkpoint-budget bound, and a journal left fully
// checkpointed — a third boot would replay nothing. The child takes the
// whole serving surface: -trace leaves the final generation's JSONL, whose
// replay events are the ones its banner counted, and -metrics-addr brings
// its endpoint up (a child that could not bind it would never print the
// banner the parent waits for).
func TestChurnDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("churn drill forks the test binary")
	}
	journalDir := filepath.Join(t.TempDir(), "journal")
	tracePath := filepath.Join(t.TempDir(), "final.jsonl")
	code, stdout, stderr := capture(t, []string{
		"-churn", "2", "-churn-acks", "16", "-c", "4",
		"-protocol", "alg1", "-t", "1", "-seed", "7", "-shards", "2",
		"-journal-dir", journalDir, "-fsync", "always", "-checkpoint-every", "8",
		"-trace", tracePath, "-metrics-addr", "127.0.0.1:0",
	})
	if code != 0 {
		t.Fatalf("churn drill exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	benchLine := regexp.MustCompile(`(?m)^BenchmarkChurnRecovery/cycle=(\d+) \t1\t(\d+) ns/op\t(\d+) replayed\t\d+ replayed/s$`)
	lines := benchLine.FindAllStringSubmatch(stdout, -1)
	if len(lines) != 2 {
		t.Fatalf("want 2 recovery benchmark lines, got %d:\n%s", len(lines), stdout)
	}
	// The acceptance bound: a restart replays at most one checkpoint budget
	// plus legal in-flight work (queue + shards*batch + conns); the drill
	// itself gates on this, re-derive it here so a silently-wrong bound in
	// the drill cannot pass the test.
	const bound = 8 + 64 + 2*1 + 4
	for _, m := range lines {
		replayed, _ := strconv.Atoi(m[3])
		if replayed > bound {
			t.Fatalf("cycle %s replayed %d > bound %d", m[1], replayed, bound)
		}
	}
	if !strings.Contains(stdout, "churn: 2 kill/restart cycles") {
		t.Fatalf("summary line missing:\n%s", stdout)
	}

	// The final generation's trace: one replay event per admission its
	// banner said it replayed.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatalf("final generation's trace unreadable: %v", err)
	}
	replays := 0
	for _, e := range events {
		if e.Kind == trace.KindReplay {
			replays++
		}
	}
	if want, _ := strconv.Atoi(lines[1][3]); replays != want {
		t.Fatalf("final trace has %d replay events, its banner said replayed=%d", replays, want)
	}

	// The final generation drained: the journal hands a third boot nothing.
	rec, err := journal.Recover(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || len(rec.Pending) != 0 {
		t.Fatalf("post-drill journal: checkpoint=%v pending=%d", rec.Checkpoint, len(rec.Pending))
	}
}

// TestChurnBoundTakesTheServedBatch: the replay bound counts the largest
// batch the server actually forms — -batch, and 1 when that is below 1.
func TestChurnBoundTakesTheServedBatch(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		batch int
	}{
		{[]string{"-batch", "8"}, 8},
		{[]string{"-batch", "0"}, 1},
	} {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		sf := cli.RegisterServeFlags(fs)
		if err := fs.Parse(append(tc.flags, "-shards", "2", "-queue", "64", "-checkpoint-every", "8")); err != nil {
			t.Fatal(err)
		}
		if got, want := churnBound(sf, 4), 8+64+2*tc.batch+4; got != want {
			t.Errorf("%v: bound %d, want %d", tc.flags, got, want)
		}
	}
}

// TestChurnFlagValidation pins the typed rejections of the drill surface.
func TestChurnFlagValidation(t *testing.T) {
	if code, _, stderr := capture(t, []string{"-churn", "1"}); code != 2 ||
		!strings.Contains(stderr, "-churn requires -journal-dir") {
		t.Fatalf("churn without journal: code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := capture(t, []string{
		"-churn", "1", "-journal-dir", t.TempDir(), "-selfhost",
	}); code != 2 || !strings.Contains(stderr, "-churn is its own drill") {
		t.Fatalf("churn with selfhost: code %d, stderr %q", code, stderr)
	}
}
