package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sim"
)

// TestUndecidedIsNotAValue pins the decision rendering both transports share:
// an undecided correct processor must show as "undecided" and break
// "agreement: OK" — the TCP path used to print it as value 0 — while an
// undecided faulty processor is discounted like any other faulty output.
func TestUndecidedIsNotAValue(t *testing.T) {
	dec := map[ident.ProcID]sim.Decision{
		0: {Value: ident.V0, Decided: true},
		1: {Value: ident.V0, Decided: false},
		2: {Value: ident.V1, Decided: false}, // faulty: ignored
	}
	var out bytes.Buffer
	printOutcome(&out, ident.NewSet(2), decisions(dec), "report", ident.V0)
	got := out.String()
	if !strings.Contains(got, "undecided:1") || !strings.Contains(got, "agreement: VIOLATED") {
		t.Fatalf("undecided correct processor hidden:\n%s", got)
	}
}

// TestTransportsPrintTheSameOutcome runs one template on both substrates
// through the command's own entry point: the faulty set, decision table,
// correct-sender counts and agreement verdict must match line for line.
func TestTransportsPrintTheSameOutcome(t *testing.T) {
	outcome := func(transport string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-protocol", "alg1", "-t", "2", "-faults", "crash=1@2;drop=0->2@1-3", "-transport", transport}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", transport, code, stderr.String())
		}
		var keep []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "metrics: "):
				// The signature-cache tally is not recorded over TCP.
				keep = append(keep, line[:strings.Index(line, " sigcache=")])
			case line != "" && !strings.HasPrefix(line, "elapsed: "):
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	mem, tcp := outcome("memory"), outcome("tcp")
	if mem != tcp {
		t.Fatalf("memory printed:\n%s\ntcp printed:\n%s", mem, tcp)
	}
	if !strings.Contains(mem, "agreement: OK") || !strings.Contains(mem, "faulty: [p0 p1]") {
		t.Fatalf("unexpected outcome:\n%s", mem)
	}
}

// TestReadmeExamplesRun keeps README's Examples section honest: every
// `go run ./cmd/basim` line there runs through run() to exit 0 and
// "agreement: OK".
func TestReadmeExamplesRun(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Examples\n")
	section, _, _ = strings.Cut(section, "\n## ")
	const prefix = "go run ./cmd/basim "
	lines := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		lines++
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(strings.TrimPrefix(line, prefix)), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "agreement: OK") {
			t.Errorf("%s: exit %d\n%s%s", line, code, stdout.String(), stderr.String())
		}
	}
	if lines == 0 {
		t.Fatal("README's Examples section has no basim line")
	}
}

// TestDumpNeedsMemoryTransport: only the memory substrate records the
// history -dump writes, so asking for a transcript of a TCP run is refused
// up front as a usage error that names the flag — it used to parse, run and
// silently write nothing.
func TestDumpNeedsMemoryTransport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-protocol", "alg1", "-t", "2", "-transport", "tcp", "-dump", path}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "-dump") || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming -dump before any run", code, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("a transcript file was written")
	}
	// The memory transport still honours it.
	stdout.Reset()
	if code := run([]string{"-protocol", "alg1", "-t", "2", "-dump", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("memory -dump: exit %d: %s", code, stderr.String())
	}
	if _, err := os.Stat(path); err != nil || !strings.Contains(stdout.String(), "transcript: ") {
		t.Fatalf("memory -dump wrote no transcript (%v):\n%s", err, stdout.String())
	}
}
