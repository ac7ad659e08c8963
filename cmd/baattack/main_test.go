package main

import (
	"bytes"
	"strings"
	"testing"
)

func attack(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSearchOneProtocol: a single-protocol search prints one signatures row
// and one messages row for it, at the default n = 2t+1, and passes the gate.
func TestSearchOneProtocol(t *testing.T) {
	code, stdout, stderr := attack(t, "-search", "-protocol", "alg1", "-budget", "8", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "alg1 ") {
			rows = append(rows, strings.Join(strings.Fields(line)[:5], " "))
		}
	}
	want := []string{"alg1 agreement sigs 7 3", "alg1 agreement msgs 7 3"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Fatalf("rows %q, want %q\n%s", rows, want, stdout)
	}
}

// TestReplayBreaksStrawman: the scripted Theorem 1 attack reports the
// violation it causes on the strawman and still exits 0 (the demonstration
// succeeded).
func TestReplayBreaksStrawman(t *testing.T) {
	code, stdout, stderr := attack(t, "-protocol", "strawman-broadcast", "-attack", "replay")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "RESULT: Byzantine Agreement violated") {
		t.Fatalf("no violation reported:\n%s", stdout)
	}
}

func TestBadInputExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-attack", "bogus"}, 2, "unknown attack"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-protocol", "bogus"}, 1, "unknown protocol"},
		{[]string{"-search", "-protocol", "bogus", "-budget", "4"}, 1, "unknown protocol"},
	} {
		code, _, stderr := attack(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d stderr %q, want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}
