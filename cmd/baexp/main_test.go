package main

import (
	"bytes"
	"strings"
	"testing"
)

func exp(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestOnlyIsCaseInsensitive: -only resolves ids against the list
// experiments.All walks, in any case, and prints that one table.
func TestOnlyIsCaseInsensitive(t *testing.T) {
	code, upper, stderr := exp(t, "-only", "E1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(upper, "E1 — ") || strings.Contains(upper, "\nE2 — ") {
		t.Fatalf("-only E1 printed:\n%s", upper)
	}
	if _, lower, _ := exp(t, "-only", "e1"); lower != upper {
		t.Fatalf("-only e1 differs from -only E1:\n%s\nvs\n%s", lower, upper)
	}
	_, csv, _ := exp(t, "-only", "E1", "-format", "csv")
	if !strings.HasPrefix(csv, "# E1: ") {
		t.Fatalf("-format csv printed:\n%s", csv)
	}
}

func TestUnknownOnlyIsUsageError(t *testing.T) {
	for _, id := range []string{"E15", "E0", "zz", "E01"} {
		code, stdout, stderr := exp(t, "-only", id)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "unknown experiment") {
			t.Errorf("-only %s: exit %d stdout %q stderr %q, want exit 2 and no table", id, code, stdout, stderr)
		}
	}
}
