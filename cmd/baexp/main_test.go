package main

import (
	"bytes"
	"fmt"
	"os"
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

// TestTablesGolden pins the whole evaluation, text and CSV, byte for byte
// against testdata/tables.{txt,csv}: a refactor that moves one cell of one
// table fails here. Regenerate the files only for a change that means to
// move a number: `go run ./cmd/baexp > cmd/baexp/testdata/tables.txt` and
// the same with `-format csv`.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole evaluation takes seconds; skipped in -short mode")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/tables.txt", nil},
		{"testdata/tables.csv", []string{"-format", "csv"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		code, got, stderr := exp(t, tc.args...)
		if code != 0 {
			t.Fatalf("baexp %v: exit %d: %s", tc.args, code, stderr)
		}
		if got != string(want) {
			t.Errorf("baexp %v differs from %s:\n%s", tc.args, tc.golden, firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}

func TestUnknownOnlyIsUsageError(t *testing.T) {
	for _, id := range []string{"E15", "E0", "zz", "E01"} {
		code, stdout, stderr := exp(t, "-only", id)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "unknown experiment") {
			t.Errorf("-only %s: exit %d stdout %q stderr %q, want exit 2 and no table", id, code, stdout, stderr)
		}
	}
}
