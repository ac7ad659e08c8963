package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for a few rounds at reduced size, untraced
// and traced, and checks the shape of what they print: every contract metric
// present, finite, well named and carrying its unit, nothing failed. It makes
// no timing assertion.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		for _, name := range workloadNames() {
			name, traced := name, traced
			label := name
			if traced {
				label += "/trace"
			}
			t.Run(label, func(t *testing.T) {
				opt := options{seed: 3, seconds: 1, trace: traced, small: true, scratch: t.TempDir()}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				res, err := runners[name](ctx, opt)
				if err != nil {
					t.Fatal(err)
				}
				var stdout, stderr bytes.Buffer
				if code := report(res, opt, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, contract lists %d", len(out.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, contract says %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(res.spanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver reads,
// equal to what spec.go generates, and inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	if err := theSpec().validate(); err != nil {
		t.Fatalf("spec breaks the contract's limits: %v", err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit is 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	var round benchmarkSpec
	if err := json.Unmarshal(got, &round); err != nil {
		t.Fatal(err)
	}
	if err := round.validate(); err != nil {
		t.Errorf("BENCHMARK.json on disk: %v", err)
	}
}

func TestBestRounds(t *testing.T) {
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if got := bestRounds(xs, true, 0).best; got != 28 {
		t.Errorf("30 rounds, higher better: got %v, want the 3rd best (28)", got)
	}
	if got := bestRounds(xs, false, 0).best; got != 3 {
		t.Errorf("30 rounds, lower better: got %v, want the 3rd best (3)", got)
	}
	for i := 31; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := bestRounds(xs, true, 0).best; got != 998 {
		t.Errorf("1000 rounds: got %v, want the 3rd best (998)", got)
	}
	if got := bestRounds([]float64{5}, true, 0).best; got != 5 {
		t.Errorf("one round: got %v", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{ID: 1, StartNs: 0, EndNs: 100}
	kids := []span{{StartNs: 10, EndNs: 40}, {StartNs: 30, EndNs: 60}, {StartNs: 90, EndNs: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %v, want 60 (10..60 once, 90..100 clipped)", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks s against the limits the driver enforces before a single
// run, so a spec edit that would be refused fails the smoke test first.
func (s benchmarkSpec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	haveSetup := false
	for _, m := range s.EndToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			haveSetup = true
		}
	}
	if !haveSetup {
		return fmt.Errorf("no setup_s metric in s, lower")
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	return nil
}
