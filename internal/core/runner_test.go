package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/trace"
)

// runnerSequence is a shuffled sequence of configurations over every
// registry row at its canonical size: fault-free, split-brain, a crash=1@2
// plan and a rushing split-brain adversary, each twice with different seeds
// and values, plus alg1 under ed25519. Each row keys its own scheme, which
// all its configurations share: consecutive runs of one row sign through the
// same signers, and the five rows at n=5 change keys at the same N.
func runnerSequence(t *testing.T) []core.Config {
	t.Helper()
	schemes := make(map[string]sig.Scheme)
	var seq []core.Config
	add := func(tp cli.Template, rushing bool) {
		cfg, _, err := tp.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", tp, err)
		}
		key := tp.Protocol + "/" + tp.Scheme
		if s, ok := schemes[key]; ok {
			cfg.Scheme = s
		} else {
			schemes[key] = cfg.Scheme
		}
		cfg.Rushing = rushing
		for i := int64(0); i < 2; i++ {
			c := cfg
			c.Seed += i
			c.Value = ident.Value(i)
			seq = append(seq, c)
		}
	}
	for i, e := range cli.Registry() {
		tp := cli.Template{Protocol: e.Name, Scheme: e.Scheme, N: e.N, T: e.T, Seed: int64(3 + 10*i)}
		for _, v := range []struct {
			adv, faults string
			rushing     bool
		}{{}, {adv: "split-brain"}, {faults: "crash=1@2"}, {adv: "split-brain", rushing: true}} {
			tp.Adversary, tp.Faults = v.adv, v.faults
			add(tp, v.rushing)
		}
	}
	add(cli.Template{Protocol: "alg1", Scheme: "ed25519", N: 5, T: 2, Seed: 3}, false)
	rand.New(rand.NewSource(5)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// TestRunnerMatchesFreshRun is the warm-equals-cold contract: one Runner
// running a shuffled sequence of configurations, N and scheme changing along
// the way, produces for each exactly what a fresh core.Run produces — the
// same decisions, report (cache counters and per-phase counts included),
// faulty set and JSONL trace bytes.
func TestRunnerMatchesFreshRun(t *testing.T) {
	var r core.Runner
	for i, cfg := range runnerSequence(t) {
		var warmTrace, coldTrace trace.Buffer
		warmCfg, coldCfg := cfg, cfg
		warmCfg.Trace, coldCfg.Trace = &warmTrace, &coldTrace
		warm, warmErr := r.Run(bg, warmCfg)
		cold, coldErr := core.Run(bg, coldCfg)
		name := fmt.Sprintf("run %d (%s n=%d adv=%v faults=%v rushing=%v)", i, cfg.Protocol.Name(), cfg.N, cfg.Adversary, cfg.Faults != nil, cfg.Rushing)
		if fmt.Sprint(warmErr) != fmt.Sprint(coldErr) {
			t.Fatalf("%s: warm error %v, cold error %v", name, warmErr, coldErr)
		}
		if coldErr != nil {
			continue
		}
		if !reflect.DeepEqual(warm.Sim.Decisions, cold.Sim.Decisions) {
			t.Errorf("%s: decisions %v, fresh %v", name, warm.Sim.Decisions, cold.Sim.Decisions)
		}
		if !reflect.DeepEqual(warm.Sim.Report, cold.Sim.Report) {
			t.Errorf("%s: report %v, fresh %v", name, warm.Sim.Report, cold.Sim.Report)
		}
		if !reflect.DeepEqual(warm.Faulty, cold.Faulty) || !reflect.DeepEqual(warm.Sim.Faulty, cold.Sim.Faulty) {
			t.Errorf("%s: faulty %v, fresh %v", name, warm.Faulty, cold.Faulty)
		}
		var warmJSON, coldJSON bytes.Buffer
		if err := trace.WriteJSONL(&warmJSON, warmTrace.Events()); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(&coldJSON, coldTrace.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(warmJSON.Bytes(), coldJSON.Bytes()) {
			t.Errorf("%s: trace differs from a fresh run's (%d vs %d bytes)", name, warmJSON.Len(), coldJSON.Len())
		}
	}
}
