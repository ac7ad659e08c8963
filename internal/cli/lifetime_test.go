package cli_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg4"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// sendLog keeps every envelope an instance sent as the engine handed it to
// the observer, and a deep copy of its payload and signer list.
type sendLog struct {
	sent     []sim.Envelope
	payloads [][]byte
	signers  [][]ident.ProcID
}

func (l *sendLog) OnSend(e sim.Envelope) {
	l.sent = append(l.sent, e)
	l.payloads = append(l.payloads, bytes.Clone(e.Payload))
	l.signers = append(l.signers, slices.Clone(e.Signers))
}

// TestWarmInstancesKeepEarlierMessages pins the slab's lifetime contract on
// the served path: a warm core.Runner keeps its engine, and with it the slab
// every message is carved from, across instances, and a carved block is never
// written again. So what instance k sent — each envelope's payload and signer
// list, as retained by an observer — reads the same after instance k+1 ran on
// the same storage. Every registry row at its canonical size, the second
// instance with the other value and a chaos adversary, so it decodes, rewinds
// and carves along other paths than the first.
func TestWarmInstancesKeepEarlierMessages(t *testing.T) {
	for _, e := range cli.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			p := cli.Params{N: e.N, T: e.T, Seed: 1}
			proto, err := cli.Protocol(e.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := cli.Scheme(e.Scheme, p)
			if err != nil {
				t.Fatal(err)
			}
			chaos, _, err := cli.Adversary("chaos", p, faultnet.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			runner := new(core.Runner)
			var logs []*sendLog
			for k, v := range []ident.Value{ident.V1, ident.V0, ident.V1} {
				log := new(sendLog)
				cfg := core.Config{Protocol: proto, N: e.N, T: e.T, Value: v, Scheme: scheme, Seed: int64(k + 1), Observer: log}
				if k == 1 {
					cfg.Adversary = chaos
				}
				if _, err := runner.Run(context.Background(), cfg); err != nil {
					t.Fatalf("instance %d: %v", k, err)
				}
				logs = append(logs, log)
				for j, prev := range logs[:k] {
					for i, env := range prev.sent {
						if !bytes.Equal(env.Payload, prev.payloads[i]) || !slices.Equal(env.Signers, prev.signers[i]) {
							t.Fatalf("instance %d rewrote envelope %d of instance %d: %v → %x %v, sent %x %v",
								k, i, j, env.From, env.Payload, env.Signers, prev.payloads[i], prev.signers[i])
						}
					}
				}
			}
			if len(logs[0].sent) == 0 {
				t.Fatal("instance 0 sent nothing")
			}
		})
	}
}

// answer is what one node of a finished run answers, deep copied: its
// decision, the proof it holds (alg2.ProofHolder) and the exchange output
// (alg4.Exchanger), each signed value in its wire encoding.
type answer struct {
	value          ident.Value
	decided, proof bool
	held           []byte
	output         [][]byte
}

func answers(nodes []sim.Node) []answer {
	encode := func(n int, enc func(*wire.Writer)) []byte {
		w := wire.WriterOn(make([]byte, 0, n))
		enc(&w)
		return w.Bytes()
	}
	out := make([]answer, len(nodes))
	for i, nd := range nodes {
		a := &out[i]
		a.value, a.decided = nd.Decide()
		if ph, ok := nd.(alg2.ProofHolder); ok {
			var sv sig.SignedValue
			if sv, a.proof = ph.Proof(); a.proof {
				a.held = encode(sv.EncodedLen(), sv.Encode)
			}
		}
		if ex, ok := nd.(alg4.Exchanger); ok {
			for _, sb := range ex.Output() {
				a.output = append(a.output, encode(sb.EncodedLen(), sb.Encode))
			}
		}
	}
	return out
}

// TestColdResultsOutliveLaterRuns pins the lifetime of the blocks a run's
// builder carves its processors' state from: they are that run's, so a cold
// core.Run's Result.Nodes answer the same — Decide, a held proof, an
// exchange's output — after later cold runs of every other row, at every
// contract size, with and without a split-brain transmitter (which builds
// one node past its kind's first block), on the same goroutine.
func TestColdResultsOutliveLaterRuns(t *testing.T) {
	type kept struct {
		name  string
		nodes []sim.Node
		want  []answer
	}
	var earlier []kept
	for _, e := range cli.Registry() {
		for _, p := range contractSizes(t, e) {
			for _, advName := range []string{"none", "split-brain"} {
				p.Seed = 1
				proto, err := cli.Protocol(e.Name, p)
				if err != nil {
					t.Fatal(err)
				}
				scheme, err := cli.Scheme(e.Scheme, p)
				if err != nil {
					t.Fatal(err)
				}
				adv, _, err := cli.Adversary(advName, p, faultnet.Spec{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(context.Background(), core.Config{Protocol: proto, N: p.N, T: p.T, Value: ident.V1, Scheme: scheme, Adversary: adv, Seed: 1})
				if err != nil {
					t.Fatalf("%s n=%d t=%d %s: %v", e.Name, p.N, p.T, advName, err)
				}
				for _, k := range earlier {
					if got := answers(k.nodes); !slices.EqualFunc(got, k.want, sameAnswer) {
						t.Fatalf("after %s n=%d t=%d %s, %s's nodes answer %+v, answered %+v", e.Name, p.N, p.T, advName, k.name, got, k.want)
					}
				}
				if p.N == e.N && p.T == e.T && advName == "none" {
					earlier = append(earlier, kept{e.Name, res.Nodes, answers(res.Nodes)})
				}
			}
		}
	}
	if len(earlier) != len(cli.Registry()) {
		t.Fatalf("kept %d runs, want one per row", len(earlier))
	}
}

func sameAnswer(a, b answer) bool {
	return a.value == b.value && a.decided == b.decided && a.proof == b.proof &&
		bytes.Equal(a.held, b.held) && slices.EqualFunc(a.output, b.output, bytes.Equal)
}
