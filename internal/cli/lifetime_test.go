package cli_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/sim"
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
			chaos, err := cli.Adversary("chaos", p)
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
