// Quickstart: reach Byzantine Agreement among 7 processors, 2 of which are
// Byzantine, using Algorithm 5 (the paper's O(n+t²)-message algorithm).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"byzex/internal/adversary"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg5"
)

func main() {
	const (
		n = 7 // processors
		t = 2 // tolerated faults
	)

	// The transmitter (processor 0) wants everybody to agree on value 1,
	// while two faulty processors try to interfere. Here they never send:
	// the "silent" omission fault, a fault-plan crash of the last t
	// processors at phase 1. For Byzantine ones, set Adversary to
	// adversary.SplitBrain or adversary.Garbage instead.
	silent, _ := cli.Omission("silent", adversary.LastNonTransmitter(n, t, 0), faultnet.Spec{})
	res, decision, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg5.Protocol{S: t},
		N:        n,
		T:        t,
		Value:    ident.V1,
		Faults:   faultnet.MustCompile(silent, 42),
		Seed:     42,
	})
	if err != nil {
		log.Fatalf("agreement failed: %v", err)
	}

	fmt.Printf("all %d correct processors decided: %v\n", n-res.Faulty.Len(), decision)
	fmt.Printf("faulty processors: %v\n", res.Faulty.Sorted())
	fmt.Printf("cost: %s\n", res.Sim.Report.String())
	fmt.Printf("paper bound (Theorem 7): O(n + t²) messages — closed form here: %d\n",
		core.Alg5MsgUpperBound(n, t, t))
}
