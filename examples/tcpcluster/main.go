// Tcpcluster: run Byzantine Agreement over a real TCP mesh on localhost —
// every processor is a goroutine with its own listener, frames flow over
// actual sockets, and a split-brain transmitter tries to partition the
// cluster. The same protocol state machines drive both the in-memory
// simulator and this transport.
//
// Run with:
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/transport"
)

func main() {
	const (
		n = 9
		t = 3
	)

	adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: n / 2}

	fmt.Printf("starting %d TCP processors (transmitter is Byzantine and equivocates)...\n", n)
	start := time.Now()
	res, err := transport.RunCluster(context.Background(), core.Config{
		N:              n,
		T:              t,
		Value:          ident.V1,
		Protocol:       dolevstrong.Protocol{},
		Adversary:      adv,
		FaultyOverride: ident.NewSet(0),
		Seed:           17,
	}, transport.Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}

	counts := make(map[ident.Value]int)
	for id, d := range res.Decisions {
		if res.Faulty.Has(id) {
			continue
		}
		if !d.Decided {
			log.Fatalf("p%d undecided", id)
		}
		counts[d.Value]++
	}
	fmt.Printf("correct decisions: %v (in %v)\n", counts, time.Since(start).Round(time.Millisecond))
	fmt.Printf("traffic: %s\n", res.Report.String())
	if len(counts) == 1 {
		fmt.Println("agreement holds despite the equivocating transmitter")
	} else {
		log.Fatal("AGREEMENT VIOLATED")
	}
}
