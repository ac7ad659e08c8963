package core_test

import (
	"context"
	"fmt"
	"log"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg5"
)

// ExampleRunAndCheck runs the paper's O(n+t²)-message algorithm with a
// silent Byzantine coalition and prints the common decision.
func ExampleRunAndCheck() {
	res, decision, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol:  alg5.Protocol{S: 2},
		N:         25,
		T:         2,
		Value:     ident.V1,
		Adversary: adversary.Silent{},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: %v, faulty: %v\n", decision, res.Faulty.Sorted())
	// Output:
	// decision: v=1, faulty: [p23 p24]
}

// ExampleRun_splitBrain shows condition (i) surviving an equivocating
// transmitter: the correct processors converge even though the faulty
// transmitter shows different values to different halves of the system.
func ExampleRun_splitBrain() {
	res, err := core.Run(context.Background(), core.Config{
		Protocol: alg1.Protocol{},
		N:        9,
		T:        4,
		Value:    ident.V1,
		Adversary: adversary.SplitBrain{
			LowValue: ident.V0, HighValue: ident.V1, SplitAt: 5,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The transmitter is faulty, so the judge owes condition (i) only.
	decision, err := res.Decision(0, ident.V1)
	fmt.Printf("transmitter faulty: %v, agreement error: %v, decision: %v\n", res.Faulty.Has(0), err, decision)
	// Output:
	// transmitter faulty: true, agreement error: <nil>, decision: v=1
}

// ExampleSigLowerBound evaluates Theorem 1's closed form.
func ExampleSigLowerBound() {
	fmt.Println(core.SigLowerBound(100, 9))
	// Output:
	// 250
}
