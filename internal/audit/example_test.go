package audit_test

import (
	"context"
	"fmt"
	"log"

	"byzex/internal/audit"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/strawman"
)

// ExampleReplayAttack mounts Theorem 1's indistinguishability construction
// against a protocol that spends fewer than t+1 signature exchanges per
// processor: the coalition A(p) behaves toward the victim as in the
// value-0 history and toward everyone else as in the value-1 history, and
// Byzantine Agreement breaks.
func ExampleReplayAttack() {
	out, err := audit.ReplayAttack(context.Background(), strawman.Broadcast{}, 9, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coalition size:", out.Faulty.Len())
	fmt.Println("agreement broken:", out.Broke())
	// Output:
	// coalition size: 1
	// agreement broken: true
}

// ExampleStarvationAudit measures Theorem 2's requirement on a correct
// protocol: each starved coalition member still receives at least ⌈1+t/2⌉
// messages from the correct processors.
func ExampleStarvationAudit() {
	audit, err := audit.StarvationAudit(context.Background(),
		alg1.Protocol{}, 9, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bound respected:", audit.Satisfied())
	// Output:
	// bound respected: true
}
