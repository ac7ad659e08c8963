// Auditproof: Algorithm 2's distinguishing feature is that after 3t+3
// phases every correct processor holds a *one-message proof for the outside
// world* — the agreed value carrying at least t signatures of other
// processors. An external auditor who trusts the signature scheme (but none
// of the processors individually) can verify the outcome from any single
// correct processor's proof, and no coalition of faulty processors can
// fabricate a proof for a different value.
//
// Run with:
//
//	go run ./examples/auditproof
package main

import (
	"context"
	"fmt"
	"log"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg2"
	"byzex/internal/sig"
)

func main() {
	const t = 3
	const n = 2*t + 1

	// Real public-key signatures: the auditor only needs the public keys.
	scheme, err := sig.NewEd25519(n, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The transmitter equivocates (split-brain), so the agreement value is
	// whatever the correct processors converge on — the proof pins it down
	// for the auditor.
	res, err := core.Run(context.Background(), core.Config{
		Protocol:  alg2.Protocol{},
		N:         n,
		T:         t,
		Value:     ident.V1,
		Scheme:    scheme,
		Adversary: adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: n / 2},
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== processors publish their proofs ===")
	group := ident.Range(n)
	var agreed *ident.Value
	for id, node := range res.Nodes {
		pid := ident.ProcID(id)
		if res.Faulty.Has(pid) {
			fmt.Printf("p%d: (faulty — no trustworthy proof)\n", id)
			continue
		}
		holder, ok := node.(alg2.ProofHolder)
		if !ok {
			log.Fatalf("p%d does not expose a proof", id)
		}
		proof, has := holder.Proof()
		if !has {
			log.Fatalf("p%d holds no proof — violates Theorem 4", id)
		}

		// The external auditor verifies the proof with nothing but the
		// public verifier: value + ≥ t+1 distinct processor signatures.
		if err := alg2.VerifyProof(proof, group, t, scheme); err != nil {
			log.Fatalf("auditor rejected p%d's proof: %v", id, err)
		}
		fmt.Printf("p%d: proof for %v with %d signatures — auditor accepts\n",
			id, proof.Value, proof.Chain.DistinctCount())
		if agreed == nil {
			v := proof.Value
			agreed = &v
		} else if *agreed != proof.Value {
			log.Fatalf("two proofs for different values — impossible by Theorem 4")
		}
	}

	// A forged proof for the other value must not verify.
	fmt.Println("\n=== a faulty coalition tries to forge a proof for the other value ===")
	forged := sig.SignedValue{Value: 1 - *agreed}
	for _, q := range res.Faulty.Sorted() {
		signer, _ := scheme.Signer(q)
		forged = forged.CoSign(signer)
	}
	if err := alg2.VerifyProof(forged, group, t, scheme); err != nil {
		fmt.Printf("auditor rejects the forgery: %v\n", err)
	} else {
		log.Fatal("forgery accepted — signature scheme broken")
	}
}
