package alg1

import "byzex/internal/protocol"

// MultiProtocol is the multi-valued generalization the paper alludes to
// ("if the transmitter can send more than two values, one has to modify
// the algorithms slightly"): Core under the multi-valued rule. Correct
// v-messages exist for *every* value v, every processor relays the first
// correct message per distinct value (capped at two distinct values — once
// two circulate, every correct processor's decision is already forced to the
// default), and the decision function picks the unique circulating value or
// falls to the default.
//
// Correctness follows the Theorem 3 argument value-by-value: whatever
// correct v-message any correct processor receives by phase t+2, every
// correct processor receives one by phase t+2 (a correct signer among the
// first t+1 links relayed it in time). Hence the sets of circulating
// values coincide across correct processors, and "unique value or default"
// agrees. The relay cap doubles the Theorem 3 message bound: ≤ 2(2t²+2t).
type MultiProtocol struct{}

var _ protocol.Protocol = MultiProtocol{}

// MultiMsgUpperBound is the message bound for the multi-valued variant:
// twice Theorem 3's, since each processor relays at most two values.
func MultiMsgUpperBound(t int) int { return 2 * (2*t*t + 2*t) }

// Name implements protocol.Protocol.
func (MultiProtocol) Name() string { return "alg1-multi" }

// Check implements protocol.Protocol.
func (MultiProtocol) Check(n, t int) error { return Protocol{}.Check(n, t) }

// Phases implements protocol.Protocol.
func (MultiProtocol) Phases(_, t int) int { return LastPhase(t) }

// NewRun implements protocol.Protocol.
func (p MultiProtocol) NewRun(n, t int) (protocol.Builder, error) { return newRun(p, n, t, true) }
