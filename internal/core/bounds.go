// The paper's bounds as executable closed forms: the signature lower bound
// of Theorem 1, the message lower bounds of Theorems 2–4 and the upper
// bounds achieved by the constructive algorithms. The evaluation harness and
// the conformance tests compare measured per-instance counts against these
// functions, so every bound claim in ROADMAP.md is checked, not quoted.

package core

import "math"

// SigLowerBound is Theorem 1: any authenticated agreement algorithm
// handling t < n-1 faults has a fault-free history in which correct
// processors send at least n(t+1)/4 signatures.
func SigLowerBound(n, t int) int { return n * (t + 1) / 4 }

// MsgLowerBoundUnauth is Corollary 1: without authentication the Theorem 1
// bound applies to the number of messages.
func MsgLowerBoundUnauth(n, t int) int { return SigLowerBound(n, t) }

// MsgLowerBound is Theorem 2: any agreement algorithm handling t < n-1
// faults has a history in which the correct processors send at least
// max{(n-1)/2, (1+t/2)^2} messages.
func MsgLowerBound(n, t int) int {
	half := 1 + float64(t)/2
	return max((n-1)/2, int(half*half))
}

// Alg1MsgUpperBound is Theorem 3: Algorithm 1 (n = 2t+1) sends at most
// 2t^2 + 2t messages.
func Alg1MsgUpperBound(t int) int { return 2*t*t + 2*t }

// Alg1Phases is Theorem 3's phase count for Algorithm 1.
func Alg1Phases(t int) int { return t + 2 }

// Alg2MsgUpperBound is Theorem 4: Algorithm 2 sends at most 5t^2 + 5t
// messages.
func Alg2MsgUpperBound(t int) int { return 5*t*t + 5*t }

// Alg2Phases is Theorem 4's phase count for Algorithm 2.
func Alg2Phases(t int) int { return 3*t + 3 }

// Alg3MsgUpperBound is Lemma 1: Algorithm 3 with set size s sends at most
// 2n + 4tn/s + 3t^2·s messages.
func Alg3MsgUpperBound(n, t, s int) int {
	if s < 1 {
		s = 1
	}
	return 2*n + 4*t*n/s + 3*t*t*s
}

// Alg3Phases is Lemma 1's phase count for Algorithm 3 with set size s.
func Alg3Phases(t, s int) int { return t + 2*s + 3 }

// Alg4MsgUpperBound is Theorem 6: Algorithm 4 on N = m^2 processors sends
// at most 3(m-1)m^2 messages.
func Alg4MsgUpperBound(m int) int { return 3 * (m - 1) * m * m }

// Alg5Alpha returns α, the smallest perfect square strictly greater than 6t
// (the active-set size of Algorithm 5).
func Alg5Alpha(t int) int {
	for m := 1; ; m++ {
		if m*m > 6*t {
			return m * m
		}
	}
}

// Alg5MsgUpperBound is Lemma 5's O(t^2 + nt/s) with an explicit constant
// derived from the paper's accounting (Section 7); the benches check the
// measured counts stay below it. The terms are: Algorithm 2 plus the
// phase-(3t+4) fan-out (≤ 5t^2+5t+(t+1)α), per-block Algorithm 4 runs
// (≤ 3α^1.5·(λ+1)), activation/report traffic (≤ 4αn/s + 4α(2t+1)(λ+1)),
// and intra-tree ping-pong (≤ 2n + 2s·t·log2(3) rounded up).
func Alg5MsgUpperBound(n, t, s int) int {
	if s < 1 {
		s = 1
	}
	alpha := Alg5Alpha(t)
	lam := 1
	for (1<<uint(lam))-1 < s {
		lam++
	}
	root := int(math.Sqrt(float64(alpha)))
	alg4 := 3 * (root - 1) * alpha * (lam + 1)
	activation := 4*alpha*(n/s+1) + 4*alpha*(2*t+1)*(lam+1)
	pingpong := 2*n + 4*s*(t+1)*(lam+1)
	return 5*t*t + 5*t + (t+1)*alpha + alg4 + activation + pingpong
}

// Alg5Phases bounds Algorithm 5's phase count for tree size parameter s.
// The paper states 3t + 4s + 2. Our implementation rounds the tree capacity
// up to s' = 2^λ - 1 (λ = ⌈log2(s+1)⌉) and spends one extra phase per block
// separating the root report from the Algorithm 4 exchange, giving an exact
// schedule of 3t + 4(s'+1) + λ + 1 = O(t + s).
func Alg5Phases(t, s int) int {
	if s < 1 {
		s = 1
	}
	lam := 1
	for (1<<uint(lam))-1 < s {
		lam++
	}
	sCap := (1 << uint(lam)) - 1
	return 3*t + 4*(sCap+1) + lam + 1
}

// TradeoffPhases is the introduction's phase side of the trade-off: for
// n ≫ t, t + 3 + t/α phases using Algorithm 3 with s = ⌈t/(2α)⌉.
func TradeoffPhases(t, alpha int) int { return t + 3 + (t+alpha-1)/alpha }
