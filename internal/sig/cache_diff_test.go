package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"byzex/internal/ident"
	"byzex/internal/trace"
	"byzex/internal/wire"
)

// rollingCache is the verified-prefix cache as it was before the one-hash key
// derivation, kept here as the reference of TestCacheMatchesRollingDigest: a
// rolling digest k₀ = SHA-256(0x00 ‖ body), kᵢ = SHA-256(0x01 ‖ kᵢ₋₁ ‖
// signerᵢ ‖ len(sigᵢ) ‖ sigᵢ) re-hashed link by link on every call.
type rollingCache struct {
	v            Verifier
	verified     map[[sha256.Size]byte]struct{}
	hits, misses int64
	events       []trace.Event
}

func (rc *rollingCache) verifyChain(c Chain, body []byte) error {
	if len(c) == 0 {
		return nil
	}
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(body)
	var prev [sha256.Size]byte
	h.Sum(prev[:0])
	keys := make([][sha256.Size]byte, len(c))
	var u32 [4]byte
	for i, l := range c {
		h.Reset()
		h.Write([]byte{0x01})
		h.Write(prev[:])
		binary.BigEndian.PutUint32(u32[:], uint32(l.Signer))
		h.Write(u32[:])
		binary.BigEndian.PutUint32(u32[:], uint32(len(l.Sig)))
		h.Write(u32[:])
		h.Write(l.Sig)
		h.Sum(prev[:0])
		keys[i] = prev
	}

	start := 0
	for i := len(keys); i >= 1; i-- {
		if _, ok := rc.verified[keys[i-1]]; ok {
			start = i
			break
		}
	}
	rc.hits += int64(start)
	if start > 0 {
		rc.events = append(rc.events, trace.Event{Kind: trace.KindVerifyHit, From: ident.None, To: ident.None, Sigs: start})
	}
	checked := 0
	for i := start; i < len(c); i++ {
		rc.misses++
		checked++
		if !rc.v.Verify(c[i].Signer, signingInput(new(wire.Writer), body, c[:i]), c[i].Sig) {
			rc.events = append(rc.events, trace.Event{Kind: trace.KindVerifyMiss, From: c[i].Signer, To: ident.None, Sigs: checked})
			return linkError(i, c[i].Signer)
		}
	}
	if checked > 0 {
		rc.events = append(rc.events, trace.Event{Kind: trace.KindVerifyMiss, From: ident.None, To: ident.None, Sigs: checked})
	}
	for i := start; i < len(c); i++ {
		rc.verified[keys[i]] = struct{}{}
	}
	return nil
}

type eventLog []trace.Event

func (l *eventLog) Emit(e trace.Event) { *l = append(*l, e) }

// TestCacheMatchesRollingDigest drives the cache and the rolling-digest
// reference with the same random stream of chains — fresh ones, relays,
// extensions, truncations, swapped signers, flipped signature bytes, cut
// signatures, changed bodies — and requires the same verdict, the same
// hit/miss counters and the same trace events after every single call.
func TestCacheMatchesRollingDigest(t *testing.T) {
	const n = 12
	for _, scheme := range []Scheme{NewHMAC(n, 7), NewPlain(n)} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := mrand.New(mrand.NewSource(seed))
			cv := NewCachedVerifier(scheme)
			var got eventLog
			cv.SetTrace(&got)
			ref := &rollingCache{v: scheme, verified: make(map[[sha256.Size]byte]struct{})}

			type item struct {
				body []byte
				c    Chain
			}
			bodies := [][]byte{ValueBody(ident.V0), ValueBody(ident.V1), []byte("a longer body, past one SHA-256 block, so the header and the first link straddle a block boundary"), {}}
			signer := func() Signer {
				s, _ := scheme.Signer(ident.ProcID(rng.Intn(n)))
				return s
			}
			clone := func(c Chain) Chain {
				out := make(Chain, len(c))
				for i, l := range c {
					out[i] = Link{Signer: l.Signer, Sig: append([]byte(nil), l.Sig...)}
				}
				return out
			}
			var pool []item
			for step := 0; step < 400; step++ {
				var it item
				op := rng.Intn(9)
				if len(pool) == 0 {
					op = 0
				}
				var src item
				if len(pool) > 0 {
					src = pool[rng.Intn(len(pool))]
				}
				switch op {
				case 0: // a fresh chain, built locally link by link
					it.body = bodies[rng.Intn(len(bodies))]
					for l := 1 + rng.Intn(10); l > 0; l-- {
						it.c = Append(signer(), it.body, it.c)
					}
				case 1: // relay
					it = src
				case 2: // extension by one or two links
					it = item{body: src.body, c: Append(signer(), src.body, src.c)}
					if rng.Intn(3) == 0 {
						it.c = Append(signer(), it.body, it.c)
					}
				case 3: // truncation (possibly to nothing)
					it = item{body: src.body, c: src.c[:rng.Intn(len(src.c)+1)]}
				case 4: // a signer swapped for another, or two exchanged
					it = item{body: src.body, c: clone(src.c)}
					if i, j := rng.Intn(len(it.c)), rng.Intn(len(it.c)); i != j {
						it.c[i].Signer, it.c[j].Signer = it.c[j].Signer, it.c[i].Signer
					} else {
						it.c[i].Signer = ident.ProcID(rng.Intn(n+2) - 1)
					}
				case 5: // one signature byte flipped
					it = item{body: src.body, c: clone(src.c)}
					l := &it.c[rng.Intn(len(it.c))]
					l.Sig[rng.Intn(len(l.Sig))] ^= 1 << uint(rng.Intn(8))
				case 6: // a signature cut short or moved to the neighbouring link
					it = item{body: src.body, c: clone(src.c)}
					i := rng.Intn(len(it.c))
					if cut := rng.Intn(len(it.c[i].Sig)); i+1 < len(it.c) && rng.Intn(2) == 0 {
						it.c[i+1].Sig = append(it.c[i].Sig[cut:], it.c[i+1].Sig...)
						it.c[i].Sig = it.c[i].Sig[:cut]
					} else {
						it.c[i].Sig = it.c[i].Sig[:cut]
					}
				case 7: // same links over another body
					it = item{body: bodies[rng.Intn(len(bodies))], c: src.c}
				case 8: // the first link folded into the body, as the key stream spells it
					if len(src.c) < 2 {
						continue
					}
					l := src.c[0]
					it.body = binary.AppendVarint(append([]byte(nil), src.body...), int64(l.Signer))
					it.body = append(binary.AppendUvarint(it.body, uint64(len(l.Sig))), l.Sig...)
					it.c = src.c[1:]
				}
				if len(it.c) == 0 && op != 3 {
					continue
				}

				gotErr := it.c.Verify(cv, it.body)
				wantErr := ref.verifyChain(it.c, it.body)
				where := fmt.Sprintf("%s seed %d step %d op %d (%d links)", scheme.Name(), seed, step, op, len(it.c))
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: verdict %v, reference %v", where, gotErr, wantErr)
				}
				if h, m := cv.Stats(); h != ref.hits || m != ref.misses {
					t.Fatalf("%s: counters %d/%d, reference %d/%d", where, h, m, ref.hits, ref.misses)
				}
				if len(got) != len(ref.events) {
					t.Fatalf("%s: %d trace events, reference %d", where, len(got), len(ref.events))
				}
				for i := range got {
					if got[i] != ref.events[i] {
						t.Fatalf("%s: event %d = %+v, reference %+v", where, i, got[i], ref.events[i])
					}
				}
				got, ref.events = got[:0], ref.events[:0]
				if gotErr == nil && len(it.c) > 0 {
					pool = append(pool, it)
				}
			}
			if h, m := cv.Stats(); h == 0 || m == 0 {
				t.Fatalf("%s seed %d: degenerate run, %d hits %d misses", scheme.Name(), seed, h, m)
			}
		}
	}
}

// TestCacheHitAllocatesNothing: recognising a verified chain costs no
// allocation at any length, and a miss on a short chain through a reset cache
// only what the wrapped verification itself allocates.
func TestCacheHitAllocatesNothing(t *testing.T) {
	scheme := NewHMAC(64, 1)
	body := ValueBody(ident.V1)
	for _, links := range []int{1, 4, 16, 64} {
		var c Chain
		for i := 0; i < links; i++ {
			s, _ := scheme.Signer(ident.ProcID(i))
			c = Append(s, body, c)
		}
		cv := NewCachedVerifier(scheme)
		if err := c.Verify(cv, body); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := c.Verify(cv, body); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("full hit on %d links allocates %v times", links, n)
		}
	}

	s0, _ := scheme.Signer(0)
	one := Append(s0, body, nil)
	cv := NewCachedVerifier(scheme)
	if n := testing.AllocsPerRun(200, func() {
		cv.Reset(scheme)
		if err := one.Verify(cv, body); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("single-link verify through a reset cache allocates %v times", n)
	}
}

// countingVerifier counts the single-signature checks that reach the scheme
// and remembers the signer of the first.
type countingVerifier struct {
	Verifier
	calls int
	first ident.ProcID
}

func (v *countingVerifier) Verify(id ident.ProcID, msg, sigBytes []byte) bool {
	if v.calls == 0 {
		v.first = id
	}
	v.calls++
	return v.Verifier.Verify(id, msg, sigBytes)
}

func testChain(scheme Scheme, body []byte, links int) Chain {
	var c Chain
	for i := 0; i < links; i++ {
		s, _ := scheme.Signer(ident.ProcID(i))
		c = Append(s, body, c)
	}
	return c
}

func cloneChain(c Chain) Chain {
	out := make(Chain, len(c))
	for i, l := range c {
		out[i] = Link{Signer: l.Signer, Sig: append([]byte(nil), l.Sig...)}
	}
	return out
}

// TestCacheMissesAtTheFlippedByte: after a chain verified, the same chain with
// any one byte of the body, of any signature or of any signer changed is
// accepted from the cache up to exactly the changed link, and from there goes
// to the wrapped verifier, which rejects it.
func TestCacheMissesAtTheFlippedByte(t *testing.T) {
	const links = 6
	scheme := NewHMAC(links+1, 3)
	body := []byte("the body")
	c := testChain(scheme, body, links)
	under := &countingVerifier{Verifier: scheme}
	cv := NewCachedVerifier(under)
	if err := c.Verify(cv, body); err != nil {
		t.Fatal(err)
	}

	check := func(what string, link int, bad Chain, badBody []byte) {
		t.Helper()
		h0, m0 := cv.Stats()
		under.calls = 0
		err := bad.Verify(cv, badBody)
		if !errors.Is(err, ErrBadSignature) {
			t.Fatalf("%s: verdict %v", what, err)
		}
		h, m := cv.Stats()
		if h-h0 != int64(link) || m-m0 != 1 {
			t.Fatalf("%s: %d links from the cache and %d checked, want %d and 1", what, h-h0, m-m0, link)
		}
		if under.calls != 1 || under.first != bad[link].Signer {
			t.Fatalf("%s: %d calls reached the scheme, the first for %v; want one, for %v", what, under.calls, under.first, bad[link].Signer)
		}
	}
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			badBody := append([]byte(nil), body...)
			badBody[i] ^= 1 << bit
			check(fmt.Sprintf("body byte %d bit %d", i, bit), 0, c, badBody)
		}
	}
	for link := range c {
		for i := range c[link].Sig {
			bad := cloneChain(c)
			bad[link].Sig[i] ^= 1 << (i % 8)
			check(fmt.Sprintf("link %d signature byte %d", link, i), link, bad, body)
		}
		for bit := 0; bit < 32; bit++ {
			bad := cloneChain(c)
			bad[link].Signer ^= 1 << bit
			check(fmt.Sprintf("link %d signer bit %d", link, bit), link, bad, body)
		}
	}
	// None of it left anything behind: the chain itself is still one full hit.
	under.calls = 0
	if err := c.Verify(cv, body); err != nil || under.calls != 0 {
		t.Fatalf("intact chain afterwards: %v, %d calls to the scheme", err, under.calls)
	}
}

func TestFoldUnfold(t *testing.T) {
	cv := NewCachedVerifier(NewPlain(4))
	l := Link{Signer: 3, Sig: []byte{0, 0, 0, 3}}
	for _, f := range []uint64{0, 1, 1 << 63, 0xdeadbeefcafef00d} {
		if got := cv.unfold(cv.fold(f, l), l); got != f {
			t.Fatalf("unfold(fold(%#x)) = %#x", f, got)
		}
	}
}

// TestCacheFingerprintCollision forces what the fingerprint makes unlikely:
// chains that never verified landing on the index entry of one that did. The
// index is rewired by hand so that the fingerprint of the unverified chain,
// and of every prefix of it, leads to the verified chain's node. Under the
// plain scheme the first case is two chains with the very same links (a plain
// tag does not depend on what it signs) over different bodies.
func TestCacheFingerprintCollision(t *testing.T) {
	for _, scheme := range []Scheme{NewHMAC(8, 5), NewPlain(8)} {
		good, other, third := []byte("agreed body"), []byte("another body"), []byte("a third body")
		c := testChain(scheme, good, 4)
		under := &countingVerifier{Verifier: scheme}
		cv := NewCachedVerifier(under)
		if err := c.Verify(cv, good); err != nil {
			t.Fatal(err)
		}
		full := cv.index[cv.fingerprint(c, good)]
		if full == nil || !full.is(c, good) {
			t.Fatalf("%s: the verified chain has no node", scheme.Name())
		}

		// The same links over a body they were never checked over: every link
		// goes to the scheme, whatever the scheme then says.
		for i := 1; i <= len(c); i++ {
			cv.index[cv.fingerprint(c[:i], other)] = full
		}
		under.calls = 0
		err := c.Verify(cv, other)
		if under.calls == 0 || (err == nil) != (scheme.Name() == "plain") {
			t.Fatalf("%s: colliding chain over another body: verdict %v after %d calls to the scheme", scheme.Name(), err, under.calls)
		}

		// One signature bit off in the last link: the three links before it
		// are genuinely cached, the last one must not be.
		forged := cloneChain(c)
		forged[3].Sig[0] ^= 0x80
		cv.index[cv.fingerprint(forged, good)] = full
		under.calls = 0
		if err := forged.Verify(cv, good); err == nil || under.calls != 1 {
			t.Fatalf("%s: colliding forged chain: verdict %v after %d calls to the scheme", scheme.Name(), err, under.calls)
		}

		// A chain that verifies while its fingerprint is taken is chained onto
		// the entry, and both are found afterwards.
		c2 := testChain(scheme, third, 3)
		cv.index[cv.fingerprint(c2, third)] = full
		if err := c2.Verify(cv, third); err != nil {
			t.Fatal(err)
		}
		if n := cv.index[cv.fingerprint(c2, third)]; n == full || n.next != full || !n.is(c2, third) {
			t.Fatalf("%s: shared entry does not chain both nodes", scheme.Name())
		}
		cv.index[cv.fingerprint(c, good)] = cv.index[cv.fingerprint(c2, third)]
		under.calls = 0
		if err := c2.Verify(cv, third); err != nil || under.calls != 0 {
			t.Fatalf("%s: second chain on a shared entry: %v, %d calls to the scheme", scheme.Name(), err, under.calls)
		}
		if err := c.Verify(cv, good); err != nil || under.calls != 0 {
			t.Fatalf("%s: first chain behind the second on a shared entry: %v, %d calls to the scheme", scheme.Name(), err, under.calls)
		}
	}
}

// TestCacheSharedLastLinkLookup: 10,000 verified plain chains that all end in
// the same link — the same signer and the same four tag bytes — over 10,000
// bodies. The fingerprint covers the body and every link, so they spread over
// the index, and a hit among them costs what a hit in an otherwise empty cache
// costs.
func TestCacheSharedLastLinkLookup(t *testing.T) {
	const chains = 10000
	scheme := NewPlain(8)
	probe := testChain(scheme, []byte("body 0"), 4)
	hit := func(cv *CachedVerifier) time.Duration {
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 7; round++ {
			t0 := time.Now()
			for i := 0; i < 2000; i++ {
				if err := probe.Verify(cv, []byte("body 0")); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(t0))
		}
		return best
	}

	alone := NewCachedVerifier(scheme)
	if err := probe.Verify(alone, []byte("body 0")); err != nil {
		t.Fatal(err)
	}
	crowded := NewCachedVerifier(scheme)
	for i := 0; i < chains; i++ {
		body := []byte(fmt.Sprintf("body %d", i))
		if err := testChain(scheme, body, 4).Verify(crowded, body); err != nil {
			t.Fatal(err)
		}
	}

	longest := 0
	for _, n := range crowded.index {
		length := 0
		for ; n != nil; n = n.next {
			length++
		}
		longest = max(longest, length)
	}
	if len(crowded.index) < 4*chains*99/100 || longest > 3 {
		t.Fatalf("%d prefixes under %d fingerprints, %d on the fullest", 4*chains, len(crowded.index), longest)
	}
	if a, c := hit(alone), hit(crowded); c > 4*a {
		t.Fatalf("a hit among %d chains takes %v per 2000, alone %v", chains, c, a)
	}
}

// TestCacheConcurrentMissesShareNodes: peers of a TCP mesh verify the same
// fresh chain through one verifier at the same moment; however the misses
// interleave, each prefix ends up with exactly one node.
func TestCacheConcurrentMissesShareNodes(t *testing.T) {
	scheme := NewHMAC(16, 1)
	body := ValueBody(ident.V1)
	c := testChain(scheme, body, 12)
	for round := 0; round < 20; round++ {
		cv := NewCachedVerifier(scheme)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(upto int) {
				defer wg.Done()
				if err := c[:upto].Verify(cv, body); err != nil {
					t.Error(err)
				}
			}(len(c) - g%3)
		}
		wg.Wait()
		nodes := 0
		for _, n := range cv.index {
			for ; n != nil; n = n.next {
				nodes++
			}
		}
		if nodes != len(c) {
			t.Fatalf("round %d: %d nodes for %d prefixes", round, nodes, len(c))
		}
	}
}

// TestVerifyPathAllocations pins what checking a signed value allocates: the
// body of a small value is shared, signing inputs are built in a recycled
// writer, and the cache carves its nodes from chunks — so nothing, with or
// without the cache, hit or miss, beyond a chunk or a map bucket every few
// dozen misses. Co-signing allocates the new chain and the new signature.
func TestVerifyPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	scheme := NewHMAC(8, 1)
	s0, _ := scheme.Signer(0)
	s1, _ := scheme.Signer(1)
	sv := NewSignedValue(s0, ident.V1).CoSign(s1)
	cv := NewCachedVerifier(scheme)

	const runs = 200
	fresh := make([]SignedBytes, runs+1) // AllocsPerRun makes one warm-up call
	for i := range fresh {
		fresh[i] = NewSignedBytes(s0, []byte(fmt.Sprintf("body %d", i)))
	}
	next := 0
	for _, tc := range []struct {
		name string
		max  float64
		f    func() error
	}{
		{"SignedValue.Verify, no cache", 0, func() error { return sv.Verify(scheme) }},
		{"SignedValue.Verify, cache hit", 0, func() error { return sv.Verify(cv) }},
		{"Chain.Verify over ValueBody, cache hit", 0, func() error { return sv.Chain.Verify(cv, ValueBody(sv.Value)) }},
		{"SignedBytes.Verify, cache miss", 0, func() error { next++; return fresh[next-1].Verify(cv) }},
		{"SignedValue.CoSign", 2, func() error { sv.CoSign(s1); return nil }},
	} {
		if n := testing.AllocsPerRun(runs, func() {
			if err := tc.f(); err != nil {
				t.Fatal(err)
			}
		}); n > tc.max {
			t.Errorf("%s allocates %v times, want at most %v", tc.name, n, tc.max)
		}
	}
	if _, misses := cv.Stats(); misses != 2+runs+1 {
		t.Fatalf("%d links checked, want the signed value's 2 and %d fresh ones", misses, runs+1)
	}
}

// TestResetForgetsEveryPrefix is the security property of a warm verifier:
// a chain verified in one run, after Reset, is a miss in the next — it pays
// the cryptography again, is counted as a miss and traced as one — and the
// storage the first run filled is zeroed before the second carves from it.
func TestResetForgetsEveryPrefix(t *testing.T) {
	scheme := NewHMAC(8, 1)
	body := ValueBody(ident.V1)
	c := testChain(scheme, body, 6)
	cv := NewCachedVerifier(&countingVerifier{Verifier: scheme})
	crypto := cv.Verifier.(*countingVerifier)
	if err := c.Verify(cv, body); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(cv, body); err != nil || crypto.calls != len(c) {
		t.Fatalf("run A: %v, %d checks for %d links", err, crypto.calls, len(c))
	}

	chunk := &cv.nodes[0]
	cv.Reset(crypto)
	if len(cv.nodes) != 0 || len(cv.bytes) != 0 || cap(cv.nodes) == 0 || cap(cv.bytes) == 0 {
		t.Fatalf("Reset left %d nodes and %d bytes carved, chunks of %d and %d", len(cv.nodes), len(cv.bytes), cap(cv.nodes), cap(cv.bytes))
	}
	for _, n := range cv.nodes[:cap(cv.nodes)] {
		if n.parent != nil || n.next != nil || n.owned != nil || n.bodyLen != 0 || n.signer != 0 {
			t.Fatalf("a node survived Reset: %+v", n)
		}
	}
	for i, b := range cv.bytes[:cap(cv.bytes)] {
		if b != 0 {
			t.Fatalf("byte %d survived Reset", i)
		}
	}
	if h, m := cv.Stats(); h != 0 || m != 0 {
		t.Fatalf("counters after Reset: %d hits, %d misses", h, m)
	}
	var buf trace.Buffer
	cv.SetTrace(&buf)
	crypto.calls = 0
	if err := c.Verify(cv, body); err != nil {
		t.Fatal(err)
	}
	if h, m := cv.Stats(); h != 0 || m != int64(len(c)) || crypto.calls != len(c) {
		t.Fatalf("run B: %d hits, %d misses, %d checks for %d links", h, m, crypto.calls, len(c))
	}
	if &cv.nodes[0] != chunk {
		t.Fatal("run B did not carve from the chunk run A left")
	}
	ev := buf.Events()
	if len(ev) != 1 || ev[0].Kind != trace.KindVerifyMiss || ev[0].Sigs != len(c) {
		t.Fatalf("run B traced %+v, want one KindVerifyMiss over %d links", ev, len(c))
	}
}
