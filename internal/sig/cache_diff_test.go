package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/trace"
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
		if !rc.v.Verify(c[i].Signer, signingInput(body, c[:i]), c[i].Sig) {
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
// allocation at any length, and a miss on a short chain only what the wrapped
// verification itself allocates (the signing input of each link checked).
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
	if n := testing.AllocsPerRun(200, func() {
		if err := one.Verify(NewCachedVerifier(scheme), body); err != nil {
			t.Fatal(err)
		}
	}); n > 4 { // the cache and its map, the signing input, the map's first bucket
		t.Errorf("cold single-link verify through a fresh cache allocates %v times", n)
	}
}
