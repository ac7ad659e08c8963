package sig_test

import (
	"strconv"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

func BenchmarkHMACSign(b *testing.B) {
	scheme := sig.NewHMAC(8, 1)
	signer, _ := scheme.Signer(0)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = signer.Sign(msg)
	}
}

func BenchmarkHMACVerify(b *testing.B) {
	scheme := sig.NewHMAC(8, 1)
	signer, _ := scheme.Signer(0)
	msg := make([]byte, 128)
	tag := signer.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !scheme.Verify(0, msg, tag) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	scheme, err := sig.NewEd25519(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	signer, _ := scheme.Signer(0)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = signer.Sign(msg)
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	scheme, err := sig.NewEd25519(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	signer, _ := scheme.Signer(0)
	msg := make([]byte, 128)
	tag := signer.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !scheme.Verify(0, msg, tag) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkChainVerify measures the cost of validating a chain of k links
// (the dominant cost inside Algorithm 5's report processing).
func BenchmarkChainVerify(b *testing.B) {
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(name("links", k), func(b *testing.B) {
			scheme := sig.NewHMAC(k+1, 1)
			body := sig.ValueBody(ident.V1)
			var c sig.Chain
			for i := 0; i < k; i++ {
				s, _ := scheme.Signer(ident.ProcID(i))
				c = sig.Append(s, body, c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Verify(scheme, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChainVerifyCached is the same workload through a CachedVerifier:
// after the first verification every re-check of the chain is a fingerprint
// and a comparison against the verified-prefix cache (the path core.Run uses
// for every node).
func BenchmarkChainVerifyCached(b *testing.B) {
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(name("links", k), func(b *testing.B) {
			scheme := sig.NewHMAC(k+1, 1)
			body := sig.ValueBody(ident.V1)
			var c sig.Chain
			for i := 0; i < k; i++ {
				s, _ := scheme.Signer(ident.ProcID(i))
				c = sig.Append(s, body, c)
			}
			cv := sig.NewCachedVerifier(scheme)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Verify(cv, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainAppend(b *testing.B) {
	scheme := sig.NewHMAC(8, 1)
	s0, _ := scheme.Signer(0)
	s1, _ := scheme.Signer(1)
	body := sig.ValueBody(ident.V1)
	base := sig.Append(s0, body, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sig.Append(s1, body, base)
	}
}

func BenchmarkSignedValueMarshalRoundTrip(b *testing.B) {
	scheme := sig.NewHMAC(8, 1)
	s0, _ := scheme.Signer(0)
	sv := sig.NewSignedValue(s0, ident.V1)
	for i := 1; i < 8; i++ {
		s, _ := scheme.Signer(ident.ProcID(i))
		sv = sv.CoSign(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := sv.Marshal()
		if _, err := sig.UnmarshalSignedValue(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func name(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}
