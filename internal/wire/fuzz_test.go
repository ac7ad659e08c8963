package wire_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// envelopeCapture records every envelope the engine accepts, giving the
// fuzzer a seed corpus of real protocol traffic rather than hand-written
// bytes.
type envelopeCapture struct {
	envs []sim.Envelope
}

func (c *envelopeCapture) OnSend(e sim.Envelope) { c.envs = append(c.envs, e) }

// captureFrameBodies runs one alg1 instance (n=7, t=3) on the in-memory
// engine and encodes the observed envelopes exactly the way the TCP
// transport frames them: version byte, uvarint mesh epoch, phase, sender,
// the reserved v2 flags field, count, then per message a length-prefixed
// payload, the signer list and the running signature total.
func captureFrameBodies(tb testing.TB) [][]byte {
	tb.Helper()
	cfg := core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Value: 1, Seed: 42}
	setup, err := core.NewSetup(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cap := &envelopeCapture{}
	eng := new(sim.Engine)
	err = eng.Reset(sim.Config{
		N: cfg.N, T: cfg.T, Transmitter: cfg.Transmitter,
		Phases: setup.Phases, Faulty: setup.Faulty,
		Observer: cap,
	}, setup.Nodes)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if len(cap.envs) == 0 {
		tb.Fatal("run produced no envelopes to seed from")
	}

	encode := func(ver byte, phase int, from ident.ProcID, msgs []sim.Envelope) []byte {
		w := wire.NewWriter(64)
		w.Byte(ver)
		w.Uint(1) // mesh epoch
		w.Uint(uint64(phase))
		w.Proc(from)
		if ver >= wire.FrameV2 {
			w.Uint(0) // reserved frame flags
		}
		w.Uint(uint64(len(msgs)))
		for _, m := range msgs {
			w.BytesField(m.Payload)
			w.Procs(m.Signers)
			w.Uint(uint64(m.SigTotal))
		}
		return append([]byte(nil), w.Bytes()...)
	}

	var bodies [][]byte
	for _, e := range cap.envs {
		bodies = append(bodies, encode(wire.FrameVersion, e.Phase, e.From, []sim.Envelope{e}))
	}
	// One multi-message frame, as a sender's per-phase flush produces, at
	// every version the compatibility window accepts — plus one past the
	// window, which must fail typed (ErrWireVersion), never misparse.
	k := len(cap.envs)
	if k > 8 {
		k = 8
	}
	for ver := wire.FrameVersionMin; ver <= wire.FrameVersion+1; ver++ {
		bodies = append(bodies, encode(ver, cap.envs[0].Phase, cap.envs[0].From, cap.envs[:k]))
	}
	return bodies
}

type fuzzMsg struct {
	payload  []byte
	signers  []ident.ProcID
	sigTotal uint64
}

// decodeBody mirrors the transport's frame-body decode sequence: the version
// byte first (checked against the compatibility window before any layout
// behind it is trusted), the epoch tag (read before the transport decides
// whether the frame belongs to the live mesh run), the reserved v2 flags
// field, then the message section.
func decodeBody(body []byte) (ver byte, epoch, phase uint64, from ident.ProcID, msgs []fuzzMsg, err error) {
	r := wire.NewReader(body)
	ver = r.Byte()
	if r.Err() == nil {
		if err := wire.CheckFrameVersion(ver); err != nil {
			return ver, 0, 0, 0, nil, err
		}
	}
	epoch = r.Uint()
	phase = r.Uint()
	from = r.Proc()
	if ver >= wire.FrameV2 {
		if flags := r.Uint(); r.Err() == nil && flags != 0 {
			return ver, 0, 0, 0, nil, fmt.Errorf("%w: unknown frame flags %#x", wire.ErrWireVersion, flags)
		}
	}
	cnt := r.Len()
	for i := 0; i < cnt && r.Err() == nil; i++ {
		msgs = append(msgs, fuzzMsg{
			payload:  append([]byte(nil), r.BytesField()...),
			signers:  r.Procs(),
			sigTotal: r.Uint(),
		})
	}
	return ver, epoch, phase, from, msgs, r.Finish()
}

// FuzzFrameBodyDecode feeds arbitrary bytes through the exact read sequence
// the TCP transport uses on a frame body. Invariants: decoding never
// panics, a version byte outside [FrameVersionMin, FrameVersion] always
// fails with ErrWireVersion (never a misparse of the layout behind it), a
// failed reader is sticky (all later reads yield zero values), and any body
// that decodes cleanly survives a re-encode/re-decode round trip with
// identical values.
func FuzzFrameBodyDecode(f *testing.F) {
	for _, body := range captureFrameBodies(f) {
		f.Add(body)
		if len(body) > 2 {
			f.Add(body[:len(body)/2]) // truncation seed
		}
	}
	f.Add([]byte{})
	f.Add([]byte{wire.FrameV1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // 10-byte uvarint
	f.Add([]byte{0x00})                                                                     // below the window
	f.Add([]byte{wire.FrameVersion + 1})                                                    // above the window
	f.Add([]byte{wire.FrameV2, 1, 1, 2, 1})                                                 // v2 with nonzero reserved flags

	f.Fuzz(func(t *testing.T, body []byte) {
		ver, epoch, phase, from, msgs, err := decodeBody(body)
		if len(body) > 0 && wire.CheckFrameVersion(body[0]) != nil {
			// Out-of-window version: the failure must be the typed sentinel,
			// raised before any field behind the version byte is interpreted.
			if !errors.Is(err, wire.ErrWireVersion) {
				t.Fatalf("version %d accepted: err=%v", body[0], err)
			}
			return
		}
		if err != nil {
			// Sticky-error contract: after a failure every read is a no-op
			// returning the zero value.
			r := wire.NewReader(body)
			for i := 0; i <= len(body) && r.Err() == nil; i++ {
				r.Uint()
			}
			if r.Err() != nil {
				if v := r.Uint(); v != 0 {
					t.Fatalf("read after error returned %d, want 0", v)
				}
				if b := r.BytesField(); b != nil {
					t.Fatalf("read after error returned %d bytes, want nil", len(b))
				}
			}
			return
		}

		// Clean decode: re-encoding the decoded values must produce a body
		// that decodes to the same values (canonical round trip).
		w := wire.NewWriter(len(body))
		w.Byte(ver)
		w.Uint(epoch)
		w.Uint(phase)
		w.Proc(from)
		if ver >= wire.FrameV2 {
			w.Uint(0)
		}
		w.Uint(uint64(len(msgs)))
		for _, m := range msgs {
			w.BytesField(m.payload)
			w.Procs(m.signers)
			w.Uint(m.sigTotal)
		}
		ver2, epoch2, phase2, from2, msgs2, err := decodeBody(w.Bytes())
		if err != nil {
			t.Fatalf("re-encoding of a clean decode fails to decode: %v", err)
		}
		if ver2 != ver || epoch2 != epoch || phase2 != phase || from2 != from || len(msgs2) != len(msgs) {
			t.Fatalf("round trip header: (v%d,%d,%d,%v,%d) != (v%d,%d,%d,%v,%d)",
				ver2, epoch2, phase2, from2, len(msgs2), ver, epoch, phase, from, len(msgs))
		}
		for i := range msgs {
			if !bytes.Equal(msgs[i].payload, msgs2[i].payload) ||
				msgs[i].sigTotal != msgs2[i].sigTotal ||
				len(msgs[i].signers) != len(msgs2[i].signers) {
				t.Fatalf("round trip message %d: %+v != %+v", i, msgs2[i], msgs[i])
			}
			for j := range msgs[i].signers {
				if msgs[i].signers[j] != msgs2[i].signers[j] {
					t.Fatalf("round trip message %d signer %d", i, j)
				}
			}
		}
	})
}

// FuzzReaderPrimitives checks the primitive decoders against arbitrary
// input: no panics, Len never admits more than the remaining buffer, and
// zigzag integers survive a round trip.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x80, 0x01, 0x03, 'a', 'b', 'c'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		v := r.Int()
		if r.Err() == nil {
			w := wire.NewWriter(10)
			w.Int(v)
			if got := wire.NewReader(w.Bytes()).Int(); got != v {
				t.Fatalf("zigzag round trip: %d != %d", got, v)
			}
		}
		n := r.Len()
		if r.Err() == nil && n > len(r.Rest()) {
			t.Fatalf("Len admitted %d with only %d bytes left", n, len(r.Rest()))
		}
		_ = r.BytesField()
		_ = r.Procs()
		_ = r.String()
	})
}
