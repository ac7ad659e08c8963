package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// readOneFrame drives a frameReader through one header+decode cycle, the
// way the mesh's serveConn does for a live-epoch frame.
func readOneFrame(t *testing.T, fr *frameReader, conn net.Conn) (uint64, int, ident.ProcID, []sim.Envelope) {
	t.Helper()
	epoch, err := fr.readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	phase, from, msgs, err := fr.decode()
	if err != nil {
		t.Fatal(err)
	}
	return epoch, phase, from, msgs
}

// pipeRoundTrip runs writeFrame/frameReader across a real in-memory
// connection.
func pipeRoundTrip(t *testing.T, epoch uint64, phase int, from ident.ProcID, msgs []sim.Envelope) (uint64, int, ident.ProcID, []sim.Envelope) {
	t.Helper()
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	errCh := make(chan error, 1)
	go func() { errCh <- writeFrame(a, wire.NewWriter(64), 0, 0, epoch, phase, from, msgs) }()
	fr := &frameReader{to: 9}
	gotEpoch, gotPhase, gotFrom, gotMsgs := readOneFrame(t, fr, b)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return gotEpoch, gotPhase, gotFrom, gotMsgs
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []sim.Envelope{
		{From: 3, To: 9, Phase: 7, Payload: []byte("alpha"), Signers: []ident.ProcID{1, 2}, SigTotal: 2},
		{From: 3, To: 9, Phase: 7, Payload: nil, SigTotal: 0},
	}
	epoch, phase, from, got := pipeRoundTrip(t, 5, 7, 3, msgs)
	if epoch != 5 || phase != 7 || from != 3 {
		t.Fatalf("header (%d,%d,%v)", epoch, phase, from)
	}
	if len(got) != 2 {
		t.Fatalf("%d messages", len(got))
	}
	if string(got[0].Payload) != "alpha" || got[0].SigTotal != 2 || len(got[0].Signers) != 2 {
		t.Fatalf("message 0 mismatch: %+v", got[0])
	}
	if got[0].Signers[0] != 1 || got[0].Signers[1] != 2 {
		t.Fatalf("signers mismatch: %v", got[0].Signers)
	}
	if got[0].To != 9 {
		t.Fatal("recipient not rewritten to the reader's identity")
	}
}

func TestFrameEmpty(t *testing.T) {
	epoch, phase, from, got := pipeRoundTrip(t, 1, 2, 5, nil)
	if epoch != 1 || phase != 2 || from != 5 || len(got) != 0 {
		t.Fatalf("empty frame round trip: %d %d %v %d", epoch, phase, from, len(got))
	}
}

// TestFrameReaderReuse pins the reader's scratch contract: it keeps a body
// that only grows and one signer list, so a frame's envelopes are decoded
// correctly but live only until the next read — the next frame of the same
// shape rewrites them in place, which is why noteFrame copies what it keeps —
// and a large frame's body is kept for the smaller ones after it.
func TestFrameReaderReuse(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const frames, large = 50, 10
	frame := func(i int) []sim.Envelope {
		payload := []byte{byte(i), byte(i + 1)}
		if i == large {
			payload = make([]byte, 4096)
		}
		return []sim.Envelope{{
			From: 1, To: 2, Phase: i,
			Payload: payload, Signers: []ident.ProcID{ident.ProcID(i % 7), 7}, SigTotal: i,
		}}
	}
	go func() {
		w := wire.NewWriter(64)
		for i := 0; i < frames; i++ {
			if err := writeFrame(a, w, 0, 0, 3, i, 1, frame(i)); err != nil {
				return
			}
		}
	}()

	fr := &frameReader{to: 2}
	var prev []sim.Envelope
	var body *byte
	for i := 0; i < frames; i++ {
		epoch, phase, from, msgs := readOneFrame(t, fr, b)
		if epoch != 3 || phase != i || from != 1 || len(msgs) != 1 {
			t.Fatalf("frame %d header: epoch=%d phase=%d from=%v msgs=%d", i, epoch, phase, from, len(msgs))
		}
		want := frame(i)[0]
		if got := msgs[0]; !bytes.Equal(got.Payload, want.Payload) || !slices.Equal(got.Signers, want.Signers) || got.SigTotal != i {
			t.Fatalf("frame %d decoded %+v", i, got)
		}
		if i > large && &fr.body[0] != body {
			t.Fatalf("frame %d was read into a new body after the large one", i)
		}
		if i > 0 && i != large && i != large+1 && (!bytes.Equal(prev[0].Payload, want.Payload) || !slices.Equal(prev[0].Signers, want.Signers)) {
			t.Fatalf("frame %d did not reuse the scratch frame %d was decoded into", i, i-1)
		}
		prev, body = msgs, &fr.body[0]
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	go func() {
		// Forge a header claiming a frame beyond the limit.
		_, _ = a.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	}()
	fr := &frameReader{to: 0}
	_, err := fr.readFrame(b)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameAtLimitNotOversize(t *testing.T) {
	// A header announcing exactly maxFrame must not trip the typed error;
	// it fails later (closed pipe), proving the bound is exclusive.
	a, b := net.Pipe()
	defer func() { _ = b.Close() }()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame)
		_, _ = a.Write(hdr[:])
		_ = a.Close()
	}()
	fr := &frameReader{to: 0}
	if _, err := fr.readFrame(b); errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame at the limit misclassified: %v", err)
	}
}

func TestFrameGarbageBodyRejected(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	go func() {
		_, _ = a.Write([]byte{0, 0, 0, 5, wire.FrameV1, 0x01, 0xFF, 0xFF, 0xFF})
	}()
	fr := &frameReader{to: 0}
	if _, err := fr.readFrame(b); err != nil {
		t.Fatalf("epoch tag of garbage frame unreadable: %v", err)
	}
	if _, _, _, err := fr.decode(); err == nil {
		t.Fatal("garbage body accepted")
	}
}

// pipeRoundTripVer is pipeRoundTrip with an explicit emitted frame version.
func pipeRoundTripVer(t *testing.T, ver byte, epoch uint64, phase int, from ident.ProcID, msgs []sim.Envelope) (uint64, int, ident.ProcID, []sim.Envelope) {
	t.Helper()
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	errCh := make(chan error, 1)
	go func() { errCh <- writeFrame(a, wire.NewWriter(64), 0, ver, epoch, phase, from, msgs) }()
	fr := &frameReader{to: 9}
	gotEpoch, gotPhase, gotFrom, gotMsgs := readOneFrame(t, fr, b)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if fr.ver != ver {
		t.Fatalf("reader saw version %d, frame carried %d", fr.ver, ver)
	}
	return gotEpoch, gotPhase, gotFrom, gotMsgs
}

// TestFrameVersionWindow pins the compatibility window: every version in
// [FrameVersionMin, FrameVersion] round-trips through one reader.
func TestFrameVersionWindow(t *testing.T) {
	msgs := []sim.Envelope{{From: 3, To: 9, Phase: 7, Payload: []byte("v"), Signers: []ident.ProcID{1}, SigTotal: 1}}
	for ver := wire.FrameVersionMin; ver <= wire.FrameVersion; ver++ {
		epoch, phase, from, got := pipeRoundTripVer(t, ver, 5, 7, 3, msgs)
		if epoch != 5 || phase != 7 || from != 3 || len(got) != 1 || string(got[0].Payload) != "v" {
			t.Fatalf("v%d round trip: epoch=%d phase=%d from=%v msgs=%+v", ver, epoch, phase, from, got)
		}
	}
}

// TestFrameFutureVersionRejected pins the typed rejection: a frame one
// version past the window fails readFrame with wire.ErrWireVersion — never a
// misparse of the unknown layout behind it.
func TestFrameFutureVersionRejected(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	go func() {
		// A well-formed v+1 frame body as far as this build can know it:
		// future version byte, then arbitrary bytes.
		_, _ = a.Write([]byte{0, 0, 0, 4, wire.FrameVersion + 1, 0x01, 0x01, 0x00})
	}()
	fr := &frameReader{to: 0}
	if _, err := fr.readFrame(b); !errors.Is(err, wire.ErrWireVersion) {
		t.Fatalf("future version: got %v, want wire.ErrWireVersion", err)
	}
}

// TestFrameV2UnknownFlagsRejected pins the reserved-flags contract: a v2
// frame with any flag bit set is from a future this build cannot honor and
// fails decode with wire.ErrWireVersion.
func TestFrameV2UnknownFlagsRejected(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	go func() {
		w := wire.NewWriter(64)
		w.Byte(0)
		w.Byte(0)
		w.Byte(0)
		w.Byte(0)
		w.Byte(wire.FrameV2)
		w.Uint(1)   // epoch
		w.Uint(1)   // phase
		w.Int(1)    // sender
		w.Uint(0x8) // reserved flags: a bit this build does not define
		w.Uint(0)   // message count
		buf := w.Bytes()
		binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
		_, _ = a.Write(buf)
	}()
	fr := &frameReader{to: 0}
	if _, err := fr.readFrame(b); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fr.decode(); !errors.Is(err, wire.ErrWireVersion) {
		t.Fatalf("unknown v2 flags: got %v, want wire.ErrWireVersion", err)
	}
}

// countingConn counts the Read calls that reach the socket.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// TestServeConnOneReadPerFrame pins what the buffered inbound side buys: k
// frames, each consumed before the next is written, cost serveConn k reads of
// the socket and one more that finds it closed — header and body used to be a
// read each.
func TestServeConnOneReadPerFrame(t *testing.T) {
	const k = 8
	a, c := loopbackPair(t)
	defer func() { _ = a.Close() }()
	conn := &countingConn{Conn: c}
	p := testPeer(t, k+1, 0, peerConfig{})
	m := &Mesh{}
	m.state.Store(&epochState{epoch: 1, peers: []*peer{p}})
	m.wg.Add(1)
	go m.serveConn(conn, &frameReader{to: 0})

	w := wire.NewWriter(64)
	msgs := benchEnvelopes()
	for from := 1; from <= k; from++ {
		if err := writeFrame(a, w, 0, 0, 1, 1, ident.ProcID(from), msgs); err != nil {
			t.Fatal(err)
		}
		for arrived := 0; arrived < from; runtime.Gosched() {
			p.mu.Lock()
			arrived = p.bufs[1].arrived
			p.mu.Unlock()
		}
	}
	_ = a.Close()
	m.wg.Wait()
	if got := conn.reads.Load(); got > k+1 {
		t.Fatalf("%d frames cost %d reads of the socket, want at most %d", k, got, k+1)
	}
}
