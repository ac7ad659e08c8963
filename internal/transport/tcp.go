// Package transport runs a protocol instance over a real network stack:
// every processor is a goroutine with a TCP listener on localhost, the full
// mesh is wired with length-prefixed frames, and lock-step synchrony is
// enforced by the classical α-synchronizer pattern — each processor sends
// exactly one frame (possibly empty) to every peer per phase until the run
// ends and advances once it holds the previous phase's frame from every peer
// (or the per-phase timeout fires, which tolerates crashed peers). A halted
// processor's frames are empty; every peer stops once the phase it closed is
// the run's last (sim.Engine.Ended), so the mesh ends at the phase the
// in-memory run does.
//
// TCP is the second delivery backend of sim.Engine's phase step: a peer is
// one processor's step (Engine.Halted, Deliver, Step) plus the barrier, the
// frames and the link-delay hold. The run is set up by core.Runner.Setup and
// validated by the same sim.Config as an in-memory run, and its trace equals
// the in-memory one but for the signature cache's verify-hit/verify-miss
// events, which a mesh does not record. The network-specific knobs live in
// Net.
//
// Fault injection: once a phase's barrier closes, Engine.Deliver turns the
// raw frames a peer holds into its inbox under the plan's verdicts (every
// frame counted as an arrival, so no injected fault waits out a timeout), and
// a crash rule halts the peer before it consumes its phase. The plan is a pure
// function of its seed, so fault runs replay byte-identically. A receiver
// whose information gap (frames missing plus frames withheld) exceeds t
// returns ErrStalled instead of risking a divergent decision; a halted
// sender is neither missing nor withheld.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// ErrStalled indicates a processor gave up on a phase: the frames it never
// received plus the frames the fault plan withheld exceed the fault bound t,
// so deciding would risk disagreement. Over-budget fault scenarios that
// validation lets through surface as this error, never as a divergent
// decision.
var ErrStalled = errors.New("transport: phase stalled beyond timeout")

// maxFrame bounds a single frame on the wire (16 MiB).
const maxFrame = 16 << 20

// ErrFrameTooLarge is returned by the frame reader when a peer announces a
// body larger than maxFrame. The oversized body is never allocated or read:
// a hostile or corrupt length header costs the receiver 4 bytes, not 4 GiB.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// Net carries the network-substrate knobs of a cluster run — everything a
// TCP execution needs beyond the protocol description in core.Config.
type Net struct {
	// PhaseTimeout is the per-phase wait for missing peers (default 5s).
	PhaseTimeout time.Duration

	// Mute lists processors whose frames are never flushed — simulating a
	// machine that died without closing its sockets. Peers fall back to
	// the phase timeout when waiting on a muted processor, so runs with
	// Mute processors take ≈ phases × PhaseTimeout; keep the timeout small
	// in tests. Muted processors should also be in the faulty set: a
	// correct processor cannot be muted without violating the synchrony
	// assumption the protocols rely on.
	Mute ident.Set

	// LinkDelay models one-way network latency, per link: no envelope reaches
	// its receiver's Step(k+1) earlier than LinkDelay after its sender's
	// Step(k) returned. Senders flush at once; a receiver whose barrier has
	// closed holds its step until the latest sender it heard from is
	// LinkDelay old, so the frames travel while the delay is served and an
	// instance takes ≈ LinkDelay for each phase boundary it steps past —
	// EndPhase-1 of them — plus waking up and the steps, its CPU otherwise
	// idle — the regime a real deployment is in, where loopback
	// is unrealistically fast. One hold per peer per phase on the mesh's one
	// deadline waker (waker_linux.go; a runtime timer would be
	// millisecond-grained), never cut short, never affecting determinism;
	// zero disables it: no waker, no send instant recorded. The instants live
	// in memory, not in the frame: a mesh hosts all n peers on one clock.
	LinkDelay time.Duration

	// WireVersion selects the frame version this cluster's peers emit
	// (zero means wire.FrameVersion, the newest this build knows). Receivers
	// always accept the whole compatibility window
	// [wire.FrameVersionMin, wire.FrameVersion] regardless of this setting —
	// pinning the emitted version one release back is how a mesh rolls
	// through an encoding change (see Mesh.SetPeerWireVersion for per-peer
	// mixed-version drills).
	WireVersion byte
}

// Result mirrors sim.Result for a cluster run.
type Result struct {
	Decisions map[ident.ProcID]sim.Decision
	Report    metrics.Report
	Faulty    ident.Set
	EndPhase  int
}

// Decision returns the common decision of the correct processors, or an
// agreement violation error, using the same judge as the in-memory engine
// (core.CheckDecisions).
func (r *Result) Decision(transmitter ident.ProcID, transmitterValue ident.Value) (ident.Value, error) {
	return core.CheckDecisions(r.Decisions, r.Faulty, transmitter, transmitterValue)
}

// RunCluster executes cfg over localhost TCP: every processor is a
// goroutine with its own listener, wired into a full mesh. Setup (scheme
// defaulting, corruption, node construction) is shared with core.Run via
// core.Runner.Setup.
//
// RunCluster is a single-epoch mesh: it dials a fresh Mesh, runs one
// instance and tears the sockets down again. Callers running many
// instances should hold a Mesh and call Run per instance — the warm path
// the serving layer uses (see service.NewWarmTCP).
//
// Tracing: the sink is resolved as in core.Run (cfg.Trace, else the
// context's). Each peer's step records into buckets by (phase, stage), which
// sim.Engine.Finish replays in the in-memory order once every peer returned:
// the trace is deterministic, and the in-memory one minus its verify-* events.
func RunCluster(ctx context.Context, cfg core.Config, netCfg Net) (*Result, error) {
	m, err := NewMesh(ctx, cfg.N, netCfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(ctx, cfg)
}

// peerConfig is what an epoch sets in each peer: the slice of its run's
// configuration one processor needs.
type peerConfig struct {
	t, phases int
	faults    *faultnet.Plan // nil injects nothing (all methods nil-safe)
	clock     time.Time      // the epoch's start, which the sent instants count from
}

// peer is one processor's share of a Mesh. NewMesh builds the n peers and
// they live as long as the mesh: the outbound connection row and frame
// writer, the barrier the inbound frames land in and the blocks their
// payloads and signer lists are copied into, the send instants, the outgoing
// rows, the timeout timer and the link-delay hold's channel. Run resets the
// epoch's part in place (reset), so a warm instance makes none of it. Frames
// reach the peer through the mesh's readers, and noteFrame takes only those
// of the epoch the peer was last reset for.
type peer struct {
	id    ident.ProcID
	m     *Mesh // n, the phase timeout, the link delay, the waker, the engine and the other peers
	muted bool  // Net.Mute names this processor: its frames are never flushed

	// The outbound half, touched only by the processor's goroutine (one per
	// epoch, epochs are sequential) and by Close: the connections by
	// destination (nil at the own index), a reusable frame writer, the frame
	// version it emits and the redial jitter rng.
	conns []net.Conn
	w     *wire.Writer
	ver   byte
	rng   *rand.Rand

	cfg      peerConfig         // the epoch's, set by reset
	send     func(sim.Envelope) // queue, bound once
	timeout  *time.Timer        // wakes cond when the phase being waited on runs out of time
	hold     chan struct{}      // releases the peer's one link-delay hold (waker.sleepUntil)
	outgoing [][]sim.Envelope   // this phase's frames by recipient; the peer's goroutine only

	mu    sync.Mutex
	cond  sync.Cond // on mu
	epoch uint64    // the epoch whose frames noteFrame takes
	// bufs holds the two phases a frame can belong to, phase k in bufs[k&1]:
	// the one the barrier is waiting on (done+1) and the next, which a fast
	// neighbour may already have flushed. No correct sender is further ahead —
	// closing done+2 takes this peer's done+2 frame, sent only after done+1
	// closed here — so anything else is a straggler or a sender that already
	// timed this peer out, and noteFrame drops it.
	bufs [2]phaseBuf
	// payloads and signers hold what noteFrame keeps of a frame. Their
	// blocks are never written again once carved, across epochs too, so a
	// node may keep what it is delivered (sim.Node).
	payloads sig.Blocks[byte]
	signers  sig.Blocks[ident.ProcID]
	done     int // highest phase waitPhase has closed out
	want     int // arrivals that complete the phase being waited on; 0 outside waitPhase

	// sent[k&1] is when Step(k) returned here, in nanoseconds past cfg.clock,
	// stored before phase k's first frame is written. The slots are reused as
	// bufs' are: a receiver too slow to read phase k's before k+2 overwrote it
	// sees a later instant and holds longer, never shorter.
	sent [2]atomic.Int64
}

// phaseBuf is one phase's side of the barrier: the raw frames by sender (the
// arrays keep their capacity across the phases and epochs sharing the slot)
// and who sent.
type phaseBuf struct {
	frames  [][]sim.Envelope
	heard   []bool
	arrived int // senders heard from
}

// newPeer builds processor id's peer for m, emitting frame version ver. It
// takes no frame until its first reset.
func newPeer(m *Mesh, id ident.ProcID, ver byte) *peer {
	p := &peer{
		id: id, m: m, muted: m.netCfg.Mute.Has(id),
		conns: make([]net.Conn, m.n), w: wire.NewWriter(256), ver: ver,
		rng:  rand.New(rand.NewSource((int64(id) + 1) * 0x9e3779b9)),
		hold: make(chan struct{}, 1), outgoing: make([][]sim.Envelope, m.n),
		payloads: sig.NewBlocks[byte](inboundBytesMin, inboundBytesMax),
		signers:  sig.NewBlocks[ident.ProcID](inboundProcsMin, inboundProcsMax),
	}
	p.send = p.queue
	p.cond.L = &p.mu
	for i := range p.bufs {
		p.bufs[i] = phaseBuf{frames: make([][]sim.Envelope, m.n), heard: make([]bool, m.n)}
	}
	return p
}

// A peer's inbound blocks start at a few frames' worth and double to the
// caps a sig.Slab's bytes and identities have.
const (
	inboundBytesMin, inboundBytesMax = 512, 16 << 10
	inboundProcsMin, inboundProcsMax = 128, 4096
)

// reset readies the peer for epoch under cfg. The barrier slots and outgoing
// rows keep their capacity and are recycled (sig.Recycle: zeroed, poisoned in
// race builds), so no envelope of an earlier epoch stays reachable through
// them. It holds mu: a reader that loaded an earlier epoch's state may be in
// noteFrame, which drops that frame once the epoch has moved on.
func (p *peer) reset(epoch uint64, cfg peerConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch, p.cfg, p.done, p.want = epoch, cfg, 0, 0
	for i := range p.bufs {
		buf := &p.bufs[i]
		recycleRows(buf.frames)
		clear(buf.heard)
		buf.arrived = 0
	}
	recycleRows(p.outgoing)
	p.sent[0].Store(0)
	p.sent[1].Store(0)
}

// recycleRows empties every row, recycling all the slots its capacity holds.
func recycleRows(rows [][]sim.Envelope) {
	for i, row := range rows {
		sig.Recycle(row[:cap(row)], sim.Poisoned)
		rows[i] = row[:0]
	}
}

// wake rouses waitPhase to look at its deadline and context again.
func (p *peer) wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// noteFrame stores the raw content of a frame of epoch that arrived from a
// peer and marks the sender as arrived; the fault plan is applied later, in
// one place (waitPhase), which is woken only by the arrival that completes its
// phase. The envelopes are copied into the barrier slot, and their payloads
// and signer lists into the peer's blocks: msgs is the reader's scratch. A
// frame of another epoch than the peer's is a straggler that a reader took
// before the peer was reset, and is dropped. So are frames for a phase
// waitPhase has already closed out — their slot now belongs to a later
// phase — frames more than two phases past it (see bufs) and frames naming a
// sender outside the cluster; a dropped frame carves nothing.
func (p *peer) noteFrame(epoch uint64, phase int, from ident.ProcID, msgs []sim.Envelope) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch != p.epoch || phase <= p.done || phase > p.done+2 || int(from) < 0 || int(from) >= p.m.n {
		return
	}
	buf := &p.bufs[phase&1]
	for _, e := range msgs {
		e.Payload = append(p.payloads.Carve(len(e.Payload))[:0], e.Payload...)
		e.Signers = append(p.signers.Carve(len(e.Signers))[:0], e.Signers...)
		buf.frames[from] = append(buf.frames[from], e)
	}
	if !buf.heard[from] {
		buf.heard[from] = true
		buf.arrived++
		if phase == p.done+1 && buf.arrived == p.want {
			p.cond.Broadcast()
		}
	}
}

// waitPhase closes the phase out (closePhase) and then, the lock released,
// serves the link delay: it holds until the latest sender heard from is
// the link delay past the end of its Step(phase) — the frames were in flight
// meanwhile. A sender never heard from already cost the timeout and is not
// waited on again. Only ctx's error or ErrMeshClosed end a hold early; a
// phase that ended the run (errEnded) is not held.
func (p *peer) waitPhase(ctx context.Context, phase int) ([]sim.Envelope, error) {
	inbox, sent, err := p.closePhase(ctx, phase)
	delay := p.m.netCfg.LinkDelay
	if err != nil || delay == 0 {
		return inbox, err
	}
	return inbox, p.m.waker.sleepUntil(ctx, p.cfg.clock.Add(sent+delay), p.hold)
}

// closePhase blocks until frames for the phase arrived from all peers that
// can still send (plan-crashed processors are not waited for), the timeout
// fires or ctx ends. If the phase was the run's last it returns errEnded;
// otherwise it hands the raw frames to the step's Deliver, which builds the
// sender-ordered inbox under the fault plan — including any plan-delayed
// content due this phase — and records the fault-* events. It fails with
// ctx's error when that is what ended the wait, and with ErrStalled when the
// receiver's information gap — frames physically missing plus live frames
// the plan withheld, a halted sender's not among them (Engine.Deliver) —
// exceeds the fault bound t: deciding on that little information could
// diverge. The second result is the latest sent instant among the senders
// heard from (zero without a link delay).
func (p *peer) closePhase(ctx context.Context, phase int) ([]sim.Envelope, time.Duration, error) {
	n, timeout := p.m.n, p.m.netCfg.PhaseTimeout
	deadline := time.Now().Add(timeout)
	if p.timeout == nil {
		p.timeout = time.AfterFunc(timeout, p.wake)
	} else {
		p.timeout.Reset(timeout)
	}
	defer p.timeout.Stop() // a firing that slips past Stop is one spurious wake-up of a later phase

	p.mu.Lock()
	defer p.mu.Unlock()
	buf := &p.bufs[phase&1]
	p.want = n - 1 - p.cfg.faults.CrashSilent(phase, p.id, n)
	for buf.arrived < p.want && time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		p.cond.Wait()
	}
	p.want = 0
	if p.m.eng.Ended(phase) {
		return nil, 0, errEnded
	}
	missing := n - 1 - buf.arrived // crashed peers count as missing
	var sent time.Duration
	if p.m.netCfg.LinkDelay > 0 {
		for from, heard := range buf.heard {
			if heard {
				sent = max(sent, time.Duration(p.m.peers[from].sent[phase&1].Load()))
			}
		}
	}
	inbox, withheld := p.m.eng.Deliver(p.id, phase+1, buf.frames)
	for i := range buf.frames {
		buf.frames[i] = buf.frames[i][:0] // Deliver copied what it kept
	}
	clear(buf.heard)
	buf.arrived = 0
	p.done = phase
	if gap := missing + withheld; gap > p.cfg.t {
		return nil, 0, fmt.Errorf("phase %d: %w: %d frames missing or withheld > t=%d",
			phase, ErrStalled, gap, p.cfg.t)
	}
	return inbox, sent, nil
}

// errEnded is how closePhase reports that the phase it closed was the run's
// last: every correct processor had halted. The peer's loop ends without
// error, and nothing is stepped after that phase.
var errEnded = errors.New("transport: run ended")

// run executes the peer's phase loop for one mesh epoch. The mesh's
// inbound readers outlive an early peer exit on purpose: closing inbound
// links the moment a peer stalls or crashes would turn its neighbors'
// in-flight writes into broken pipes and cascade one typed failure into
// untyped ones. Frames arriving after the peer stopped consuming are
// discarded by noteFrame's late-phase guard (or by its epoch check, once the
// next instance starts). Mesh.Run wakes every peer when ctx ends.
func (p *peer) run(ctx context.Context, epoch uint64) error {
	n, eng, delay := p.m.n, &p.m.eng, p.m.netCfg.LinkDelay
	for phase := 1; phase <= p.cfg.phases+1; phase++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if eng.Halted(p.id, phase) {
			// Halted before consuming phase-1's frames: the processor neither
			// steps nor sends from here on. Its sockets stay open until the
			// mesh's teardown so live peers keep their links.
			return nil
		}
		var inbox []sim.Envelope
		if phase > 1 {
			var err error
			inbox, err = p.waitPhase(ctx, phase-1)
			if err == errEnded {
				return nil // every correct processor halted by phase-1: nothing is stepped after it
			}
			if err != nil {
				return err
			}
		}
		for i := range p.outgoing {
			p.outgoing[i] = p.outgoing[i][:0]
		}
		if err := eng.Step(p.id, phase, inbox, p.send); err != nil {
			return err
		}

		// Flush one frame (possibly empty) to every peer, at once: the link
		// delay is served by the receivers, counted from this instant. A
		// phase's peers are released together onto a few Ps, so each yields
		// between its instant and its writes: all have stepped before any
		// spends its n-1 syscalls, as on n machines.
		if phase <= p.cfg.phases && !p.muted {
			if delay > 0 {
				p.sent[phase&1].Store(int64(time.Since(p.cfg.clock)))
				runtime.Gosched()
			}
			for i := 0; i < n; i++ {
				to := ident.ProcID(i)
				if to == p.id {
					continue
				}
				if p.cfg.faults.Crashed(to, phase+1) {
					// The receiver halts before it would consume this frame.
					continue
				}
				if err := p.write(ctx, epoch, phase, to, p.outgoing[to]); err != nil {
					if p.cfg.faults.CrashPhase(to) != 0 {
						// Best-effort towards a peer that crashes later in
						// the run: a torn-down socket is part of the scenario.
						continue
					}
					return fmt.Errorf("phase %d send to %d: %w", phase, i, err)
				}
			}
		}
	}
	return nil
}

// write sends one frame to `to`, redialing once on failure: a peer that
// restarted keeps its listener address (the mesh owns the listeners), so a
// broken outbound link is replaced in place without disturbing the rest of
// the row.
func (p *peer) write(ctx context.Context, epoch uint64, phase int, to ident.ProcID, msgs []sim.Envelope) error {
	timeout := p.m.netCfg.PhaseTimeout
	conn := p.conns[to]
	err := writeFrame(conn, p.w, timeout, p.ver, epoch, phase, p.id, msgs)
	if err == nil {
		return nil
	}
	nc, derr := dialPeer(ctx, p.m.addrs[to], p.rng)
	if derr != nil {
		return err
	}
	_ = conn.Close()
	p.conns[to] = nc
	return writeFrame(nc, p.w, timeout, p.ver, epoch, phase, p.id, msgs)
}

// queue is the mesh's half of a send: the envelope joins its recipient's frame.
func (p *peer) queue(e sim.Envelope) {
	p.outgoing[e.To] = append(p.outgoing[e.To], e)
}

// dialPeer dials addr with capped exponential backoff and jitter, giving up
// promptly when ctx is cancelled. Mesh construction races every peer's
// listener against every other peer's dialer, so early refusals are
// expected; the jittered backoff replaces a fixed-interval retry loop that
// hammered the listen backlog in lock-step across n² dials.
func dialPeer(ctx context.Context, addr string, rng *rand.Rand) (net.Conn, error) {
	var d net.Dialer
	deadline := time.Now().Add(5 * time.Second)
	backoff := 2 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		// Sleep backoff/2 + U[0, backoff): mean backoff, decorrelated.
		wait := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// Frame wire format: u32 length, then body: version byte, uvarint epoch,
// phase, sender, a reserved frame-flags uvarint at v2+ (must be zero),
// count, then per message: payload bytes, signer list, sigTotal. The epoch
// tag is how a warm mesh resets between instances without reconnecting —
// receivers drop frames whose tag is not the current epoch's. The version
// byte leads the body so receivers can reject a frame from outside the
// compatibility window (wire.ErrWireVersion) before trusting any layout
// assumption behind it.
//
// writeFrame encodes into the caller's reusable writer (header placeholder
// patched in place, one Write call) so the steady-state path allocates
// nothing; timeout bounds the whole frame write: a receiver that stopped
// reading while its kernel buffers are full would otherwise block the
// sender's phase loop forever, turning one sick peer into a cluster-wide
// hang. A timeout ≤ 0 leaves the write unbounded. writeFrame is the only
// writer of a mesh connection, so one deadline call per frame keeps every
// write to its own: a timed write sets its deadline, an untimed one clears
// whatever an earlier frame left.
func writeFrame(conn net.Conn, w *wire.Writer, timeout time.Duration, ver byte, epoch uint64, phase int, from ident.ProcID, msgs []sim.Envelope) error {
	if ver == 0 {
		ver = wire.FrameVersion
	}
	w.Reset()
	w.Byte(0)
	w.Byte(0)
	w.Byte(0)
	w.Byte(0)
	w.Byte(ver)
	w.Uint(epoch)
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
	buf := w.Bytes()
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	return err
}
