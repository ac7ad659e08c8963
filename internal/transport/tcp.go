// Package transport runs a protocol instance over a real network stack:
// every processor is a goroutine with a TCP listener on localhost, the full
// mesh is wired with length-prefixed frames, and lock-step synchrony is
// enforced by the classical α-synchronizer pattern — each processor sends
// exactly one frame (possibly empty) to every peer per phase and advances
// once it holds the previous phase's frame from every peer (or the
// per-phase timeout fires, which tolerates crashed peers).
//
// The same sim.Node state machines that drive the in-memory engine run
// unmodified over TCP; only the delivery substrate changes. Runs are
// described by the same core.Config the engine consumes — RunCluster reuses
// core.Runner.Setup for defaulting, corruption choice and node construction, and
// core.CheckDecisions for judging agreement, so the two substrates cannot
// drift. The network-specific knobs (phase timeout, muted processors) live
// in Net.
//
// Fault injection: a compiled faultnet.Plan in core.Config.Faults is applied
// at the frame layer by faultnet.Deliver, the same function the in-memory
// engine calls: once a phase's barrier closes, the raw frames a peer holds
// are turned into its inbox under the plan's drop/delay/dup/reorder/partition
// verdicts (every frame still counted as an arrival, so lock-step progress
// never waits out a timeout for an injected fault), and crash-at-phase-k
// halts the peer's run loop with ErrPeerCrashed before it consumes phase k.
// The plan is a pure function of its seed, so every peer evaluates the same
// schedule independently and fault runs replay byte-identically. A receiver
// whose per-phase information gap (frames physically missing plus frames the
// plan withheld) exceeds t returns ErrStalled instead of risking a divergent
// decision.
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
	"byzex/internal/sim"
	"byzex/internal/trace"
	"byzex/internal/wire"
)

// Errors.
var (
	// ErrStalled indicates a processor gave up on a phase: the frames it
	// never received plus the frames the fault plan withheld exceed the
	// fault bound t, so deciding would risk disagreement. Over-budget fault
	// scenarios surface as this error (or ErrPeerCrashed), never as a
	// divergent decision.
	ErrStalled = errors.New("transport: phase stalled beyond timeout")
	// ErrPeerCrashed reports a processor halted by a crash-at-phase-k rule
	// of the run's fault plan (see faultnet.Rule). RunCluster tolerates it
	// only for processors inside the faulty set.
	ErrPeerCrashed = errors.New("transport: peer crashed by fault plan")
)

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
	// instance takes ≈ phases × LinkDelay plus waking up and the steps, its
	// CPU otherwise idle — the regime a real deployment is in, where loopback
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
// Tracing: the sink is resolved exactly as in core.Run (cfg.Trace, else the
// context's). Each peer records its events privately, bucketed by wall
// phase; after the run the per-peer streams are merged in (wall phase, peer
// id, emission order) order, with PhaseStart/PhaseEnd markers synthesized
// around each wall phase — so the trace is deterministic even though peers
// execute concurrently. Signature-cache events and cache statistics are not
// recorded here: peers share one verifier, so the hit/miss split depends on
// goroutine interleaving.
func RunCluster(ctx context.Context, cfg core.Config, netCfg Net) (*Result, error) {
	m, err := NewMesh(ctx, cfg.N, netCfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(ctx, cfg)
}

// phaseRecorder is a per-peer trace sink. Each peer goroutine owns exactly
// one recorder (so emission needs no locking), bucketing events by the wall
// phase in which they occurred; RunCluster drains the buckets after all
// goroutines have joined.
type phaseRecorder struct {
	buckets [][]trace.Event // indexed by wall phase; index 0 unused
	cur     int
}

func newPhaseRecorder(wallPhases int) *phaseRecorder {
	return &phaseRecorder{buckets: make([][]trace.Event, wallPhases+1), cur: 1}
}

// Emit implements trace.Sink for the owning peer's goroutine.
func (r *phaseRecorder) Emit(e trace.Event) {
	r.buckets[r.cur] = append(r.buckets[r.cur], e)
}

// peerConfig is the per-processor slice of a cluster run's configuration.
type peerConfig struct {
	id          ident.ProcID
	n, t        int
	transmitter ident.ProcID
	phases      int
	timeout     time.Duration
	muted       bool
	faulty      ident.Set
	faults      *faultnet.Plan // nil injects nothing (all methods nil-safe)

	// The link-delay hold, unused when linkDelay is zero: the mesh's waker and
	// the epoch's peers by id, whose sent instants (past clock) a hold reads.
	linkDelay time.Duration
	waker     *waker
	peers     []*peer
	clock     time.Time
}

// peer is one processor's per-epoch runtime: the node state machine and the
// inbound frame buffers. Sockets belong to the Mesh (they outlive the epoch);
// frames reach the peer through the mesh's readers. What a phase needs —
// barrier slots, outgoing rows, the timeout timer — is made once and reused.
type peer struct {
	cfg    peerConfig
	node   sim.Node
	rec    *phaseRecorder // nil when tracing is disabled
	onSend func(phase int, from ident.ProcID, sigTotal, signers, bytes int)

	mu   sync.Mutex
	cond *sync.Cond
	// bufs holds the two phases a frame can belong to, phase k in bufs[k&1]:
	// the one the barrier is waiting on (done+1) and the next, which a fast
	// neighbour may already have flushed. No correct sender is further ahead —
	// closing done+2 takes this peer's done+2 frame, sent only after done+1
	// closed here — so anything else is a straggler or a sender that already
	// timed this peer out, and noteFrame drops it.
	bufs    [2]phaseBuf
	done    int         // highest phase waitPhase has closed out
	want    int         // arrivals that complete the phase being waited on; 0 outside waitPhase
	timeout *time.Timer // wakes cond when the phase being waited on runs out of time

	// sent[k&1] is when Step(k) returned here, in nanoseconds past cfg.clock,
	// stored before phase k's first frame is written. The slots are reused as
	// bufs' are: a receiver too slow to read phase k's before k+2 overwrote it
	// sees a later instant and holds longer, never shorter.
	sent [2]atomic.Int64

	// stash, inbox and outgoing belong to the peer's own goroutine: the
	// plan-delayed content addressed to this peer, the inbox array reused from
	// phase to phase (the sim.Node contract forbids retaining it), and the
	// envelopes of the current phase by recipient.
	stash    faultnet.Stash[sim.Envelope]
	inbox    []sim.Envelope
	outgoing [][]sim.Envelope
}

// phaseBuf is one phase's side of the barrier: the raw frames by sender (the
// arrays keep their capacity across the phases sharing the slot) and who sent.
type phaseBuf struct {
	frames  [][]sim.Envelope
	heard   []bool
	arrived int // senders heard from
}

func newPeer(cfg peerConfig, node sim.Node, rec *phaseRecorder,
	onSend func(int, ident.ProcID, int, int, int)) *peer {
	p := &peer{cfg: cfg, node: node, rec: rec, onSend: onSend, outgoing: make([][]sim.Envelope, cfg.n)}
	for i := range p.bufs {
		p.bufs[i] = phaseBuf{frames: make([][]sim.Envelope, cfg.n), heard: make([]bool, cfg.n)}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// wake rouses waitPhase to look at its deadline and context again.
func (p *peer) wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// noteFrame stores the raw content of a frame that arrived from a peer and
// marks the sender as arrived; the fault plan is applied later, in one place
// (waitPhase), which is woken only by the arrival that completes its phase.
// Frames for a phase waitPhase has already closed out are discarded — their
// slot now belongs to a later phase — and so are frames more than two phases
// past it (see bufs) and frames naming a sender outside the cluster.
func (p *peer) noteFrame(phase int, from ident.ProcID, msgs []sim.Envelope) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if phase <= p.done || phase > p.done+2 || int(from) < 0 || int(from) >= p.cfg.n {
		return
	}
	buf := &p.bufs[phase&1]
	buf.frames[from] = append(buf.frames[from], msgs...)
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
// linkDelay past the end of its Step(phase) — the frames were in flight
// meanwhile. A sender never heard from already cost the timeout and is not
// waited on again. Only ctx's error or ErrMeshClosed end a hold early.
func (p *peer) waitPhase(ctx context.Context, phase int) ([]sim.Envelope, error) {
	inbox, sent, err := p.closePhase(ctx, phase)
	if err != nil || p.cfg.linkDelay == 0 {
		return inbox, err
	}
	return inbox, p.cfg.waker.sleepUntil(ctx, p.cfg.clock.Add(sent+p.cfg.linkDelay))
}

// closePhase blocks until frames for the phase arrived from all peers that
// can still send (plan-crashed processors are not waited for), the timeout
// fires or ctx ends, then hands the raw frames to faultnet.Deliver, which
// builds the sender-ordered inbox under the fault plan — including any
// plan-delayed content due this phase — and records the fault-* events. It
// fails with ctx's error when that is what ended the wait, and with
// ErrStalled when the receiver's information gap — frames physically missing
// plus live frames the plan withheld — exceeds the fault bound t: deciding on
// that little information could diverge. The second result is the latest
// sent instant among the senders heard from (zero without a link delay).
func (p *peer) closePhase(ctx context.Context, phase int) ([]sim.Envelope, time.Duration, error) {
	deadline := time.Now().Add(p.cfg.timeout)
	if p.timeout == nil {
		p.timeout = time.AfterFunc(p.cfg.timeout, p.wake)
	} else {
		p.timeout.Reset(p.cfg.timeout)
	}
	defer p.timeout.Stop() // a firing that slips past Stop is one spurious wake-up of a later phase

	p.mu.Lock()
	defer p.mu.Unlock()
	buf := &p.bufs[phase&1]
	p.want = p.cfg.n - 1 - p.cfg.faults.CrashSilent(phase, p.cfg.id, p.cfg.n)
	for buf.arrived < p.want && time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		p.cond.Wait()
	}
	p.want = 0
	missing := p.cfg.n - 1 - buf.arrived // crashed peers count as missing
	var sent time.Duration
	if p.cfg.linkDelay > 0 {
		for from, heard := range buf.heard {
			if heard {
				sent = max(sent, time.Duration(p.cfg.peers[from].sent[phase&1].Load()))
			}
		}
	}
	var sink trace.Sink
	if p.rec != nil {
		sink = p.rec
	}
	inbox, withheld := faultnet.Deliver(p.cfg.faults, sink, phase, p.cfg.id, buf.frames, &p.stash, p.inbox[:0])
	p.inbox = inbox
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

// run executes the peer's phase loop for one mesh epoch. The mesh's
// inbound readers outlive an early peer exit on purpose: closing inbound
// links the moment a peer stalls or crashes would turn its neighbors'
// in-flight writes into broken pipes and cascade one typed failure into
// untyped ones. Frames arriving after the peer stopped consuming are
// discarded by noteFrame's late-phase guard (or by the mesh's epoch tag,
// once the next instance starts).
func (p *peer) run(ctx context.Context, ep *endpoint, epoch uint64) error {
	defer context.AfterFunc(ctx, p.wake)() // a cancelled context ends waitPhase's wait
	submit := func(e sim.Envelope) {
		p.onSend(e.Phase, e.From, e.SigTotal, len(e.Signers), len(e.Payload))
		if p.rec != nil {
			p.rec.Emit(trace.Event{
				Kind: trace.KindSend, Phase: e.Phase, From: e.From, To: e.To,
				Sigs: e.SigTotal, Signers: len(e.Signers), Bytes: len(e.Payload),
				Flag: p.cfg.faulty.Has(e.From),
			})
		}
		p.outgoing[e.To] = append(p.outgoing[e.To], e)
	}
	for phase := 1; phase <= p.cfg.phases+1; phase++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.rec != nil {
			p.rec.cur = phase
		}
		if p.cfg.faults.CrashPhase(p.cfg.id) == phase {
			// Halt before consuming phase-1's frames: the crashed processor
			// neither steps nor sends from here on. Its sockets stay open
			// until RunCluster's teardown so live peers keep their links.
			if p.rec != nil {
				p.rec.Emit(trace.Event{Kind: trace.KindFaultCrash, Phase: phase, From: p.cfg.id, To: ident.None})
			}
			return fmt.Errorf("phase %d: %w", phase, ErrPeerCrashed)
		}
		var inbox []sim.Envelope
		if phase > 1 {
			var err error
			if inbox, err = p.waitPhase(ctx, phase-1); err != nil {
				return err
			}
		}
		if p.rec != nil {
			// Mirror the engine: one Deliver event per envelope handed to
			// Step, stamped with the wall phase of the delivery.
			for i := range inbox {
				p.rec.Emit(trace.Event{
					Kind: trace.KindDeliver, Phase: phase, From: inbox[i].From, To: inbox[i].To,
					Sigs: inbox[i].SigTotal, Signers: len(inbox[i].Signers), Bytes: len(inbox[i].Payload),
				})
			}
		}

		// Buffer sends per recipient for this phase.
		for i := range p.outgoing {
			p.outgoing[i] = p.outgoing[i][:0]
		}
		nctx := sim.NewContext(p.cfg.id, p.cfg.n, p.cfg.t, p.cfg.transmitter, phase, p.cfg.phases, submit)
		if p.rec != nil {
			// Route adversary send-filter drops (KindOmit) to the recorder.
			nctx = nctx.WithTrace(p.rec)
		}
		if err := p.node.Step(nctx, inbox); err != nil {
			return fmt.Errorf("phase %d: %w", phase, err)
		}

		// Flush one frame (possibly empty) to every peer, at once: the link
		// delay is served by the receivers, counted from this instant. A
		// phase's peers are released together onto a few Ps, so each yields
		// between its instant and its writes: all have stepped before any
		// spends its n-1 syscalls, as on n machines.
		if phase <= p.cfg.phases && !p.cfg.muted {
			if p.cfg.linkDelay > 0 {
				p.sent[phase&1].Store(int64(time.Since(p.cfg.clock)))
				runtime.Gosched()
			}
			for i := 0; i < p.cfg.n; i++ {
				to := ident.ProcID(i)
				if to == p.cfg.id {
					continue
				}
				if p.cfg.faults.Crashed(to, phase+1) {
					// The receiver halts before it would consume this frame.
					continue
				}
				if err := ep.send(ctx, epoch, phase, to, p.cfg.timeout, p.outgoing[to]); err != nil {
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
// hang. A timeout ≤ 0 leaves the connection unbounded.
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
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer func() { _ = conn.SetWriteDeadline(time.Time{}) }()
	}
	_, err := conn.Write(buf)
	return err
}
