package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// ErrMeshBusy rejects a Mesh.Run while a previous instance on the same mesh
// has not finished: a mesh multiplexes epochs sequentially, never
// concurrently (each service shard owns one mesh and runs one instance at a
// time; a second concurrent caller indicates a wiring bug, not load).
var ErrMeshBusy = errors.New("transport: mesh is already running an instance")

// ErrMeshClosed ends a link-delay hold that Close found pending.
var ErrMeshClosed = errors.New("transport: mesh closed")

// Mesh is a warm, long-lived localhost TCP mesh for n processors: the n
// listeners and the n×(n-1) outbound connections are dialed once and reused
// by every subsequent instance, and so is everything else a processor needs
// per instance — its peer, with the barrier slots, the outgoing rows, the
// send instants, the timeout timer and the link-delay hold's channel. Each
// Run is one epoch: it resets the n peers in place for it (peer.reset), and
// frames carry the epoch's tag, so stragglers from a finished epoch are
// recognized by their stale tag and dropped without touching the new
// instance. A failed write mid-epoch falls back to the ctx-aware backoff
// dialer (reconnect-on-failure), so a restarted peer process rejoins without
// the mesh being rebuilt.
//
// A Mesh is safe for use from one goroutine at a time: Run rejects
// concurrent instances with ErrMeshBusy, and Close must not race a Run.
type Mesh struct {
	n         int
	netCfg    Net
	listeners []net.Listener
	addrs     []string
	peers     []*peer // by processor id, for the mesh's life
	waker     *waker  // the link-delay holds' one clock; nil when Net.LinkDelay is zero

	// state holds the current epoch's tag. It is installed by Run after the
	// peers were reset and before any of the epoch's senders start, so by the
	// time a frame tagged with the new epoch can reach a reader, the reader's
	// load here observes the new tag; frames tagged with an older epoch are
	// stragglers and are dropped.
	state   atomic.Pointer[epochState]
	epoch   uint64 // last epoch started; only Run mutates, guarded by running
	running atomic.Bool
	// runner and eng set up and step each epoch once the last one's peers
	// returned; errs and stepping are the peers' results and join.
	runner   core.Runner
	eng      sim.Engine
	errs     []error
	stepping sync.WaitGroup
	wake     func() // wakePeers, bound once: what a Run's ending context calls

	mu      sync.Mutex
	inbound []net.Conn // accepted connections, closed by Close
	closed  bool

	wg sync.WaitGroup // accept loops and per-connection readers
}

// epochState is the per-instance routing table: inbound frames tagged with
// this epoch are delivered to these peers (the mesh's). A reader may still
// hold an earlier epoch's pointer when the next Run resets the peers; the
// peers' own epoch check drops what it hands them.
type epochState struct {
	epoch uint64
	peers []*peer
}

// NewMesh builds the warm mesh: n listeners, the full outbound mesh dialed
// concurrently with jittered backoff, and the accept-side frame readers.
// The mesh holds no instance state until the first Run.
func NewMesh(ctx context.Context, n int, netCfg Net) (*Mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: mesh needs at least one processor, got %d", n)
	}
	if netCfg.PhaseTimeout <= 0 {
		netCfg.PhaseTimeout = 5 * time.Second
	}
	m := &Mesh{
		n:         n,
		netCfg:    netCfg,
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		peers:     make([]*peer, n),
		errs:      make([]error, n),
	}
	m.wake = m.wakePeers
	if netCfg.LinkDelay > 0 {
		var err error
		if m.waker, err = newWaker(); err != nil {
			return nil, fmt.Errorf("transport: mesh: %w", err)
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		m.listeners[i] = ln
		m.addrs[i] = ln.Addr().String()
		m.wg.Add(1)
		go m.acceptLoop(ident.ProcID(i), ln)
	}
	ver := netCfg.WireVersion
	if ver == 0 {
		ver = wire.FrameVersion
	}
	if err := wire.CheckFrameVersion(ver); err != nil {
		m.Close()
		return nil, fmt.Errorf("transport: mesh: %w", err)
	}
	for i := range m.peers {
		m.peers[i] = newPeer(m, ident.ProcID(i), ver)
	}
	// Dial every row concurrently: mesh construction races each listener
	// against every dialer, so the jittered backoff in dialPeer does the
	// smoothing, exactly as the per-run dial used to.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			for j := range p.conns {
				if ident.ProcID(j) == p.id {
					continue
				}
				conn, err := dialPeer(ctx, m.addrs[j], p.rng)
				if err != nil {
					errs[p.id] = fmt.Errorf("dial %s: %w", m.addrs[j], err)
					return
				}
				p.conns[j] = conn
			}
		}(m.peers[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: mesh: %w", err)
		}
	}
	return m, nil
}

// SetPeerWireVersion pins the frame version one processor's peer emits —
// the mixed-version drill a rolling upgrade performs: downgrade one peer's
// emitter to wire.FrameVersionMin and the instance must still complete,
// because every receiver accepts the whole window. The scripted fleet roll
// (TestServeRollingUpgrade, `make upgrade`) exercises both granularities:
// whole processes restarted across -wire-version values, and a single peer
// re-versioned between epochs of one warm mesh via this call. Must not race
// a Run.
func (m *Mesh) SetPeerWireVersion(id ident.ProcID, ver byte) error {
	if int(id) < 0 || int(id) >= m.n {
		return fmt.Errorf("transport: no peer %d in a mesh of %d", id, m.n)
	}
	if ver == 0 {
		ver = wire.FrameVersion
	}
	if err := wire.CheckFrameVersion(ver); err != nil {
		return err
	}
	m.peers[id].ver = ver
	return nil
}

// acceptLoop serves one processor's listener for the life of the mesh.
func (m *Mesh) acceptLoop(to ident.ProcID, ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			_ = conn.Close()
			return
		}
		m.inbound = append(m.inbound, conn)
		m.wg.Add(1)
		m.mu.Unlock()
		go m.serveConn(conn, &frameReader{to: to})
	}
}

// serveConn pumps frames off one accepted connection into the current
// epoch's peer, which copies what it keeps (noteFrame). Frames tagged with a
// stale epoch are dropped before their message section is decoded. The
// socket is read through one 4 KiB buffer: a frame costs one read, not one
// each for header and body.
func (m *Mesh) serveConn(conn net.Conn, fr *frameReader) {
	defer m.wg.Done()
	defer func() { _ = conn.Close() }()
	br := bufio.NewReaderSize(conn, 4096)
	for {
		epoch, err := fr.readFrame(br)
		if err != nil {
			return
		}
		st := m.state.Load()
		if st == nil || epoch != st.epoch {
			continue // straggler from a finished epoch
		}
		phase, from, msgs, err := fr.decode()
		if err != nil {
			return
		}
		st.peers[fr.to].noteFrame(epoch, phase, from, msgs)
	}
}

// Run executes one instance (one epoch) over the warm mesh, as RunCluster
// does, but listeners and connections survive for the next Run. What the
// in-memory engine refuses is refused here with the same error before any
// frame is sent, and a rushing configuration with errors.ErrUnsupported: a
// rushing adversary sees the phase's correct traffic before it sends, and
// mesh peers step concurrently.
func (m *Mesh) Run(ctx context.Context, cfg core.Config) (*Result, error) {
	if cfg.N != m.n {
		return nil, fmt.Errorf("transport: mesh built for n=%d, config has n=%d", m.n, cfg.N)
	}
	if cfg.Rushing {
		return nil, fmt.Errorf("transport: a mesh cannot rush: %w", errors.ErrUnsupported)
	}
	if !m.running.CompareAndSwap(false, true) {
		return nil, ErrMeshBusy
	}
	defer m.running.Store(false)

	setup, err := m.runner.Setup(cfg)
	if err != nil {
		return nil, err
	}
	sink := cfg.ResolveTrace(ctx)
	if err := m.eng.Reset(sim.Config{
		N: cfg.N, T: cfg.T, Transmitter: cfg.Transmitter, Phases: setup.Phases,
		Faulty: setup.Faulty, Trace: sink, Faults: cfg.Faults,
	}, setup.Nodes); err != nil {
		return nil, err
	}
	core.EmitCorruptions(sink, setup.Faulty)

	m.epoch++
	epoch := m.epoch
	pc := peerConfig{t: cfg.T, phases: setup.Phases, faults: cfg.Faults, clock: time.Now()}
	for _, p := range m.peers {
		p.reset(epoch, pc)
	}
	// Install the epoch's routing state BEFORE launching any sender: every
	// frame tagged with this epoch is written after this store, so a reader
	// that received such a frame observes the new state when it loads.
	m.state.Store(&epochState{epoch: epoch, peers: m.peers})

	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, m.wake)() // a cancelled context ends every peer's waitPhase
	}
	for i, p := range m.peers {
		m.stepping.Add(1)
		go func() {
			defer m.stepping.Done()
			m.errs[i] = p.run(ctx, epoch)
		}()
	}
	m.stepping.Wait()
	for i, err := range m.errs {
		if err != nil && !setup.Faulty.Has(ident.ProcID(i)) {
			return nil, fmt.Errorf("transport: processor %d: %w", i, err)
		}
	}
	res := m.eng.Finish()
	return &Result{Decisions: res.Decisions, Report: res.Report, Faulty: res.Faulty}, nil
}

// wakePeers rouses every peer's waitPhase to look at its context again.
func (m *Mesh) wakePeers() {
	for _, p := range m.peers {
		p.wake()
	}
}

// Close tears the mesh down: listeners, outbound and inbound connections and
// the link-delay waker. It must not race a Run; stragglers in per-connection
// readers exit on their connection's close. Idempotent.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	inbound := m.inbound
	m.mu.Unlock()
	for _, ln := range m.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		for _, c := range p.conns {
			if c != nil {
				_ = c.Close()
			}
		}
		if p.timeout != nil {
			p.timeout.Stop()
		}
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	if m.waker != nil {
		m.waker.close()
	}
	m.wg.Wait()
}

// frameReader decodes one connection's inbound frames into scratch it
// keeps: a body that grows to the largest frame read, a reusable
// wire.Reader, and the envelope and signer lists of the frame last decoded.
// What decode returns aliases that scratch and is valid until the next
// readFrame: noteFrame copies what the peer keeps.
type frameReader struct {
	to      ident.ProcID
	hdr     [4]byte
	body    []byte
	rd      wire.Reader
	ver     byte // version byte of the frame last read
	envs    []sim.Envelope
	signers []ident.ProcID // every signer list of the frame last decoded, end to end
}

// readFrame reads one length-prefixed frame into the reader's buffer and
// decodes the version byte and epoch tag, leaving the message section for
// decode — callers drop stale-epoch frames without paying for their decode.
// A version outside the compatibility window fails with wire.ErrWireVersion
// before any layout behind the byte is trusted; the caller closes the
// connection rather than guessing where the next frame starts.
func (fr *frameReader) readFrame(conn io.Reader) (uint64, error) {
	if _, err := io.ReadFull(conn, fr.hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if cap(fr.body) < int(n) {
		fr.body = make([]byte, n)
	}
	fr.body = fr.body[:n]
	if _, err := io.ReadFull(conn, fr.body); err != nil {
		return 0, err
	}
	fr.rd.Reset(fr.body)
	fr.ver = fr.rd.Byte()
	if err := fr.rd.Err(); err != nil {
		return 0, err
	}
	if err := wire.CheckFrameVersion(fr.ver); err != nil {
		return 0, err
	}
	epoch := fr.rd.Uint()
	return epoch, fr.rd.Err()
}

// decode parses the message section of the frame last read. The returned
// envelopes, their payloads and signer lists live in the reader's scratch.
func (fr *frameReader) decode() (int, ident.ProcID, []sim.Envelope, error) {
	r := &fr.rd
	phase := int(r.Uint())
	from := r.Proc()
	if fr.ver >= wire.FrameV2 {
		// The v2 reserved frame-flags field: no flag is defined yet, so any
		// set bit comes from a future version this build cannot honor.
		if flags := r.Uint(); r.Err() == nil && flags != 0 {
			return 0, 0, nil, fmt.Errorf("%w: unknown frame flags %#x", wire.ErrWireVersion, flags)
		}
	}
	cnt := r.Len()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	envs := fr.envs[:0]
	fr.signers = fr.signers[:0]
	for i := 0; i < cnt; i++ {
		payload := r.BytesField()
		start := len(fr.signers)
		fr.signers = r.ProcsInto(fr.signers)
		signers := fr.signers[start:len(fr.signers):len(fr.signers)]
		sigTotal := int(r.Uint())
		if err := r.Err(); err != nil {
			return 0, 0, nil, err
		}
		envs = append(envs, sim.Envelope{
			From: from, To: fr.to, Phase: phase,
			Payload: payload, Signers: signers, SigTotal: sigTotal,
		})
	}
	if err := r.Finish(); err != nil {
		return 0, 0, nil, err
	}
	fr.envs = envs
	return phase, from, envs, nil
}
