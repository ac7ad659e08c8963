// Package sim implements the synchronous message-passing model of Section 2
// of the paper: n completely interconnected processors proceed in lock-step
// phases; during phase k a processor sends messages that are delivered at
// the start of phase k+1; a receiver always knows the immediate source of a
// message ("no processor can send a message to p claiming to be somebody
// else"); and at the beginning of phase k the individual subhistory built
// from the first k-1 phases is all a processor has to work with.
//
// The engine is deterministic: nodes are stepped in identity order and
// inboxes are sorted by sender. Its per-processor phase step is the one both
// substrates run — in memory by Run, over TCP by package transport's mesh,
// one goroutine per processor (see Engine). Byzantine processors are simply
// Node implementations supplied by the adversary; the engine treats them
// identically and only the metrics layer distinguishes correct from faulty
// senders.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/sig"
	"byzex/internal/trace"
)

// Errors returned by the engine and the send path.
var (
	// ErrSendClosed indicates a send after the protocol's last phase.
	ErrSendClosed = errors.New("sim: send after final phase")
	// ErrBadRecipient indicates a send to an out-of-range or self identity.
	ErrBadRecipient = errors.New("sim: bad recipient")
	// ErrCrashNotFaulty refuses a run whose fault plan halts a processor
	// outside the faulty set: it never decides, so judging it correct would
	// report a violation the plan caused.
	ErrCrashNotFaulty = errors.New("sim: fault plan crashes a processor outside the faulty set")
	// ErrTooManyFaulty refuses a run whose faulty set exceeds the fault
	// bound t; its text completes the count, "sim: 3 faulty processors
	// exceed t=2".
	ErrTooManyFaulty = errors.New("faulty processors exceed t")
)

// Envelope is one message in flight. Payload is the protocol-level encoding;
// Signers and SigTotal describe the signatures the payload carries so the
// engine and observers can account for them without parsing protocol bytes.
type Envelope struct {
	From  ident.ProcID
	To    ident.ProcID
	Phase int // phase during which the message was sent

	Payload []byte

	// Signers lists the distinct processor identities whose signatures
	// appear anywhere in the payload. It is reported by the sending code;
	// for correct nodes it is trustworthy by construction, and the
	// lower-bound machinery (computation of the sets A(p) of Theorem 1)
	// relies on it.
	Signers []ident.ProcID

	// SigTotal counts signature links with multiplicity, the quantity
	// bounded by Theorem 1.
	SigTotal int
}

// Clone returns a copy of the envelope that shares no mutable state with
// the original.
func (e Envelope) Clone() Envelope {
	out := e
	out.Payload = append([]byte(nil), e.Payload...)
	out.Signers = append([]ident.ProcID(nil), e.Signers...)
	return out
}

// Node is a processor's protocol state machine. Implementations are built by
// protocol factories (package protocol) or by adversaries (package
// adversary).
type Node interface {
	// Step is invoked once per phase in increasing order, until the node
	// halts (Context.Halt) or the run ends. inbox contains the messages sent
	// to this node during the previous phase, sorted by sender. Outgoing
	// messages are submitted through ctx.Send; they will be delivered at the
	// start of the next phase. An invocation one past the protocol's last
	// phase is delivery-only: Send fails.
	//
	// The inbox slice (like ctx) is only valid for the duration of the
	// call: the engine recycles the backing array for a later phase's
	// deliveries. Envelope payloads and signer lists are never rewritten —
	// they are carved from sig.Blocks, which are not written again once
	// carved: the sender's slab in memory, the receiving peer's inbound
	// blocks on a mesh, across phases and across the instances a warm engine
	// or mesh runs — so copying the Envelope values (or retaining their
	// Payload and Signers slices, and the chains decoded from them) is safe.
	// The one exception is the node's own: links it hands back with
	// ctx.Slab().Rewind in this Step are carved again.
	Step(ctx *Context, inbox []Envelope) error

	// Decide returns the node's decision after the run. ok is false if the
	// node has not decided (a correctness violation for correct nodes once
	// the protocol completed).
	Decide() (ident.Value, bool)
}

// Context gives a node its identity, the system parameters, the send path
// for the current phase, and the slab its messages are carved from. A
// Context is only valid for the duration of the Step call it is passed to;
// what it carves outlives it (see Node.Step).
type Context struct {
	id          ident.ProcID
	n, t        int
	transmitter ident.ProcID
	phase       int
	lastPhase   int
	submit      func(Envelope)
	slab        *sig.Slab
	filter      func(ident.ProcID) bool
	sink        trace.Sink // nil when tracing is disabled
	halt        *bool      // what Halt sets: the stepped processor's proc.stopped; nil outside an engine run
}

// NewContext builds a context outside an engine run — a protocol that
// simulates sub-instances inside its own step, an adversary's scratch run, a
// transcript replay: submit receives every accepted envelope. Engine runs
// build their contexts internally.
func NewContext(id ident.ProcID, n, t int, transmitter ident.ProcID, phase, lastPhase int, submit func(Envelope)) *Context {
	return &Context{
		id:          id,
		n:           n,
		t:           t,
		transmitter: transmitter,
		phase:       phase,
		lastPhase:   lastPhase,
		submit:      submit,
		slab:        new(sig.Slab),
	}
}

// WithSendFilter points dst at a copy of c whose Send silently drops
// messages to recipients for which allow returns false, and returns dst.
// Adversary wrappers use this to model a Byzantine processor that runs
// correct protocol logic but withholds messages from part of the system (the
// proofs of Theorems 1 and 2 both need exactly this power). A wrapper keeps
// dst and allow for its run and re-points dst each phase, as the engine
// re-points its own contexts: deriving costs no allocation unless c is itself
// filtered.
func (c *Context) WithSendFilter(dst *Context, allow func(ident.ProcID) bool) *Context {
	prev := c.filter
	*dst = *c
	dst.filter = allow
	if prev != nil {
		dst.filter = func(to ident.ProcID) bool { return prev(to) && allow(to) }
	}
	return dst
}

// ID returns the identity of the node being stepped.
func (c *Context) ID() ident.ProcID { return c.id }

// N returns the number of processors.
func (c *Context) N() int { return c.n }

// T returns the fault tolerance parameter the protocol was configured for.
func (c *Context) T() int { return c.t }

// Transmitter returns the identity of the transmitter.
func (c *Context) Transmitter() ident.ProcID { return c.transmitter }

// Phase returns the current phase number (1-based).
func (c *Context) Phase() int { return c.phase }

// Slab returns the slab the node carves its messages from: links,
// signatures, payloads and signer lists. It belongs to the goroutine stepping
// the node — under Engine.Run the engine's one slab, shared by every node and
// kept across Resets; on a mesh peer its own processor's; from NewContext a
// fresh one — so a derived context (WithSendFilter) shares it.
func (c *Context) Slab() *sig.Slab { return c.slab }

// Halt declares, from inside Step, that the node is done: after this step it
// sends nothing more and its decision is fixed. The engine steps it no more —
// it is still delivered to, so the trace reads as before — and a run ends at
// the first phase boundary after which every correct processor has halted,
// so the protocol's Phases is an upper bound. A faulty processor's Halt binds
// nothing: the adversary keeps its processor until the run ends. Outside an
// engine run (NewContext) Halt does nothing.
func (c *Context) Halt() {
	if c.halt != nil {
		*c.halt = true
	}
}

// Send queues a message to `to` for delivery at the start of the next
// phase. Signers/sigTotal describe signatures carried by payload (see
// Envelope). Send fails after the protocol's final phase or for an invalid
// recipient.
func (c *Context) Send(to ident.ProcID, payload []byte, signers []ident.ProcID, sigTotal int) error {
	if c.phase > c.lastPhase {
		return fmt.Errorf("%w: phase %d > %d", ErrSendClosed, c.phase, c.lastPhase)
	}
	if int(to) < 0 || int(to) >= c.n || to == c.id {
		return fmt.Errorf("%w: %v -> %v", ErrBadRecipient, c.id, to)
	}
	if c.filter != nil && !c.filter(to) {
		// An adversary wrapper withheld the send; record the omission so
		// traces can explain why the Byzantine node's traffic is asymmetric.
		if c.sink != nil {
			c.sink.Emit(trace.Event{
				Kind: trace.KindOmit, Phase: c.phase, From: c.id, To: to,
				Sigs: sigTotal, Signers: len(signers), Bytes: len(payload),
			})
		}
		return nil
	}
	c.submit(Envelope{
		From:     c.id,
		To:       to,
		Phase:    c.phase,
		Payload:  payload,
		Signers:  signers,
		SigTotal: sigTotal,
	})
	return nil
}

// Observer is notified of every message accepted by the engine, in
// submission order. audit.History implements it to record a run.
type Observer interface {
	OnSend(e Envelope)
}

// Config parameterizes an engine run.
type Config struct {
	// N is the number of processors; T the tolerated fault bound.
	N, T int
	// Transmitter identifies the processor holding the initial value.
	Transmitter ident.ProcID
	// Phases is the last phase during which messages may be sent. The
	// engine performs one additional delivery-only step so messages from
	// the final phase reach their recipients.
	Phases int
	// Faulty is the set of Byzantine processors (their nodes are supplied
	// by the adversary). May be nil for a fault-free run.
	Faulty ident.Set
	// Rushing grants the adversary the classical "rushing" power: within
	// each phase the correct processors are stepped first and the faulty
	// processors additionally see the messages the correct ones sent *this*
	// phase before choosing their own. Synchronous protocols must tolerate
	// this (the paper's model does not forbid it).
	Rushing bool
	// Observer receives every sent envelope (optional).
	Observer Observer
	// Trace receives structured execution events (optional). A nil sink
	// disables tracing at the cost of one nil check per potential event;
	// the disabled path allocates nothing.
	Trace trace.Sink
	// Faults is a compiled fault-injection plan (optional), applied on the
	// delivery path by faultnet.Deliver, on either backend: per (sending phase, sender, receiver) "frame" — the group of
	// envelopes one sender submitted to one recipient in one phase — the
	// plan may drop, delay, duplicate or reorder the group, and
	// crash-at-phase-k halts a processor (its Step is never called from
	// phase k on), which must then be in Faulty (ErrCrashNotFaulty). A nil
	// plan injects nothing and costs one nil check per phase.
	Faults *faultnet.Plan
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("sim: n=%d < 1", c.N)
	case c.T < 0:
		return fmt.Errorf("sim: t=%d < 0", c.T)
	case c.Phases < 0:
		return fmt.Errorf("sim: phases=%d < 0", c.Phases)
	case int(c.Transmitter) < 0 || int(c.Transmitter) >= c.N:
		return fmt.Errorf("sim: transmitter %v out of range [0,%d)", c.Transmitter, c.N)
	case c.Faulty.Len() > c.T:
		return fmt.Errorf("sim: %d %w=%d", c.Faulty.Len(), ErrTooManyFaulty, c.T)
	}
	bad := ident.None // the first faulty id past n (a set holds no negative one)
	c.Faulty.Each(func(id ident.ProcID) {
		if bad == ident.None && int(id) >= c.N {
			bad = id
		}
	})
	if bad != ident.None {
		return fmt.Errorf("sim: faulty id %v out of range [0,%d)", bad, c.N)
	}
	// Only a crash that fires within the run's Phases+1 steps halts anyone.
	for id := ident.ProcID(0); c.Faults != nil && int(id) < c.N; id++ {
		if at := c.Faults.CrashPhase(id); at >= 1 && at <= c.Phases+1 && !c.Faulty.Has(id) {
			return fmt.Errorf("%w: %v halts at phase %d", ErrCrashNotFaulty, id, at)
		}
	}
	return nil
}

// Decision is a node's final output.
type Decision struct {
	Value   ident.Value
	Decided bool
}

// Result is the outcome of a completed run.
type Result struct {
	// Decisions maps every processor to its decision (including faulty
	// processors, whose outputs are meaningless but sometimes interesting).
	Decisions map[ident.ProcID]Decision
	// Report carries the metrics counters for the run.
	Report metrics.Report
	// Faulty is the faulty set the run was executed with.
	Faulty ident.Set
	// EndPhase is the last phase the run stepped: the first phase after
	// which every correct processor had halted (Context.Halt), or Phases+1,
	// the delivery-only step, when one of them never did.
	EndPhase int
}

// Engine executes one protocol instance to completion. Reset prepares it for
// the next, so one Engine can run instance after instance on warm storage.
//
// A phase is one per-processor step in stages — the crash check, the plan's
// verdict on what the processor is delivered, the node's Step and its sends —
// on two backends: Run steps every processor itself and moves sends in
// memory; package transport's mesh peers each drive one through Halted,
// Deliver and Step, and Finish ends the run. Both trace through one walk.
type Engine struct {
	cfg       Config
	nodes     []Node
	collector metrics.Collector

	// sent is the current phase's traffic in submission order, and count[to]
	// how much of it is addressed to processor to. The phase swap moves it
	// into delivered with one stable counting pass, grouped by receiver, and
	// inboxes[to] becomes a view of to's group — or, for a receiver a fault
	// plan touches, of faultnet.Deliver's output in its proc. All three grow
	// to the largest phase, are zeroed once their phase is over so delivered
	// payloads can be collected, and live as long as the engine, across
	// Resets. Run only.
	sent      envBlocks
	count     []int
	delivered envBlocks
	inboxes   [][]Envelope

	// slab is what every node carves its messages from under Run; it lives
	// as long as the engine, across Resets, its first blocks sized to n.
	slab sig.Slab

	// steps counts node steps since the run last yielded the processor.
	steps int

	// live counts the correct processors that have not halted, and end is the
	// phase the last of them halted in (0 while one is live): the run's last.
	// Under a concurrent backend they are written from the peers' steps.
	live, end atomic.Int32

	procs  []proc
	frames [][]Envelope // per-sender view of the inbox a plan delivers (Run only)

	// peers is a concurrent backend's share of the steps, empty under Run: the
	// first of its calls after Reset sizes it, and mu guards what they share.
	peers     []peer
	peersOnce sync.Once
	mu        sync.Mutex
}

// proc is one processor's step state; under a concurrent backend only the
// goroutine driving the processor touches it.
type proc struct {
	ctx     Context  // re-pointed at each phase instead of allocated per step
	slab    sig.Slab // the processor's own, under a concurrent backend
	stash   faultnet.Stash[Envelope]
	held    []Envelope // Deliver's output, reused from phase to phase
	stopped bool       // the node called Context.Halt and is correct: it is stepped no more
	// haltedIn is the phase whose step a correct node halted in, 0 while it
	// is stepped: under a concurrent backend the other processors' Deliver
	// reads it.
	haltedIn atomic.Int32
}

// peer is a concurrently stepped processor's: route carries its accounted
// sends, and rec holds its events by (phase, stage) until Finish replays them.
type peer struct {
	route func(Envelope)
	rec   [][numStages]trace.Buffer
}

// The stages of a phase, in trace order; under rushing the faulty processors
// step after the correct ones.
const (
	stageCrash = iota
	stageFault
	stageStep
	stageRush
	numStages
)

// Reset prepares the engine to run nodes under cfg; nodes[i] is the state
// machine for processor i and must be non-nil. A new(Engine) is ready after
// its first Reset, and is then driven by Run or by Halted, Deliver, Step and
// Finish. The per-processor storage, the envelope blocks and the slab are
// kept while cfg.N is unchanged; nothing of an earlier run is
// delivered, counted or traced in the next.
func (e *Engine) Reset(cfg Config, nodes []Node) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(nodes) != cfg.N {
		return fmt.Errorf("sim: %d nodes for n=%d", len(nodes), cfg.N)
	}
	for i, nd := range nodes {
		if nd == nil {
			return fmt.Errorf("sim: nil node for processor %d", i)
		}
	}
	if len(e.procs) != cfg.N {
		size := envBlockSize(cfg.N)
		*e = Engine{sent: envBlocks{size: size}, delivered: envBlocks{size: size},
			count: make([]int, cfg.N), inboxes: make([][]Envelope, cfg.N), procs: make([]proc, cfg.N), slab: sig.NewSlab(cfg.N)}
		submit := e.submit // one bound method value shared by every context
		for i := range e.procs {
			e.procs[i].ctx = Context{id: ident.ProcID(i), submit: submit, halt: &e.procs[i].stopped}
		}
	}
	for i := range e.procs {
		p := &e.procs[i]
		c := &p.ctx
		c.n, c.t, c.transmitter, c.lastPhase, c.sink, c.slab = cfg.N, cfg.T, cfg.Transmitter, cfg.Phases, cfg.Trace, &e.slab
		sig.Recycle(p.held, Poisoned)
		p.stash, p.held, p.stopped = faultnet.Stash[Envelope]{}, p.held[:0], false
		if p.haltedIn.Load() != 0 { // only a run with halts pays the store
			p.haltedIn.Store(0)
		}
	}
	e.peers, e.peersOnce = e.peers[:0], sync.Once{}
	e.cfg, e.nodes = cfg, nodes
	e.live.Store(int32(cfg.N - cfg.Faulty.Len()))
	e.end.Store(0)
	e.collector.Reset(cfg.Faulty, cfg.Phases)
	e.sent.reset() // a run that ended early leaves its last sends here
	clear(e.count)
	return nil
}

// submit is every context's send path: the step traces and counts the send
// and shows it to the observer — under mu for a concurrent backend, so an
// observer must not call back into the engine — and the backend carries it:
// Run in this phase's traffic, a concurrent backend through its route.
func (e *Engine) submit(env Envelope) {
	if s := e.procs[env.From].ctx.sink; s != nil {
		s.Emit(trace.Event{
			Kind: trace.KindSend, Phase: env.Phase, From: env.From, To: env.To,
			Sigs: env.SigTotal, Signers: len(env.Signers), Bytes: len(env.Payload),
			Flag: e.cfg.Faulty.Has(env.From),
		})
	}
	concurrent := len(e.peers) != 0
	if concurrent {
		e.mu.Lock()
	}
	e.collector.OnSend(env.Phase, env.From, env.SigTotal, len(env.Signers), len(env.Payload))
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnSend(env)
	}
	if concurrent {
		e.mu.Unlock()
		e.peers[env.From].route(env)
		return
	}
	_ = append(e.sent.carve(1), env) // into the carved slot
	e.count[env.To]++
}

// swap is Run's phase swap: what was sent last phase becomes this phase's
// inboxes. Each receiver's envelopes keep their submission order, and nodes
// are stepped in identity order, so a group is normally sender-sorted as it
// lands; sortInbox checks that and repairs the exceptions (rushing).
func (e *Engine) swap() {
	e.delivered.reset()
	for to, c := range e.count {
		e.inboxes[to] = e.delivered.carve(c)
		e.count[to] = 0
		sig.Recycle(e.procs[to].held, Poisoned) // what a plan delivered last phase
	}
	for _, blk := range e.sent.blocks {
		for i := range blk {
			to := blk[i].To
			e.inboxes[to] = append(e.inboxes[to], blk[i])
		}
	}
	e.sent.reset()
	for _, in := range e.inboxes {
		sortInbox(in)
	}
}

// envBlocks is envelope storage that is filled, read and zeroed once per
// phase: a list of equal blocks that are kept and refilled, never regrown, so
// reaching the largest phase allocates each slot once and copies nothing.
type envBlocks struct {
	blocks [][]Envelope // len(block) slots of each are in use
	cur    int          // the block being filled; those before it are closed
	size   int          // slots per block
}

// envBlockSize is the block size of an n-processor engine: about one
// processor's broadcast, so what a phase leaves unused is small against what
// it uses at every n, within bounds that keep a five-processor run at a
// kilobyte and a block a modest allocation.
func envBlockSize(n int) int { return max(16, min(n, 1024)) }

// carve returns n unused slots, contiguous in one block, as an empty slice
// with capacity n.
func (b *envBlocks) carve(n int) []Envelope {
	for ; b.cur < len(b.blocks); b.cur++ {
		if blk := b.blocks[b.cur]; n <= cap(blk)-len(blk) {
			b.blocks[b.cur] = blk[:len(blk)+n]
			return blk[len(blk) : len(blk) : len(blk)+n]
		}
	}
	blk := make([]Envelope, n, max(n, b.size))
	b.blocks = append(b.blocks, blk)
	return blk[:0:n]
}

// reset recycles the slots in use and makes every block empty again.
func (b *envBlocks) reset() {
	for i, blk := range b.blocks {
		sig.Recycle(blk, Poisoned)
		b.blocks[i] = blk[:0]
	}
	b.cur = 0
}

// Poisoned is what a recycled envelope reads in race builds (sig.Recycle):
// from and to ident.None, no payload, so an inbox kept past its phase reads
// as no processor's. The engine recycles its envelope blocks and delivered
// inboxes, a mesh peer its barrier slots and outgoing rows.
var Poisoned = Envelope{From: ident.None, To: ident.None}

// yieldSteps is how many node steps a run takes between two yields of the
// processor: every phase at n = 1024, never in a serving-sized instance. A
// run is one goroutine that never blocks, and on a single P nothing but the
// 10 ms forced preemption takes it off the processor; a collector mark that
// starts during a large run then stays open that long, counts everything
// allocated meanwhile as live and doubles the next heap goal, so the
// process's peak memory depends on when a mark happened to start. With the
// yield the mark worker finishes within a phase.
const yieldSteps = 1024

// Run is the in-memory backend: it executes phases 1..cfg.Phases plus the
// final delivery-only step — or up to the phase after which every correct
// processor has halted — and returns the collected decisions and metrics.
// ctx cancellation aborts between phases.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	for phase := 1; phase <= e.cfg.Phases+1 && e.end.Load() == 0; phase++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: aborted at phase %d: %w", phase, err)
		}
		if e.steps += e.cfg.N; e.steps >= yieldSteps {
			e.steps = 0
			runtime.Gosched()
		}
		e.swap()
		if err := e.phase(phase, false); err != nil {
			return nil, err
		}
	}
	return e.result(), nil
}

// Halted, Deliver and Step are processor id's phase for a backend that steps
// each processor from a goroutine of its own: the crash check, announcing a
// crash at its phase; the plan's verdict on frames — what each sender sent id
// in phase-1 — returning the inbox and the count of frames withheld; and the
// node's Step, whose accounted sends go to send; a node that halted
// (Context.Halt) is delivered to but not stepped, and sends nothing more.
// Each traces into id's bucket for (phase, stage), which Finish replays. Once
// the phase a backend closed is Ended, nothing is stepped after it.
func (e *Engine) Halted(id ident.ProcID, phase int) bool {
	return e.halted(e.bucket(id, phase, stageCrash), id, phase)
}

// Deliver is processor id's fault stage; see Halted. Its count of withheld
// frames leaves out a sender that halted before phase-1: that frame held
// nothing, so withholding it takes no information from id.
func (e *Engine) Deliver(id ident.ProcID, phase int, frames [][]Envelope) ([]Envelope, int) {
	inbox, withheld := e.deliver(e.bucket(id, phase, stageFault), id, phase, frames)
	for s := 0; withheld > 0 && s < len(e.procs); s++ {
		if h := int(e.procs[s].haltedIn.Load()); h != 0 && h < phase-1 && s != int(id) {
			if k := e.cfg.Faults.FrameAction(phase-1, ident.ProcID(s), id).Kind; k == faultnet.ActDrop || k == faultnet.ActDelay {
				withheld--
			}
		}
	}
	return inbox, withheld
}

// Step is processor id's step stage; see Halted.
func (e *Engine) Step(id ident.ProcID, phase int, inbox []Envelope, send func(Envelope)) error {
	p := e.bucket(id, phase, stageStep)
	e.peers[id].route = send
	return e.step(p, id, phase, inbox, nil)
}

// Ended reports whether the run ended at or before phase: every correct
// processor had halted once its step of that phase returned. A backend asks
// once the phase is closed — every live processor's step of it returned.
func (e *Engine) Ended(phase int) bool {
	end := int(e.end.Load())
	return end != 0 && end <= phase
}

// Finish ends a run driven through Halted, Deliver and Step, once every
// goroutine driving a processor has returned: it replays the buckets in
// Run's trace order and returns the decisions and the report.
func (e *Engine) Finish() *Result {
	for phase := 1; e.cfg.Trace != nil && phase <= e.lastPhase(); phase++ {
		_ = e.phase(phase, true) // a replay steps no node, so it cannot fail
	}
	return e.result()
}

// bucket points processor id's context at its (phase, st) bucket and at the
// processor's own slab: the engine's belongs to the goroutine running Run.
func (e *Engine) bucket(id ident.ProcID, phase, st int) *proc {
	e.peersOnce.Do(func() {
		e.peers = slices.Grow(e.peers, e.cfg.N)[:e.cfg.N]
		for i := range e.peers {
			e.peers[i] = peer{rec: e.peers[i].rec[:0]}
		}
	})
	p, r := &e.procs[id], &e.peers[id]
	p.ctx.slab = &p.slab
	if e.cfg.Trace != nil {
		for len(r.rec) <= phase {
			r.rec = append(r.rec, [numStages]trace.Buffer{})
		}
		p.ctx.sink = &r.rec[phase][st]
	}
	return p
}

// phase walks one phase in trace order, stage by stage and each stage in
// identity order, between PhaseStart and PhaseEnd: live under Run, each
// stage emitting as it runs; as a replay of the buckets under Finish. A
// receiver whose phase the plan leaves untouched keeps its sorted group,
// which is what Deliver would return.
func (e *Engine) phase(phase int, replay bool) error {
	cfg := &e.cfg
	if cfg.Trace != nil {
		cfg.Trace.Emit(trace.Event{Kind: trace.KindPhaseStart, Phase: phase, From: ident.None, To: ident.None})
	}
	first, last := stageCrash, numStages
	if cfg.Faults == nil {
		first = stageStep // nothing crashes, nothing is faulted
	}
	if !cfg.Rushing {
		last = stageRush
	}
	for st := first; st < last; st++ {
		for i := range e.procs {
			if replay {
				if i < len(e.peers) && phase < len(e.peers[i].rec) {
					e.peers[i].rec[phase][st].DrainTo(cfg.Trace)
				}
				continue
			}
			p, id := &e.procs[i], ident.ProcID(i)
			rush := cfg.Rushing && cfg.Faulty.Has(id)
			var err error
			switch {
			case st == stageCrash:
				e.halted(p, id, phase)
			case cfg.Faults.Crashed(id, phase):
			case st == stageFault && phase > 1 && cfg.Faults != nil && !faultnet.Untouched(cfg.Faults, phase-1, &p.stash):
				e.inboxes[id], _ = e.deliver(p, id, phase, e.split(e.inboxes[id]))
			case st == stageStep && !rush:
				err = e.step(p, id, phase, e.inboxes[id], nil)
			case st == stageRush && rush:
				err = e.step(p, id, phase, e.inboxes[id], e.peek(id, phase))
			}
			if err != nil {
				return err
			}
		}
	}
	if cfg.Trace != nil {
		cfg.Trace.Emit(trace.Event{Kind: trace.KindPhaseEnd, Phase: phase, From: ident.None, To: ident.None})
	}
	return nil
}

func (e *Engine) halted(p *proc, id ident.ProcID, phase int) bool {
	if s := p.ctx.sink; s != nil && e.cfg.Faults.CrashPhase(id) == phase {
		s.Emit(trace.Event{Kind: trace.KindFaultCrash, Phase: phase, From: id, To: ident.None})
	}
	return e.cfg.Faults.Crashed(id, phase)
}

func (e *Engine) deliver(p *proc, id ident.ProcID, phase int, frames [][]Envelope) ([]Envelope, int) {
	var withheld int
	sig.Recycle(p.held, Poisoned) // the last phase's, which a mesh peer does not swap out
	p.held, withheld = faultnet.Deliver(e.cfg.Faults, p.ctx.sink, phase-1, id, frames, &p.stash, p.held[:0])
	return p.held, withheld
}

// step emits one deliver event per envelope handed to the node, then runs its
// Step. extra (rushing only) is appended to the inbox without disturbing it.
func (e *Engine) step(p *proc, id ident.ProcID, phase int, inbox, extra []Envelope) error {
	p.ctx.phase = phase
	if s := p.ctx.sink; s != nil {
		for i := range inbox {
			s.Emit(trace.Event{
				Kind: trace.KindDeliver, Phase: phase, From: inbox[i].From, To: inbox[i].To,
				Sigs: inbox[i].SigTotal, Signers: len(inbox[i].Signers), Bytes: len(inbox[i].Payload),
			})
		}
	}
	if p.stopped {
		return nil
	}
	if len(extra) > 0 {
		inbox = append(append(make([]Envelope, 0, len(inbox)+len(extra)), inbox...), extra...)
	}
	if err := e.nodes[id].Step(&p.ctx, inbox); err != nil {
		return fmt.Errorf("sim: processor %d failed at phase %d: %w", id, phase, err)
	}
	if p.stopped {
		e.halt(p, id, phase)
	}
	return nil
}

// halt accounts for a node that halted in its step of phase: a correct one
// is stepped no more, and the last live one ends the run with the phase; a
// faulty one's halt is dropped.
func (e *Engine) halt(p *proc, id ident.ProcID, phase int) {
	if e.cfg.Faulty.Has(id) {
		p.stopped = false
		return
	}
	p.haltedIn.Store(int32(phase))
	if e.live.Add(-1) == 0 {
		e.end.Store(int32(phase))
	}
}

// lastPhase is the last phase the run steps: the one after which every
// correct processor had halted, else the delivery-only step.
func (e *Engine) lastPhase() int {
	if end := int(e.end.Load()); end != 0 {
		return end
	}
	return e.cfg.Phases + 1
}

// result emits the decide events and returns the decisions and the report.
func (e *Engine) result() *Result {
	res := &Result{
		Decisions: make(map[ident.ProcID]Decision, e.cfg.N),
		Report:    e.collector.Report(),
		Faulty:    e.cfg.Faulty.Clone(),
		EndPhase:  e.lastPhase(),
	}
	for id, nd := range e.nodes {
		v, ok := nd.Decide()
		if e.cfg.Trace != nil {
			e.cfg.Trace.Emit(trace.Event{
				Kind: trace.KindDecide, Phase: e.cfg.Phases + 1,
				From: ident.ProcID(id), To: ident.None, Value: v, Flag: ok,
			})
		}
		res.Decisions[ident.ProcID(id)] = Decision{Value: v, Decided: ok}
	}
	return res
}

// split cuts a sender-sorted inbox into one frame per sender, as the wire
// carries it.
func (e *Engine) split(in []Envelope) [][]Envelope {
	if e.frames == nil {
		e.frames = make([][]Envelope, e.cfg.N)
	}
	idx := 0
	for s := range e.frames {
		start := idx
		for idx < len(in) && in[idx].From == ident.ProcID(s) {
			idx++
		}
		e.frames[s] = in[start:idx]
	}
	return e.frames
}

// peek is this phase's correct traffic to a rushing faulty processor,
// deep-cloned: sent still feeds correct inboxes next phase, and a mutating
// adversary must not reach them through shared Payload/Signers arrays.
func (e *Engine) peek(id ident.ProcID, phase int) []Envelope {
	peek := make([]Envelope, 0, e.count[id])
	for _, blk := range e.sent.blocks {
		for i := range blk {
			if blk[i].To == id {
				peek = append(peek, blk[i].Clone())
			}
		}
	}
	if s := e.procs[id].ctx.sink; s != nil && len(peek) > 0 {
		s.Emit(trace.Event{Kind: trace.KindRush, Phase: phase, From: id, To: ident.None, Sigs: len(peek)})
	}
	return peek
}

// sortInbox orders an inbox by sender id, preserving the submission order of
// messages from the same sender (stable). Nodes are stepped in identity
// order, so inboxes usually arrive already sender-sorted (rushing and
// send-to-self-audience adversaries are the exceptions); an O(len) order
// check skips the sort machinery on that fast path.
func sortInbox(in []Envelope) {
	for i := 1; i < len(in); i++ {
		if in[i].From < in[i-1].From {
			sort.SliceStable(in, func(i, j int) bool { return in[i].From < in[j].From })
			return
		}
	}
}
