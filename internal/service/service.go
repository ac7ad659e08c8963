// Package service is the multi-instance Byzantine Agreement serving layer:
// a long-running Service multiplexes many concurrent agreement instances
// over one shared execution substrate (the in-memory engine or the TCP
// mesh), amortizing the paper's per-instance information-exchange costs —
// Ω(nt) signatures (Theorem 1), Ω(n+t²) messages (Theorems 2–4) — across a
// stream of submitted values.
//
// The pipeline has three bounded stages:
//
//	Submit → admission queue → sequencer/batcher → shard workers → in-order delivery
//
// Admission is a bounded queue with typed rejections (ErrQueueFull,
// ErrDraining) — the backpressure surface. The sequencer (one goroutine, so
// instance ids are assigned deterministically in admission order) coalesces
// queued values into one Instance per batch: a batch takes what is queued,
// up to BatchSize, so an idle service sends singletons at once and a backlog
// packs full ones. Formed instances are handed to a pool of Shards identified
// workers (runner.Shards): each shard runs instances concurrently with its own
// substrate handle and its own reusable trace buffer, and results are
// delivered in instance-id order regardless of which shard finished first —
// the same submission-order determinism contract runner.Map gives the
// evaluation sweeps. Close (or cancellation of the context passed to New)
// drains gracefully: admission stops, buffered requests are still
// dispatched, and Close returns only after every in-flight instance has
// been delivered.
//
// Each instance derives its seed as Template.Seed + instance id, so any
// instance the service ran can be re-executed serially with core.Run and
// must produce byte-identical decisions — the property `baload -verify` and
// the determinism tests check. Because ids are assigned by the single
// sequencer and delivery is id-ordered, the instance-scoped trace events
// (instance-start, per-instance internals, instance-done) are byte-identical
// at any shard count too; only the admission-scoped events (enqueue, reject,
// checkpoint) reflect live load (see trace.Kind.AdmissionScoped).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/protocol"
	"byzex/internal/runner"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// Typed admission rejections — the backpressure surface callers program
// against (retry, shed, or block).
var (
	// ErrQueueFull rejects a submission because the bounded admission
	// queue is at capacity.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects a submission because the service is shutting
	// down and no longer admits work.
	ErrDraining = errors.New("service: draining, not admitting")
	// ErrNotCommitted reports that an instance reached agreement on a
	// value other than the packed batch value (possible only when the
	// template corrupts the transmitter): the submission's value was not
	// served, even though the instance itself is a valid agreement.
	ErrNotCommitted = errors.New("service: instance decided a different value")
	// ErrBatchingUnsupported rejects a BatchSize above 1 whose
	// protocol only carries binary values: a packed batch digest is an
	// arbitrary int64, so batching requires one of the multi-valued
	// protocol variants (alg1-multi, alg4, dolev-strong, ...).
	ErrBatchingUnsupported = errors.New("service: batching requires a multi-valued protocol")
)

// Config parameterizes a Service.
type Config struct {
	// Template is the per-instance run description: Protocol, N, T,
	// Transmitter, Scheme, Adversary, Rushing, Faults are used as-is; Value
	// is replaced by the packed batch value, Seed becomes the base seed
	// (instance i runs with Template.Seed + i), and Trace is ignored in
	// favor of the service-level sink below.
	Template core.Config
	// Substrate supplies each shard worker its substrate handle:
	// Open(shard) is called once per shard at startup, and Close(shard) once
	// per shard during Service.Close after every instance has been
	// delivered. NewWarmTCP implements it for substrates that keep
	// per-handle state (warm connection meshes); SharedRun adapts a plain
	// concurrency-safe RunFunc. When nil — or where Open returns nil —
	// shards run on the in-memory engine (RunSim).
	Substrate Substrate
	// Journal, when set, receives every admission before its instance is
	// handed to a shard (Admit, called from the single sequencer goroutine,
	// so records land in instance-id order) and one checkpoint during Close
	// after the last delivery (Checkpoint). An Admit error fails the batch
	// instead of running it: an instance the journal did not capture must
	// never execute, or a crash would lose it. The journal package
	// implements this.
	Journal Journal
	// FirstInstance seeds the instance-id sequencer. A recovered service
	// sets it to the journal's watermark so a restarted server never reuses
	// an instance id — and therefore never reuses a seed
	// (seed = Template.Seed + id). Zero starts fresh.
	FirstInstance uint64
	// BaseStats, when set, seeds the monotone counters (submissions,
	// instances, values, message/signature/byte sums, latency aggregates,
	// queue high-water) from a recovered checkpoint so the stats surface
	// spans restarts. Live gauges (queue depth, shard instances) always
	// start fresh; after a recovery,
	// Instances therefore no longer equals the sum of ShardInstances.
	BaseStats *Stats
	// Shards is the number of identified shard workers executing instances
	// concurrently; values below one select runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds the admission queue (default 64, minimum 1).
	QueueDepth int
	// BatchSize caps the values one instance packs (default 1 = no
	// batching): a batch takes what is already queued, up to BatchSize.
	BatchSize int
	// Linger bounds how long the sequencer waits for a partial batch to
	// fill once it holds at least one value. Zero means "don't wait".
	Linger time.Duration
	// Trace receives the serving-layer events (enqueue, reject,
	// instance-start, instance-done). Emissions are serialized internally,
	// so any sink works. Instance-internal events are only recorded when
	// TraceInstances is also set.
	Trace trace.Sink
	// TraceInstances additionally runs every instance against its shard's
	// private trace buffer, drained into Trace at delivery time — instance
	// events therefore appear in instance-id order, bracketed by that
	// instance's instance-start and instance-done events, no matter which
	// shard ran it or how the shards interleaved.
	TraceInstances bool
}

// Instance is one scheduled agreement execution: the identity, the resolved
// run configuration, and the batch of submitted values it serves.
type Instance struct {
	// ID is the instance's dense sequence number in admission order.
	ID uint64
	// Config is the fully-resolved core configuration the substrate ran:
	// Value is the packed batch value and Seed is Template.Seed + ID.
	Config core.Config
	// Values are the submitted values the instance serves, in admission
	// order. len(Values) is the batch size; Config.Value == PackValues(Values).
	Values []ident.Value
}

// InstanceResult is the outcome of one instance, shared by every Result of
// its batch.
type InstanceResult struct {
	Instance
	// Decided is the common decision of the correct processors.
	Decided ident.Value
	// Committed reports that Decided equals the packed batch value, i.e.
	// the submitted values were actually served.
	Committed bool
	// Decisions, Report and Faulty are the substrate outcome (see
	// Outcome); Decisions lets callers compare a served instance
	// byte-for-byte against a serial core.Run of the same Config.
	Decisions map[ident.ProcID]sim.Decision
	Report    metrics.Report
	Faulty    ident.Set
	// Shard is the shard worker that executed the instance. It is an
	// operational detail — which shard runs which instance depends on
	// scheduling — and is deliberately absent from the trace, which stays
	// byte-identical across shard counts.
	Shard int
	// Err is the run or agreement-check failure, nil on success.
	Err error
}

// Result resolves one submitted value.
type Result struct {
	// Value is the submitted value.
	Value ident.Value
	// Decided is the instance's common decision; equals Value when
	// Committed (the usual case: correct transmitter).
	Decided ident.Value
	// Committed reports the batch containing Value was served.
	Committed bool
	// Instance is the shared outcome of the batch's instance.
	Instance *InstanceResult
	// Latency is the submit-to-delivery wall time.
	Latency time.Duration
	// Err is non-nil when the instance failed or did not commit.
	Err error
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Submitted counts admitted values; RejectedFull / RejectedDraining
	// count the two typed rejections.
	Submitted        uint64
	RejectedFull     uint64
	RejectedDraining uint64
	// Instances / InstancesFailed count delivered instances; ValuesDecided
	// counts values resolved by committed instances.
	Instances       uint64
	InstancesFailed uint64
	ValuesDecided   uint64
	// QueueDepth is the admission queue's depth at snapshot time — the
	// only live gauge in the struct; everything else is monotone or
	// high-water. QueueHighWater is the deepest the queue has been.
	QueueDepth     int
	QueueHighWater int
	// MessagesCorrect / SignaturesCorrect / BytesCorrect sum the
	// per-instance metrics.Report counters over delivered instances — the
	// numerators of the amortized per-value costs.
	MessagesCorrect   uint64
	SignaturesCorrect uint64
	BytesCorrect      uint64
	// MaxLatency / TotalLatency aggregate submit-to-delivery wall time
	// over resolved values (TotalLatency / ValuesDecided is the mean).
	MaxLatency   time.Duration
	TotalLatency time.Duration
	// Shards is the configured shard-worker count; ShardInstances counts
	// delivered instances per shard (index = shard id) — the load-balance
	// gauge.
	Shards         int
	ShardInstances []uint64
}

// AmortizedMessagesPerValue returns correct-sender messages per decided
// value — the serving-layer form of the paper's per-instance Ω(n+t²) bound.
func (s Stats) AmortizedMessagesPerValue() float64 {
	if s.ValuesDecided == 0 {
		return 0
	}
	return float64(s.MessagesCorrect) / float64(s.ValuesDecided)
}

// AmortizedSignaturesPerValue returns correct-sender signatures per decided
// value (per-instance bound: Ω(nt), Theorem 1).
func (s Stats) AmortizedSignaturesPerValue() float64 {
	if s.ValuesDecided == 0 {
		return 0
	}
	return float64(s.SignaturesCorrect) / float64(s.ValuesDecided)
}

// String renders a compact single-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("submitted=%d rejected=%d/%d instances=%d(failed %d) values=%d qhw=%d shards=%d msgs/value=%.1f sigs/value=%.1f",
		s.Submitted, s.RejectedFull, s.RejectedDraining, s.Instances, s.InstancesFailed,
		s.ValuesDecided, s.QueueHighWater, s.Shards,
		s.AmortizedMessagesPerValue(), s.AmortizedSignaturesPerValue())
}

// Journal is the durability hook a Service writes through: Admit persists
// one admission before its instance runs (called from the single sequencer
// goroutine, in instance-id order), and Checkpoint persists the admission
// watermark plus a stats snapshot when the service drains. Implementations
// decide the sync policy; an Admit error vetoes the instance.
type Journal interface {
	Admit(inst Instance) error
	Checkpoint(watermark uint64, stats Stats) error
}

// CompactingJournal is the optional live-compaction hook a Journal may also
// implement (discovered by type assertion at New): the service calls
// MaybeCheckpoint from its delivery goroutine after each in-order delivery,
// passing the *delivered watermark* — the lowest undelivered admission id —
// and a stats snapshot taken in the same critical section. Because delivery
// is strictly instance-id ordered, the watermark never clears an in-flight
// admission, so the implementation may checkpoint at it and prune covered
// segments while the service keeps serving. The implementation decides
// whether a checkpoint is due (record budget, timer); it returns whether one
// was attempted, and the write error if it failed. Calls never overlap
// (runner.Shards serializes delivery) but do run concurrently with Admit
// from the sequencer.
type CompactingJournal interface {
	Journal
	MaybeCheckpoint(watermark uint64, stats Stats) (bool, error)
}

// request is one queued submission.
type request struct {
	value ident.Value
	enq   time.Time
	ch    chan Result // buffered(1); exactly one send per request
}

// dispatched is one formed instance on its way to a shard worker.
type dispatched struct {
	inst   Instance
	reqs   []*request
	replay bool // re-submitted from the journal during recovery
}

// completed pairs an instance outcome with the requests it resolves, so the
// delivery stage can complete the futures in instance order.
type completed struct {
	inst   *InstanceResult
	reqs   []*request
	events []trace.Event // per-instance trace (nil unless TraceInstances)
	replay bool
}

// shardState is the per-worker state pinned to one shard: its substrate
// handle and, when per-instance tracing is on, its reusable trace buffer.
// Only the owning shard touches it, so no locking is needed.
type shardState struct {
	run RunFunc
	buf *trace.Buffer
}

// Service is the long-running serving layer. Construct with New; a Service
// is safe for concurrent Submit from any number of goroutines.
type Service struct {
	cfg       Config
	ctx       context.Context
	queue     chan *request
	exec      *runner.Shards[*dispatched, *completed]
	shards    []shardState
	substrate Substrate
	sink      trace.Sink // serialized; nil when tracing is disabled

	draining       chan struct{} // closed by Close
	drainOnce      sync.Once
	batcherDone    chan struct{}
	checkpointOnce sync.Once // writes the drain checkpoint exactly once
	releaseOnce    sync.Once // runs Substrate.Close per shard exactly once

	// compactor is cfg.Journal's optional live-compaction side, resolved
	// once at New; compactStats is the delivery goroutine's reusable
	// snapshot holder — deliver invocations never overlap (runner.Shards'
	// contract), so no lock guards it.
	compactor    CompactingJournal
	compactStats Stats

	mu           sync.Mutex
	stats        Stats
	nextInstance uint64
	delivered    uint64 // lowest undelivered instance id (the delivered watermark)
}

// New starts a Service. ctx governs the instances' execution and triggers a
// graceful drain when cancelled: admission stops, already-admitted work is
// still dispatched (instances then observe the cancelled context and fail
// fast), and Close waits for every delivery.
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.Template.Protocol == nil {
		return nil, errors.New("service: template has no protocol")
	}
	// Refuse here what would fail every instance: parameters the protocol
	// rejects, a faulty set beyond t, a plan crashing a processor outside it.
	if _, err := core.NewSetup(cfg.Template); err != nil {
		return nil, err
	}
	substrate := cfg.Substrate
	if substrate == nil {
		substrate = SharedRun(RunSim)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.BatchSize > 1 {
		// Batching packs a batch into an arbitrary int64 digest; probe the
		// protocol with a non-binary value so a binary-only protocol is
		// rejected here, with a typed error, instead of failing every
		// multi-value instance at run time.
		probe := cfg.Template
		probe.Value = 2
		probe.Adversary = nil
		probe.FaultyOverride = nil
		probe.Faults = nil
		probe.Trace = nil
		if _, err := core.NewSetup(probe); err != nil {
			if errors.Is(err, protocol.ErrBadParams) {
				return nil, fmt.Errorf("%w: %v", ErrBatchingUnsupported, err)
			}
			return nil, err
		}
	}
	s := &Service{
		cfg:         cfg,
		ctx:         ctx,
		queue:       make(chan *request, cfg.QueueDepth),
		substrate:   substrate,
		draining:    make(chan struct{}),
		batcherDone: make(chan struct{}),
	}
	s.nextInstance = cfg.FirstInstance
	s.delivered = cfg.FirstInstance
	if cj, ok := cfg.Journal.(CompactingJournal); ok {
		s.compactor = cj
	}
	if cfg.BaseStats != nil {
		// Carry the monotone counters across the restart; the live gauges
		// (queue depth, per-shard instance counts) describe this process and
		// start fresh.
		b := cfg.BaseStats
		s.stats.Submitted = b.Submitted
		s.stats.RejectedFull = b.RejectedFull
		s.stats.RejectedDraining = b.RejectedDraining
		s.stats.Instances = b.Instances
		s.stats.InstancesFailed = b.InstancesFailed
		s.stats.ValuesDecided = b.ValuesDecided
		s.stats.QueueHighWater = b.QueueHighWater
		s.stats.MessagesCorrect = b.MessagesCorrect
		s.stats.SignaturesCorrect = b.SignaturesCorrect
		s.stats.BytesCorrect = b.BytesCorrect
		s.stats.MaxLatency = b.MaxLatency
		s.stats.TotalLatency = b.TotalLatency
	}
	s.stats.Shards = shards
	s.stats.ShardInstances = make([]uint64, shards)
	if cfg.Trace != nil {
		s.sink = &lockedSink{dst: cfg.Trace}
	}
	s.shards = make([]shardState, shards)
	for i := range s.shards {
		s.shards[i].run = substrate.Open(i)
		if s.shards[i].run == nil {
			s.shards[i].run = RunSim
		}
		if s.sink != nil && cfg.TraceInstances {
			s.shards[i].buf = trace.NewBuffer()
		}
	}
	s.exec = runner.NewShards(shards, s.runOnShard, s.deliver)
	go s.batcher()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.draining:
			}
		}()
	}
	return s, nil
}

// Submit admits one value. It never blocks: when the admission queue is at
// capacity the submission is rejected with ErrQueueFull, and once the
// service drains with ErrDraining — backpressure is explicit so callers can
// choose to retry, shed or block. On success the returned channel receives
// exactly one Result when the value's instance is delivered.
func (s *Service) Submit(v ident.Value) (<-chan Result, error) {
	select {
	case <-s.draining:
		s.reject(true)
		return nil, ErrDraining
	default:
	}
	req := &request{value: v, enq: time.Now(), ch: make(chan Result, 1)}
	select {
	case s.queue <- req:
	default:
		s.reject(false)
		return nil, ErrQueueFull
	}
	depth := len(s.queue)
	s.mu.Lock()
	s.stats.Submitted++
	if depth > s.stats.QueueHighWater {
		s.stats.QueueHighWater = depth
	}
	s.mu.Unlock()
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindEnqueue, From: ident.None, To: ident.None, Sigs: depth, Value: v})
	}
	return req.ch, nil
}

// SubmitWait submits v and blocks until its Result (or ctx is done, or the
// submission is rejected).
func (s *Service) SubmitWait(ctx context.Context, v ident.Value) (Result, error) {
	ch, err := s.Submit(v)
	if err != nil {
		return Result{}, err
	}
	select {
	case res := <-ch:
		return res, res.Err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

func (s *Service) reject(draining bool) {
	depth := len(s.queue)
	s.mu.Lock()
	if draining {
		s.stats.RejectedDraining++
	} else {
		s.stats.RejectedFull++
	}
	s.mu.Unlock()
	if s.sink != nil {
		s.sink.Emit(trace.Event{Kind: trace.KindReject, From: ident.None, To: ident.None, Sigs: depth, Flag: draining})
	}
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	var out Stats
	s.StatsInto(&out)
	return out
}

// StatsInto snapshots the counters into out, reusing out.ShardInstances'
// storage: after the first call a fixed holder makes every subsequent
// snapshot allocation-free — the metrics scrape path's contract. The whole
// snapshot is taken under the service's single stats mutex, so a scrape
// observes a consistent cut (e.g. Instances == sum of ShardInstances once
// quiescent), exactly what an in-process Stats caller sees.
func (s *Service) StatsInto(out *Stats) {
	depth := len(s.queue)
	s.mu.Lock()
	s.snapshotLocked(out)
	s.mu.Unlock()
	out.QueueDepth = depth
}

// snapshotLocked copies the counters into out, reusing out.ShardInstances'
// storage. Callers hold s.mu — the checkpoint paths use it so a checkpoint's
// watermark and stats come from one critical section and can never disagree.
// QueueDepth (a channel read, safe anywhere) is the caller's to fill.
func (s *Service) snapshotLocked(out *Stats) {
	shardInstances := out.ShardInstances
	*out = s.stats
	out.ShardInstances = append(shardInstances[:0], s.stats.ShardInstances...)
}

// Close drains the service: admission stops (Submit returns ErrDraining),
// every already-admitted value is still batched and dispatched, and Close
// returns once all instances have been delivered. When a Journal is
// configured, a checkpoint (admission watermark + final stats) is written
// after the last delivery, so a clean shutdown leaves nothing to replay; a
// checkpoint failure is swallowed here — the journal counts it
// (journal.Stats.CheckpointFailures), the trace records it (the checkpoint
// event's Flag), and the journal's own Close reports it — because the drain
// must still complete.
// Idempotent and safe to call concurrently; also triggered by cancellation
// of New's context.
func (s *Service) Close() {
	s.drainOnce.Do(func() { close(s.draining) })
	<-s.batcherDone
	s.exec.Close()
	if s.cfg.Journal != nil {
		s.checkpointOnce.Do(func() {
			// One critical section for the whole checkpoint payload: the
			// watermark and the stats snapshot describe the same instant, so
			// a checkpoint can never pair a watermark with counters from a
			// different cut (the drain is quiescent here, but the invariant
			// is what recovery's BaseStats arithmetic relies on).
			var snap Stats
			depth := len(s.queue)
			s.mu.Lock()
			watermark := s.nextInstance
			s.snapshotLocked(&snap)
			s.mu.Unlock()
			snap.QueueDepth = depth
			// The drain must complete even if the checkpoint write fails; the
			// journal counts the failure (Stats.CheckpointFailures) and
			// surfaces it on its own Close, and the trace event's Flag
			// records the outcome.
			err := s.cfg.Journal.Checkpoint(watermark, snap)
			if s.sink != nil {
				s.sink.Emit(trace.Event{
					Kind: trace.KindCheckpoint, From: ident.None, To: ident.None,
					Signers: int(watermark), Sigs: int(snap.Instances), Flag: err == nil,
				})
			}
		})
	}
	s.releaseOnce.Do(func() {
		for i := range s.shards {
			s.substrate.Close(i)
		}
	})
}

// batcher is the single sequencer goroutine that forms batches and
// dispatches instances; being alone on this path makes instance ids (and
// therefore seeds) deterministic in admission order.
func (s *Service) batcher() {
	defer close(s.batcherDone)
	for {
		var first *request
		select {
		case first = <-s.queue:
		case <-s.draining:
			// Drain: flush whatever is still queued, then stop.
			for {
				select {
				case req := <-s.queue:
					s.dispatch(s.fill(req, false), false)
				default:
					return
				}
			}
		}
		s.dispatch(s.fill(first, true), false)
	}
}

// fill grows a batch starting at first up to BatchSize, lingering for
// stragglers when allowed and configured.
func (s *Service) fill(first *request, mayLinger bool) []*request {
	batch := []*request{first}
	if s.cfg.BatchSize <= 1 {
		return batch
	}
	var lingerC <-chan time.Time
	if mayLinger && s.cfg.Linger > 0 {
		timer := time.NewTimer(s.cfg.Linger)
		defer timer.Stop()
		lingerC = timer.C
	}
	for len(batch) < s.cfg.BatchSize {
		if lingerC == nil {
			// No linger: take only what is already queued.
			select {
			case req := <-s.queue:
				batch = append(batch, req)
			default:
				return batch
			}
			continue
		}
		select {
		case req := <-s.queue:
			batch = append(batch, req)
		case <-lingerC:
			return batch
		case <-s.draining:
			return batch
		}
	}
	return batch
}

// InstanceConfig is the run of instance id serving values: the template
// with Value = PackValues(values), Seed = template seed + id and no trace.
// It is the whole recipe, so a journaled (id, values) re-executes its
// instance byte-identically.
func InstanceConfig(tmpl core.Config, id uint64, values []ident.Value) core.Config {
	tmpl.Value = PackValues(values)
	tmpl.Seed += int64(id)
	tmpl.Trace = nil
	return tmpl
}

// dispatch assigns the next instance id, resolves the template, journals the
// admission and hands the instance to the shard pool; Submit blocks when
// every shard is busy, which is what lets the admission queue fill and
// reject — bounded end to end. The journal write happens before exec.Submit:
// an instance the journal did not capture never runs, so a crash at any
// point either lost the admission before it executed (the client saw no
// result) or journaled it (recovery replays it).
func (s *Service) dispatch(batch []*request, replay bool) uint64 {
	s.mu.Lock()
	id := s.nextInstance
	s.nextInstance++
	s.mu.Unlock()

	values := make([]ident.Value, len(batch))
	for i, req := range batch {
		values[i] = req.value
	}
	inst := Instance{ID: id, Config: InstanceConfig(s.cfg.Template, id, values), Values: values}
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Admit(inst); err != nil {
			s.fail(batch, inst, err)
			return id
		}
	}
	if _, err := s.exec.Submit(&dispatched{inst: inst, reqs: batch, replay: replay}); err != nil {
		// Only possible after exec.Close, which Close orders strictly after
		// the batcher exits — keep the requests from hanging anyway.
		s.fail(batch, inst, err)
	}
	return id
}

// Replay re-submits one journaled admission — the batch's original values,
// in their original order — through the normal dispatch path: the instance
// gets the next sequential id, is journaled again (which is what makes
// checkpoint pruning and a second crash during recovery safe), runs on a
// shard and is delivered in order. Because recovery seeds FirstInstance with
// the journal watermark and replays pending admissions in id order, each
// replayed instance reruns under its original id and seed, byte-identically.
//
// Replay must only be called before live Submit traffic starts (the journal
// recovery path in cmd/baserve runs it before the listener opens): it shares
// the single-producer dispatch path with the sequencer, which is idle while
// the admission queue is empty. One Result per value is delivered on the
// returned channel (buffered to the batch size).
func (s *Service) Replay(values []ident.Value) (<-chan Result, error) {
	select {
	case <-s.draining:
		return nil, ErrDraining
	default:
	}
	if len(values) == 0 {
		return nil, errors.New("service: replay of an empty batch")
	}
	ch := make(chan Result, len(values))
	batch := make([]*request, len(values))
	now := time.Now()
	for i, v := range values {
		batch[i] = &request{value: v, enq: now, ch: ch}
	}
	if s.cfg.BaseStats == nil {
		// Submitted counts admissions. When recovering from a checkpointed
		// journal, BaseStats already includes the pending values' original
		// admissions (checkpoints are cut at delivery, after the submit that
		// queued each pending value), so re-counting them here would double
		// them. Without a checkpoint there is no carried count, and the
		// replayed values are this process's only record of those admissions.
		s.mu.Lock()
		s.stats.Submitted += uint64(len(values))
		s.mu.Unlock()
	}
	s.dispatch(batch, true)
	return ch, nil
}

// runOnShard executes one instance on its shard's substrate handle and
// packages the outcome; it runs on the shard's worker goroutine, so the
// shard state is touched without locking.
func (s *Service) runOnShard(shard int, d *dispatched) *completed {
	st := &s.shards[shard]
	cfg := d.inst.Config
	if st.buf != nil {
		cfg.Trace = st.buf
	}
	res := &InstanceResult{Instance: d.inst, Shard: shard}
	out, err := st.run(s.ctx, cfg)
	c := &completed{inst: res, reqs: d.reqs, replay: d.replay}
	if st.buf != nil {
		// Snapshot the shard buffer: delivery may happen after this shard
		// has moved on to its next instance and reset the buffer.
		c.events = append([]trace.Event(nil), st.buf.Events()...)
		st.buf.Reset()
	}
	if err != nil {
		res.Err = err
		return c
	}
	res.Decisions = out.Decisions
	res.Report = out.Report
	res.Faulty = out.Faulty
	decided, err := core.CheckDecisions(out.Decisions, out.Faulty, cfg.Transmitter, cfg.Value)
	if err != nil {
		res.Err = err
		return c
	}
	res.Decided = decided
	res.Committed = decided == cfg.Value
	return c
}

// deliver runs in strict instance-id order (runner.Shards' contract): it
// folds the outcome into the stats, emits the instance-scoped trace (start,
// internals, done) and resolves the batch's futures. Everything emitted here
// is deterministic for a given template and admission order, whatever the
// shard count.
func (s *Service) deliver(_ uint64, c *completed) {
	inst := c.inst
	now := time.Now()

	depth := len(s.queue)
	s.mu.Lock()
	// Delivery is strictly id-ordered, so after this instance the lowest
	// undelivered id is exactly inst.ID+1 — the delivered watermark live
	// compaction checkpoints at. The batch-failure path (fail) never
	// advances it: a journaled admission that was not delivered must stay
	// above any checkpoint.
	s.delivered = inst.ID + 1
	s.stats.Instances++
	if inst.Shard >= 0 && inst.Shard < len(s.stats.ShardInstances) {
		s.stats.ShardInstances[inst.Shard]++
	}
	if inst.Err != nil {
		s.stats.InstancesFailed++
	} else {
		s.stats.MessagesCorrect += uint64(inst.Report.MessagesCorrect)
		s.stats.SignaturesCorrect += uint64(inst.Report.SignaturesCorrect)
		s.stats.BytesCorrect += uint64(inst.Report.BytesCorrect)
		if inst.Committed {
			s.stats.ValuesDecided += uint64(len(inst.Values))
		}
	}
	for _, req := range c.reqs {
		lat := now.Sub(req.enq)
		s.stats.TotalLatency += lat
		if lat > s.stats.MaxLatency {
			s.stats.MaxLatency = lat
		}
	}
	watermark := s.delivered
	if s.compactor != nil {
		// Snapshot in the same critical section as the watermark, into the
		// delivery goroutine's scratch holder (deliver never overlaps), so
		// the checkpoint write below happens outside the stats mutex.
		s.snapshotLocked(&s.compactStats)
	}
	s.mu.Unlock()

	if s.sink != nil {
		s.sink.Emit(trace.Event{
			Kind: trace.KindInstanceStart, From: ident.None, To: ident.None,
			Signers: int(inst.ID), Sigs: len(inst.Values), Value: inst.Config.Value,
		})
		for _, e := range c.events {
			s.sink.Emit(e)
		}
		s.sink.Emit(trace.Event{
			Kind: trace.KindInstanceDone, From: ident.None, To: ident.None,
			Signers: int(inst.ID), Sigs: len(inst.Values),
			Bytes: inst.Report.MessagesCorrect, Value: inst.Decided, Flag: inst.Err == nil,
		})
		if c.replay {
			s.sink.Emit(trace.Event{
				Kind: trace.KindReplay, From: ident.None, To: ident.None,
				Signers: int(inst.ID), Sigs: len(inst.Values), Flag: inst.Err == nil,
			})
		}
	}

	for _, req := range c.reqs {
		res := Result{
			Value:     req.value,
			Decided:   inst.Decided,
			Committed: inst.Committed,
			Instance:  inst,
			Latency:   now.Sub(req.enq),
			Err:       inst.Err,
		}
		if res.Err == nil && !res.Committed {
			res.Err = fmt.Errorf("%w: decided %v, batch packed %v", ErrNotCommitted, inst.Decided, inst.Config.Value)
		}
		req.ch <- res
	}

	// Live compaction, after the batch's futures resolve so a checkpoint
	// fsync never adds to this batch's latency. The journal decides dueness
	// (record budget / timer); a checkpoint at the delivered watermark can
	// prune every segment whose admissions are all delivered. Checkpoints
	// driven only by deliveries is sufficient: the watermark cannot advance
	// without one, and a checkpoint without watermark progress frees nothing.
	if s.compactor != nil {
		s.compactStats.QueueDepth = depth
		if wrote, err := s.compactor.MaybeCheckpoint(watermark, s.compactStats); wrote && s.sink != nil {
			s.sink.Emit(trace.Event{
				Kind: trace.KindCheckpoint, From: ident.None, To: ident.None,
				Signers: int(watermark), Sigs: int(s.compactStats.Instances), Flag: err == nil,
			})
		}
	}
}

// fail resolves a batch whose instance could not even be scheduled.
func (s *Service) fail(batch []*request, inst Instance, err error) {
	res := &InstanceResult{Instance: inst, Shard: -1, Err: err}
	now := time.Now()
	s.mu.Lock()
	s.stats.Instances++
	s.stats.InstancesFailed++
	s.mu.Unlock()
	for _, req := range batch {
		req.ch <- Result{Value: req.value, Instance: res, Latency: now.Sub(req.enq), Err: err}
	}
}

// lockedSink serializes emissions from concurrent submitters and shard
// workers onto one underlying sink.
type lockedSink struct {
	mu  sync.Mutex
	dst trace.Sink
}

func (l *lockedSink) Emit(e trace.Event) {
	l.mu.Lock()
	l.dst.Emit(e)
	l.mu.Unlock()
}
