package obs

import (
	"strconv"

	"byzex/internal/journal"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// The serving-layer families. Counter versus gauge follows the Stats field
// semantics: monotone totals are counters; queue depth and shard count are
// gauges (QueueHighWater is a high-water mark — monotone, but not a sum, so
// it is exported as a gauge per Prometheus convention for watermarks).
var (
	dSubmitted = NewDesc("byzex_service_submitted_total", "counter",
		"Values admitted into the service's bounded queue.")
	dRejected = NewDesc("byzex_service_rejected_total", "counter",
		"Submissions rejected, by reason (full: queue at capacity; draining: service shutting down).")
	dInstances = NewDesc("byzex_service_instances_total", "counter",
		"Agreement instances delivered.")
	dInstancesFailed = NewDesc("byzex_service_instances_failed_total", "counter",
		"Delivered instances that failed to reach agreement.")
	dValuesDecided = NewDesc("byzex_service_values_decided_total", "counter",
		"Values resolved by committed instances (the amortization denominator).")
	dQueueDepth = NewDesc("byzex_service_queue_depth", "gauge",
		"Admission-queue depth at scrape time.")
	dQueueHighWater = NewDesc("byzex_service_queue_high_water", "gauge",
		"Deepest the admission queue has been.")
	dMsgsCorrect = NewDesc("byzex_service_messages_correct_total", "counter",
		"Correct-sender messages summed over delivered instances.")
	dSigsCorrect = NewDesc("byzex_service_signatures_correct_total", "counter",
		"Correct-sender signatures summed over delivered instances.")
	dBytesCorrect = NewDesc("byzex_service_bytes_correct_total", "counter",
		"Correct-sender payload bytes summed over delivered instances.")
	dLatencyMax = NewDesc("byzex_service_latency_max_seconds", "gauge",
		"Largest submit-to-delivery latency of any resolved value.")
	dLatencySum = NewDesc("byzex_service_latency_seconds_total", "counter",
		"Submit-to-delivery latency summed over resolved values; divide by byzex_service_values_decided_total for the mean.")
	dShards = NewDesc("byzex_service_shards", "gauge",
		"Configured shard-worker count.")
	dShardInstances = NewDesc("byzex_service_shard_instances_total", "counter",
		"Instances delivered per shard worker (the load-balance gauge).")

	labelRejectedFull     = dRejected.Label("reason", "full")
	labelRejectedDraining = dRejected.Label("reason", "draining")
)

// ServiceCollector exports one service's Stats. The snapshot holder and the
// per-shard labels are cached on the collector, so steady-state collection
// is allocation-free.
type ServiceCollector struct {
	svc    *service.Service
	stats  service.Stats
	shards []Label
}

// NewServiceCollector returns a collector over svc.
func NewServiceCollector(svc *service.Service) *ServiceCollector {
	return &ServiceCollector{svc: svc}
}

// Collect implements Collector: one StatsInto snapshot, then appends.
func (c *ServiceCollector) Collect(w *Writer) {
	c.svc.StatsInto(&c.stats)
	st := &c.stats
	w.Uint(dSubmitted, st.Submitted)
	w.Family(dRejected)
	w.LabelUint(labelRejectedFull, st.RejectedFull)
	w.LabelUint(labelRejectedDraining, st.RejectedDraining)
	w.Uint(dInstances, st.Instances)
	w.Uint(dInstancesFailed, st.InstancesFailed)
	w.Uint(dValuesDecided, st.ValuesDecided)
	w.Int(dQueueDepth, int64(st.QueueDepth))
	w.Int(dQueueHighWater, int64(st.QueueHighWater))
	w.Uint(dMsgsCorrect, st.MessagesCorrect)
	w.Uint(dSigsCorrect, st.SignaturesCorrect)
	w.Uint(dBytesCorrect, st.BytesCorrect)
	w.Float(dLatencyMax, st.MaxLatency.Seconds())
	w.Float(dLatencySum, st.TotalLatency.Seconds())
	w.Int(dShards, int64(st.Shards))
	w.Family(dShardInstances)
	for len(c.shards) < len(st.ShardInstances) {
		c.shards = append(c.shards, dShardInstances.Label("shard", strconv.Itoa(len(c.shards))))
	}
	for i, n := range st.ShardInstances {
		w.LabelUint(c.shards[i], n)
	}
}

// The journal families. All monotone except the live segment count.
var (
	dJournalRecords = NewDesc("byzex_journal_records_total", "counter",
		"Admission records written to the write-ahead journal.")
	dJournalCheckpoints = NewDesc("byzex_journal_checkpoints_total", "counter",
		"Checkpoint records appended to the journal.")
	dJournalBytes = NewDesc("byzex_journal_bytes_total", "counter",
		"Framed bytes written to journal segments (headers included).")
	dJournalSyncs = NewDesc("byzex_journal_syncs_total", "counter",
		"Journal fsync calls; records/syncs is the realized group-commit batch size.")
	dJournalSegments = NewDesc("byzex_journal_segments", "gauge",
		"Live journal segment files.")
	dJournalPruned = NewDesc("byzex_journal_pruned_segments_total", "counter",
		"Journal segment files deleted by checkpoints.")
	dJournalReplayed = NewDesc("byzex_journal_replayed_total", "counter",
		"Instances re-executed from the journal at the last recovery.")
	dJournalCheckpointFailures = NewDesc("byzex_journal_checkpoint_failures_total", "counter",
		"Checkpoint writes that failed (including the drain checkpoint, whose error the service swallows).")
	dJournalPruneFailures = NewDesc("byzex_journal_prune_failures_total", "counter",
		"Failed segment prunes; retried on the flusher tick and at the next checkpoint.")
)

// JournalCollector exports a journal writer's Stats. Same shape as the
// service collector: one cached snapshot per scrape, allocation-free in
// steady state.
type JournalCollector struct {
	w     *journal.Writer
	stats journal.Stats
}

// NewJournalCollector returns a collector over w.
func NewJournalCollector(w *journal.Writer) *JournalCollector {
	return &JournalCollector{w: w}
}

// Collect implements Collector: one StatsInto snapshot, then appends.
func (c *JournalCollector) Collect(w *Writer) {
	c.w.StatsInto(&c.stats)
	st := &c.stats
	w.Uint(dJournalRecords, st.Records)
	w.Uint(dJournalCheckpoints, st.Checkpoints)
	w.Uint(dJournalBytes, st.Bytes)
	w.Uint(dJournalSyncs, st.Syncs)
	w.Uint(dJournalSegments, st.Segments)
	w.Uint(dJournalPruned, st.Pruned)
	w.Uint(dJournalReplayed, st.Replayed)
	w.Uint(dJournalCheckpointFailures, st.CheckpointFailures)
	w.Uint(dJournalPruneFailures, st.PruneFailures)
}

// The trace families. Per-kind event counts use the wire names batrace
// reports, so a scrape and `batrace -counts` read the same vocabulary.
var (
	dTraceEvents = NewDesc("byzex_trace_events_total", "counter",
		"Trace events emitted, by kind (counted before any spool drop).")
	dSpoolFlushed = NewDesc("byzex_trace_spool_flushed_total", "counter",
		"Trace events written through to the spool's JSONL output.")
	dSpoolDropped = NewDesc("byzex_trace_spool_dropped_total", "counter",
		"Admission-scoped trace events dropped by the spool's bounded ring.")
	dSpoolRingLen = NewDesc("byzex_trace_spool_ring_events", "gauge",
		"Admission-scoped events currently retained in the spool ring.")
	dSpoolRingCap = NewDesc("byzex_trace_spool_ring_capacity", "gauge",
		"Fixed capacity of the spool's admission-scoped ring.")
	dVerifyHits = NewDesc("byzex_trace_verify_hits_total", "counter",
		"Signature links accepted from the verified-prefix cache.")
	dVerifyMisses = NewDesc("byzex_trace_verify_misses_total", "counter",
		"Signature links verified with real cryptography.")
	dFaults = NewDesc("byzex_trace_faults_total", "counter",
		"Fault-plan actions observed in the trace stream, by kind.")

	kindLabels = func() [trace.NumKinds]Label {
		var out [trace.NumKinds]Label
		for k := 1; k < trace.NumKinds; k++ {
			out[k] = dTraceEvents.Label("kind", trace.Kind(k).String())
		}
		return out
	}()
	labelFaultDrop    = dFaults.Label("kind", "drop")
	labelFaultDelay   = dFaults.Label("kind", "delay")
	labelFaultDup     = dFaults.Label("kind", "dup")
	labelFaultReorder = dFaults.Label("kind", "reorder")
	labelFaultCrash   = dFaults.Label("kind", "crash")
)

// SpoolCollector exports a trace spool's live counters: per-kind event
// totals, the bounded-ring gauges and drop counter, and the Summary-derived
// counters (signature-cache hits and misses, fault actions). Totals count
// every emitted event — the spool aggregates before it drops — so they match
// trace.Summarize over the full stream.
type SpoolCollector struct {
	spool *trace.Spool
	stats trace.SpoolStats
}

// NewSpoolCollector returns a collector over sp.
func NewSpoolCollector(sp *trace.Spool) *SpoolCollector {
	return &SpoolCollector{spool: sp}
}

// Collect implements Collector: one StatsInto snapshot, then appends.
func (c *SpoolCollector) Collect(w *Writer) {
	c.spool.StatsInto(&c.stats)
	st := &c.stats
	w.Family(dTraceEvents)
	for k := 1; k < trace.NumKinds; k++ {
		w.LabelUint(kindLabels[k], st.Kinds[k])
	}
	w.Uint(dSpoolFlushed, st.Flushed)
	w.Uint(dSpoolDropped, st.Dropped)
	w.Int(dSpoolRingLen, int64(st.RingLen))
	w.Int(dSpoolRingCap, int64(st.RingCap))
	w.Uint(dVerifyHits, uint64(st.Summary.VerifyHits))
	w.Uint(dVerifyMisses, uint64(st.Summary.VerifyMisses))
	w.Family(dFaults)
	w.LabelUint(labelFaultDrop, uint64(st.Summary.FaultDrops))
	w.LabelUint(labelFaultDelay, uint64(st.Summary.FaultDelays))
	w.LabelUint(labelFaultDup, uint64(st.Summary.FaultDups))
	w.LabelUint(labelFaultReorder, uint64(st.Summary.FaultReorders))
	w.LabelUint(labelFaultCrash, uint64(st.Summary.FaultCrashes))
}
