package main

import "encoding/json"

// The benchmark's contract with the driver lives in BENCHMARK.json at the
// repository root. This file is the single source of it: `-spec` prints the
// JSON, and the smoke test checks the committed file still matches.

// metricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const (
	wlWireSmall    = "wire-small"
	wlDurableBatch = "durable-batch"
	wlMeshDelay    = "mesh-delay"
	wlSweepLarge   = "sweep-large"
)

// runSeconds is how long one driver run measures. The driver makes
// 4 + 22 x 4 = 92 runs inside 3420 s including two builds, so a run's
// seven cold starts plus its window must stay near 30 s.
const runSeconds = 25

var workloadSpecs = []workloadSpec{
	{wlWireSmall, "closed loop over the line protocol into a tiny alg1 n=5 instance: the wire and the admission-to-delivery pipeline are the work; sig, sim, transport, journal do almost nothing"},
	{wlDurableBatch, "open loop at a pinned 6000 values/s into alg1-multi n=7, batches of 4 with a 1 ms linger and a group-commit journal, recovered from a crashed generation: batching, linger and journal cost show"},
	{wlMeshDelay, "closed loop over warm TCP meshes with a stated 2 ms link delay, 2 shards and an in-budget crash fault on every instance: transport, wire and the phase barrier are the work"},
	{wlSweepLarge, "offline serial pass over the paper's 16 E1-E5 grid cells up to alg5 n=1024: sim, sig chains and the five algorithms do all the work, service/transport/journal none; owns peak memory"},
}

// The bounds are the issue's. The issue listed three more metrics end to
// end, each at 10%: ack_p50_ms, ack_p90_ms and cpu_us_per_value. On the build
// box, over six sets of ten runs of the same code, the ack quantiles' quartile
// spread reached 8-10% on three workloads, inside the bound with nothing to
// spare, and CPU per value 17-28% on the two timer-bound ones. The issue's
// rule for that is demotion, not a wider bound (README, "Demoted"): they are
// per-layer metrics now (ack_p50_ms, ack_p90_ms, runtime.cpu_us_per_value),
// and every untraced run still prints them as context.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.15},
	{"values_per_s", "1/s", "higher", 0.10},
	{"allocs_per_value", "count", "lower", 0.03},
	{"msgs_per_value", "count", "lower", 0.08},
	{"sigs_per_value", "count", "lower", 0.08},
	{"wire_bytes_per_value", "B", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// gridCell names one cell of the sweep-large grid; the per-layer
// core.run_ms.<cell> metrics are derived from it.
var gridCellNames = []string{
	"alg1-t4", "alg1-t8", "alg1-t16",
	"alg2-t4", "alg2-t8", "alg2-t16",
	"alg3-s2", "alg3-s8", "alg3-s16", "alg3-s32",
	"alg4-m4", "alg4-m8",
	"alg5-n64-t3", "alg5-n256-t3", "alg5-n1024-t3", "alg5-n256-t4",
}

var gridAlgs = []string{"alg1", "alg2", "alg3", "alg4", "alg5"}

// perLayer is every per-layer metric a traced run prints. A traced run of
// one workload measures the layers that workload exercises; a layer it does
// not touch (no journal on wire-small, no mesh on sweep-large) reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	out := []metricSpec{
		{Name: "service.line_overhead_us", Unit: "us", Better: "lower"},
		{Name: "service.pipeline_wait_us", Unit: "us", Better: "lower"},
		{Name: "service.shard_run_us", Unit: "us", Better: "lower"},
		{Name: "service.submit_call_ns", Unit: "ns", Better: "lower"},
		{Name: "service.batch_mean", Unit: "count", Better: "higher"},
		{Name: "service.queue_high_water", Unit: "count", Better: "lower"},
		{Name: "service.shed_ratio", Unit: "ratio", Better: "lower"},
		{Name: "service.gen_lateness_us_p90", Unit: "us", Better: "lower"},
		{Name: "service.shard_imbalance", Unit: "ratio", Better: "lower"},
		{Name: "service.shard_speedup_2", Unit: "ratio", Better: "higher"},
		{Name: "journal.admit_us_p50", Unit: "us", Better: "lower"},
		{Name: "journal.admit_us_p90", Unit: "us", Better: "lower"},
		{Name: "journal.admit_always_us_p50", Unit: "us", Better: "lower"},
		{Name: "journal.syncs_per_value", Unit: "count", Better: "lower"},
		{Name: "journal.bytes_per_value", Unit: "B", Better: "lower"},
		{Name: "journal.checkpoints", Unit: "count", Better: "higher"},
		{Name: "journal.segments_pruned", Unit: "count", Better: "higher"},
		{Name: "journal.recover_ms", Unit: "ms", Better: "lower"},
		{Name: "journal.replay_values_per_s", Unit: "1/s", Better: "higher"},
		{Name: "transport.mesh_dial_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.instance_ms_nodelay", Unit: "ms", Better: "lower"},
		{Name: "transport.instance_ms_delay", Unit: "ms", Better: "lower"},
		{Name: "transport.barrier_remainder_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.bytes_per_instance", Unit: "B", Better: "lower"},
		{Name: "transport.cold_instance_ms", Unit: "ms", Better: "lower"},
		{Name: "wire.signedvalue_marshal_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.signedvalue_unmarshal_ns", Unit: "ns", Better: "lower"},
		{Name: "sig.sign_ns.hmac", Unit: "ns", Better: "lower"},
		{Name: "sig.sign_ns.ed25519", Unit: "ns", Better: "lower"},
		{Name: "sig.chain_verify_us.L16", Unit: "us", Better: "lower"},
		{Name: "sig.chain_verify_cached_us.L16", Unit: "us", Better: "lower"},
		{Name: "sig.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, c := range gridCellNames {
		out = append(out, metricSpec{Name: "core.run_ms." + c, Unit: "ms", Better: "lower"})
	}
	out = append(out, metricSpec{Name: "core.setup_us.n1024", Unit: "us", Better: "lower"})
	for _, a := range gridAlgs {
		out = append(out,
			metricSpec{Name: "core.msgs." + a, Unit: "count", Better: "lower"},
			metricSpec{Name: "core.sigs." + a, Unit: "count", Better: "lower"},
			metricSpec{Name: "core.phases." + a, Unit: "count", Better: "lower"})
	}
	out = append(out,
		metricSpec{Name: "sim.allocs_per_run.alg5-n1024", Unit: "count", Better: "lower"},
		metricSpec{Name: "sim.alloc_kb_per_run.alg5-n1024", Unit: "KB", Better: "lower"},
		metricSpec{Name: "runner.map_speedup_2w", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "faultnet.inert_plan_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "trace.ring_overhead_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "obs.scrape_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "obs.scrape_allocs", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.cpu_us_per_value", Unit: "us", Better: "lower"},
		metricSpec{Name: "runtime.alloc_kb_per_value", Unit: "KB", Better: "lower"},
		metricSpec{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "ack_p50_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "ack_p90_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "ack_p99_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricSpec{Name: "machine.calib_ms_best", Unit: "ms", Better: "lower"},
		metricSpec{Name: "machine.calib_ms_med", Unit: "ms", Better: "lower"},
	)
	return out
}

func theSpec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(theSpec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
