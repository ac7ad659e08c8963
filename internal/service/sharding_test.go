package service_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/trace"
	"byzex/internal/transport"
)

// runWorkload drives `values` sequential submissions through a fresh service
// built from cfg and returns the results in submission order plus the final
// stats and the recorded trace. Submissions are sequential so admission
// order — and therefore instance ids and seeds — is identical across runs.
func runWorkload(t *testing.T, cfg service.Config, values int) ([]service.Result, service.Stats, []trace.Event) {
	t.Helper()
	buf := trace.NewBuffer()
	cfg.Trace = buf
	cfg.TraceInstances = true
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]service.Result, values)
	chans := make([]<-chan service.Result, values)
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		results[i] = <-ch
	}
	svc.Close()
	return results, svc.Stats(), buf.Events()
}

// deterministicEvents drops the admission-scoped events (enqueue, reject,
// checkpoint — they carry live progress) and keeps the instance-scoped
// stream that the sharding contract promises is byte-identical at any shard
// count.
func deterministicEvents(events []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		if !e.Kind.AdmissionScoped() {
			out = append(out, e)
		}
	}
	return out
}

// TestShardingDeterministic is the tentpole's core contract: the same
// workload served at 1 shard and at 4 shards produces identical decisions,
// identical information-exchange metrics and a byte-identical instance-scoped
// trace — sharding changes wall-clock behavior only.
func TestShardingDeterministic(t *testing.T) {
	const values = 40
	base := service.Config{
		Template:   multiTemplate(7),
		QueueDepth: values,
	}

	cfg1 := base
	cfg1.Shards = 1
	res1, stats1, ev1 := runWorkload(t, cfg1, values)

	cfg4 := base
	cfg4.Shards = 4
	res4, stats4, ev4 := runWorkload(t, cfg4, values)

	if stats4.Shards != 4 || len(stats4.ShardInstances) != 4 {
		t.Fatalf("shard gauges not wired: %+v", stats4)
	}
	for i := range res1 {
		a, b := res1[i], res4[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("value %d failed: %v / %v", i, a.Err, b.Err)
		}
		if a.Decided != b.Decided || a.Committed != b.Committed {
			t.Fatalf("value %d diverged: 1-shard (%v,%v) vs 4-shard (%v,%v)",
				i, a.Decided, a.Committed, b.Decided, b.Committed)
		}
		if a.Instance.ID != b.Instance.ID || a.Instance.Config.Seed != b.Instance.Config.Seed {
			t.Fatalf("value %d instance identity diverged: id %d seed %d vs id %d seed %d",
				i, a.Instance.ID, a.Instance.Config.Seed, b.Instance.ID, b.Instance.Config.Seed)
		}
	}
	if stats1.MessagesCorrect != stats4.MessagesCorrect ||
		stats1.SignaturesCorrect != stats4.SignaturesCorrect ||
		stats1.ValuesDecided != stats4.ValuesDecided {
		t.Fatalf("metrics diverged:\n1 shard: %s\n4 shards: %s", stats1, stats4)
	}

	var buf1, buf4 bytes.Buffer
	if err := trace.WriteJSONL(&buf1, deterministicEvents(ev1)); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&buf4, deterministicEvents(ev4)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf4.Bytes()) {
		t.Fatalf("instance-scoped trace not byte-identical across shard counts (%d vs %d bytes)",
			buf1.Len(), buf4.Len())
	}
}

// TestShardingFaultPlanDeterministic extends the contract to fault
// injection: an in-budget fault plan produces the same decisions and the
// same fault counters whether instances run on 1 shard or concurrently on 4.
func TestShardingFaultPlanDeterministic(t *testing.T) {
	const values = 12
	tmpl := multiTemplate(11)
	spec, err := faultnet.ParseSpec("crash=6@3;drop=2->4@1-2/0.5")
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Faults = faultnet.MustCompile(spec, tmpl.Seed)
	if err := tmpl.Faults.CheckBudget(tmpl.N, tmpl.T); err != nil {
		t.Fatalf("fault plan out of budget: %v", err)
	}
	override := tmpl.Faults.Affected(tmpl.N)
	tmpl.FaultyOverride = &override
	base := service.Config{Template: tmpl, QueueDepth: values}

	cfg1, cfg4 := base, base
	cfg1.Shards = 1
	cfg4.Shards = 4
	res1, _, ev1 := runWorkload(t, cfg1, values)
	res4, _, ev4 := runWorkload(t, cfg4, values)

	for i := range res1 {
		if res1[i].Err != nil || res4[i].Err != nil {
			t.Fatalf("value %d failed under faults: %v / %v", i, res1[i].Err, res4[i].Err)
		}
		if res1[i].Decided != res4[i].Decided {
			t.Fatalf("value %d decided %v at 1 shard, %v at 4", i, res1[i].Decided, res4[i].Decided)
		}
	}
	s1 := trace.Summarize(deterministicEvents(ev1))
	s4 := trace.Summarize(deterministicEvents(ev4))
	if s1.FaultDrops != s4.FaultDrops || s1.FaultCrashes != s4.FaultCrashes {
		t.Fatalf("fault counters diverged: drops %d/%d crashes %d/%d",
			s1.FaultDrops, s4.FaultDrops, s1.FaultCrashes, s4.FaultCrashes)
	}
}

// TestServiceDrainUnderLoad closes the service while instances are mid-run
// on several shards: every admitted value must still resolve, submissions
// after Close must reject with ErrDraining, and Close must not return before
// the in-flight work is delivered.
func TestServiceDrainUnderLoad(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	svc, err := service.New(context.Background(), service.Config{
		Template:   multiTemplate(5),
		Shards:     2,
		QueueDepth: 16,
		Substrate: service.SharedRun(func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
			once.Do(started.Done)
			<-release
			return service.RunSim(ctx, cfg)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	const values = 8
	chans := make([]<-chan service.Result, 0, values)
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	started.Wait() // at least one instance is mid-run on a shard

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	// Close is draining; probes racing the flip may still be admitted (and
	// count toward the drain), but the loop must end with the typed
	// ErrDraining rejection, never ErrQueueFull.
	extra := 0
	deadline := time.After(5 * time.Second)
	for {
		_, err := svc.Submit(99)
		if err == nil {
			extra++
		} else if errors.Is(err, service.ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never saw ErrDraining, last err %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(release) // let the gated instances finish
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("admitted value %d failed during drain: %v", i, res.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("admitted value %d never resolved", i)
		}
	}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned")
	}
	stats := svc.Stats()
	if stats.ValuesDecided != uint64(values+extra) {
		t.Fatalf("drained service decided %d values, want %d", stats.ValuesDecided, values+extra)
	}
	if stats.RejectedDraining == 0 {
		t.Fatal("no draining rejections counted")
	}
}

// TestPercentileSmallSamples pins the nearest-rank (ceiling) percentile
// semantics at the sample counts a short load run actually produces.
func TestPercentileSmallSamples(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	cases := []struct {
		lats []time.Duration
		p    float64
		want time.Duration
	}{
		{[]time.Duration{ms(5)}, 50, ms(5)},
		{[]time.Duration{ms(5)}, 99, ms(5)},
		{[]time.Duration{ms(1), ms(9)}, 50, ms(1)},
		{[]time.Duration{ms(1), ms(9)}, 90, ms(9)}, // ceil: p90 of 2 samples is the max
		{[]time.Duration{ms(1), ms(9)}, 100, ms(9)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 25, ms(1)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 26, ms(2)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 75, ms(3)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 99, ms(4)},
	}
	for _, c := range cases {
		ls := &service.LoadStats{Latencies: c.lats}
		if got := ls.Percentile(c.p); got != c.want {
			t.Errorf("p%.0f of %v = %v, want %v", c.p, c.lats, got, c.want)
		}
	}
}

// TestFixedBatchingUnderBacklog gates the shard so a backlog builds, then
// releases it: with no linger a batch takes only what is queued, so the
// backlog packs into batches of at most BatchSize (fewer instances than
// values) and every value still commits.
func TestFixedBatchingUnderBacklog(t *testing.T) {
	release := make(chan struct{})
	buf := trace.NewBuffer()
	svc, err := service.New(context.Background(), service.Config{
		Template:   multiTemplate(9),
		Shards:     1,
		QueueDepth: 64,
		BatchSize:  8,
		Substrate: service.SharedRun(func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
			<-release
			return service.RunSim(ctx, cfg)
		}),
		Trace: buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const values = 32
	chans := make([]<-chan service.Result, 0, values)
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	close(release)
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("value %d: %v", i, res.Err)
		}
		if !res.Committed {
			t.Fatalf("value %d not committed", i)
		}
	}
	svc.Close()

	if stats := svc.Stats(); stats.Instances >= values {
		t.Fatalf("no amortization: %d instances for %d values", stats.Instances, values)
	}
	packed := 0
	for _, e := range buf.Events() {
		if e.Kind == trace.KindInstanceStart {
			if e.Sigs > 8 {
				t.Fatalf("instance %d packs %d values, BatchSize is 8", e.Signers, e.Sigs)
			}
			packed += e.Sigs
		}
	}
	if packed != values {
		t.Fatalf("instances pack %d values, %d were submitted", packed, values)
	}
}

// TestShardingDeterministicWarmTCP extends the determinism contract to the
// warm-mesh substrate: the same workload served over warm TCP meshes at 1
// shard and at 3 shards must yield identical decisions, metrics and a
// byte-identical instance-scoped trace. This also exercises epoch reset —
// every shard's mesh runs many instances back to back — and the service's
// per-shard Substrate.Close teardown.
func TestShardingDeterministicWarmTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP meshes under -short")
	}
	const values = 12
	tmpl := multiTemplate(19)
	netCfg := transport.Net{PhaseTimeout: 10 * time.Second}

	run := func(shards int) ([]service.Result, service.Stats, []trace.Event) {
		cfg := service.Config{
			Template:   tmpl,
			QueueDepth: values,
			Shards:     shards,
			Substrate:  service.NewWarmTCP(tmpl.N, netCfg),
		}
		return runWorkload(t, cfg, values)
	}

	res1, stats1, ev1 := run(1)
	res3, stats3, ev3 := run(3)

	for i := range res1 {
		if res1[i].Err != nil || res3[i].Err != nil {
			t.Fatalf("value %d failed over warm TCP: %v / %v", i, res1[i].Err, res3[i].Err)
		}
		if res1[i].Decided != res3[i].Decided || res1[i].Committed != res3[i].Committed {
			t.Fatalf("value %d diverged: 1-shard (%v,%v) vs 3-shard (%v,%v)",
				i, res1[i].Decided, res1[i].Committed, res3[i].Decided, res3[i].Committed)
		}
	}
	if stats1.MessagesCorrect != stats3.MessagesCorrect ||
		stats1.SignaturesCorrect != stats3.SignaturesCorrect ||
		stats1.ValuesDecided != stats3.ValuesDecided {
		t.Fatalf("metrics diverged over warm TCP:\n1 shard: %s\n3 shards: %s", stats1, stats3)
	}

	var buf1, buf3 bytes.Buffer
	if err := trace.WriteJSONL(&buf1, deterministicEvents(ev1)); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&buf3, deterministicEvents(ev3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Fatalf("warm-TCP instance trace not byte-identical across shard counts (%d vs %d bytes)",
			buf1.Len(), buf3.Len())
	}
}
