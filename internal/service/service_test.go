package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// template is the acceptance-criteria instance shape: alg1 (binary), n=7,
// t=3 — submitted values must stay in {0, 1}.
func template(seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Seed: seed}
}

// multiTemplate swaps in the multi-valued alg1 variant for tests that
// submit arbitrary values or batch (batching packs to an int64 digest).
func multiTemplate(seed int64) core.Config {
	return core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Seed: seed}
}

// TestServiceMatchesSerialRuns is the determinism contract: every instance
// the service executed concurrently must be byte-identical — full decision
// map, faulty set, message/signature/byte counters — to a serial core.Run
// of the instance's own Config.
func TestServiceMatchesSerialRuns(t *testing.T) {
	const values = 120
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{
		Template:   template(7),
		Shards:     8,
		QueueDepth: values,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []service.Result
	)
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := <-ch
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	svc.Close()

	if len(results) != values {
		t.Fatalf("resolved %d of %d", len(results), values)
	}
	seen := make(map[uint64]bool)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("value %v: %v", res.Value, res.Err)
		}
		if !res.Committed || res.Decided != res.Value {
			t.Fatalf("value %v: decided %v committed=%v", res.Value, res.Decided, res.Committed)
		}
		inst := res.Instance
		if seen[inst.ID] {
			continue // batchmates share the instance
		}
		seen[inst.ID] = true

		serial, err := core.Run(ctx, inst.Config)
		if err != nil {
			t.Fatalf("instance %d serial run: %v", inst.ID, err)
		}
		if len(serial.Sim.Decisions) != len(inst.Decisions) {
			t.Fatalf("instance %d: decision map sizes differ", inst.ID)
		}
		for id, d := range serial.Sim.Decisions {
			if got := inst.Decisions[id]; got != d {
				t.Fatalf("instance %d: decision of %v differs (service %+v, serial %+v)", inst.ID, id, got, d)
			}
		}
		sr, ir := serial.Sim.Report, inst.Report
		if sr.MessagesCorrect != ir.MessagesCorrect || sr.SignaturesCorrect != ir.SignaturesCorrect || sr.BytesCorrect != ir.BytesCorrect {
			t.Fatalf("instance %d: reports differ (service %s, serial %s)", inst.ID, ir.String(), sr.String())
		}
	}

	st := svc.Stats()
	if st.Submitted != values || st.ValuesDecided != values {
		t.Fatalf("stats: %s", st.String())
	}
	if st.AmortizedMessagesPerValue() <= 0 {
		t.Fatalf("amortized messages per value not recorded: %s", st.String())
	}
}

// TestServiceBatchingAmortizesCost pins the batching semantics: with batch
// size k and a linger, k values share one instance, the packed value is
// PackValues of the batch, and the amortized per-value message cost drops
// by ~k versus unbatched serving.
func TestServiceBatchingAmortizesCost(t *testing.T) {
	const batch, waves = 4, 6
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{
		Template:   multiTemplate(11),
		Shards:     2,
		QueueDepth: batch * waves,
		BatchSize:  batch,
		Linger:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan service.Result
	for i := 0; i < batch*waves; i++ {
		ch, err := svc.Submit(ident.Value(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	results := make([]service.Result, len(chans))
	for i, ch := range chans {
		results[i] = <-ch
	}
	svc.Close()

	instances := make(map[uint64]*service.InstanceResult)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.Committed {
			t.Fatalf("request %d not committed", i)
		}
		instances[res.Instance.ID] = res.Instance
	}
	// All instances must carry full batches (the linger window is generous
	// and submissions outpace the 2-wide executor).
	for id, inst := range instances {
		if len(inst.Values) != batch {
			t.Fatalf("instance %d: batch %d, want %d", id, len(inst.Values), batch)
		}
		if got := service.PackValues(inst.Values); inst.Config.Value != got {
			t.Fatalf("instance %d: packed %v, want %v", id, inst.Config.Value, got)
		}
		if inst.Decided != inst.Config.Value {
			t.Fatalf("instance %d: decided %v, want packed %v", id, inst.Decided, inst.Config.Value)
		}
	}
	if len(instances) != waves {
		t.Fatalf("%d instances for %d values, want %d", len(instances), batch*waves, waves)
	}

	st := svc.Stats()
	perValue := st.AmortizedMessagesPerValue()
	// One instance's cost serves `batch` values: amortized must be the
	// unbatched per-instance cost divided by the batch size.
	serial, err := core.Run(ctx, results[0].Instance.Config)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(serial.Sim.Report.MessagesCorrect) / float64(batch)
	if perValue != want {
		t.Fatalf("amortized msgs/value = %v, want %v", perValue, want)
	}
}

// TestServiceBackpressure fills the pipeline with a slow substrate and
// checks the typed rejection plus the queue-depth stats.
func TestServiceBackpressure(t *testing.T) {
	release := make(chan struct{})
	slow := func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		<-release
		return service.RunSim(ctx, cfg)
	}
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{
		Template:   template(3),
		Substrate:  service.SharedRun(slow),
		Shards:     1,
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 in the executor (+ up to 1 held by the batcher) + 2 queued: the
	// queue is certainly full after 4 admitted submissions.
	var chans []<-chan service.Result
	deadline := time.After(5 * time.Second)
	for len(chans) < 4 {
		ch, err := svc.Submit(ident.Value(len(chans) % 2))
		if err != nil {
			select {
			case <-deadline:
				t.Fatal("queue never filled")
			case <-time.After(time.Millisecond):
			}
			continue
		}
		chans = append(chans, ch)
	}
	// The queue now holds 2 and nothing completes: the next submission
	// must be rejected with the typed error.
	var rejected bool
	for i := 0; i < 100; i++ {
		if _, err := svc.Submit(1); errors.Is(err, service.ErrQueueFull) {
			rejected = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Fatal("no ErrQueueFull under sustained overload")
	}
	close(release)
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	svc.Close()
	st := svc.Stats()
	if st.RejectedFull == 0 {
		t.Fatalf("stats did not record rejections: %s", st.String())
	}
	if st.QueueHighWater < 2 {
		t.Fatalf("queue high water %d, want >= 2", st.QueueHighWater)
	}
}

// TestServiceDrain checks Close semantics: submissions after Close are
// rejected with ErrDraining, while work admitted before Close still
// completes.
func TestServiceDrain(t *testing.T) {
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{Template: template(5), QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := svc.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(2); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	res := <-ch
	if res.Err != nil || res.Decided != 1 {
		t.Fatalf("drained request: %+v", res)
	}
	if st := svc.Stats(); st.RejectedDraining != 1 {
		t.Fatalf("stats: %s", st.String())
	}
}

// TestServiceContextCancelDrains checks the graceful-drain-on-cancel path:
// cancelling New's context stops admission and resolves every future.
func TestServiceContextCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := service.New(ctx, service.Config{Template: template(9), QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan service.Result
	for i := 0; i < 8; i++ {
		ch, err := svc.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	cancel()
	svc.Close() // must not deadlock; also exercises idempotence with the watcher
	for i, ch := range chans {
		select {
		case <-ch:
			// Either a decision (run won the race) or a ctx error — the
			// future must resolve either way.
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never resolved after cancel", i)
		}
	}
	if _, err := svc.Submit(1); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("got %v, want ErrDraining after cancel", err)
	}
}

// TestServiceTraceEvents checks the serving-layer events land in the sink
// with the documented field reuse, and instance-internal events appear in
// instance order when TraceInstances is set.
func TestServiceTraceEvents(t *testing.T) {
	buf := trace.NewBuffer()
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{
		Template:       multiTemplate(13),
		Shards:         4,
		QueueDepth:     32,
		Trace:          buf,
		TraceInstances: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const values = 10
	var chans []<-chan service.Result
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	svc.Close()

	sum := trace.Summarize(buf.Events())
	if sum.Enqueued != values {
		t.Fatalf("enqueued %d, want %d", sum.Enqueued, values)
	}
	if sum.InstancesStarted != sum.InstancesDone {
		t.Fatalf("starts %d != dones %d", sum.InstancesStarted, sum.InstancesDone)
	}
	if sum.ValuesDecided != values {
		t.Fatalf("values decided %d, want %d", sum.ValuesDecided, values)
	}
	// instance-done events arrive in instance-id order (delivery order),
	// and TraceInstances must interleave per-instance sends before each.
	lastDone := -1
	sends := 0
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindInstanceDone:
			if e.Signers <= lastDone {
				t.Fatalf("instance-done out of order: %d after %d", e.Signers, lastDone)
			}
			lastDone = e.Signers
		case trace.KindSend:
			sends++
		}
	}
	if sends == 0 {
		t.Fatal("TraceInstances produced no instance-internal events")
	}
	if got := sum.Totals().MessagesCorrect; got != int(svc.Stats().MessagesCorrect) {
		t.Fatalf("trace counts %d correct messages, stats %d", got, svc.Stats().MessagesCorrect)
	}
}

// TestBatchingRequiresMultiValuedProtocol pins the "where the protocol
// permits" gate: a binary protocol cannot carry a packed batch digest, so a
// BatchSize > 1 config must be rejected at construction with the typed
// error.
func TestBatchingRequiresMultiValuedProtocol(t *testing.T) {
	_, err := service.New(context.Background(), service.Config{
		Template:  template(1),
		BatchSize: 4,
	})
	if !errors.Is(err, service.ErrBatchingUnsupported) {
		t.Fatalf("got %v, want ErrBatchingUnsupported", err)
	}
	svc, err := service.New(context.Background(), service.Config{
		Template:  multiTemplate(1),
		BatchSize: 4,
	})
	if err != nil {
		t.Fatalf("multi-valued template rejected: %v", err)
	}
	svc.Close()
}

// TestNewRefusesWhatEveryInstanceWould: a template whose fault plan crashes a
// processor beside the adversary's full coalition has a faulty set beyond t,
// and is refused at construction, with the engine's own error, instead of
// failing every instance it serves. An in-budget crash plan on a batching
// template still starts.
func TestNewRefusesWhatEveryInstanceWould(t *testing.T) {
	crash := faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{{Kind: faultnet.KCrash, Proc: 1, AtPhase: 2}}}, 1)
	tmpl := template(1)
	tmpl.Adversary, tmpl.Faults = adversary.Silent{}, crash
	if _, err := service.New(context.Background(), service.Config{Template: tmpl}); !errors.Is(err, sim.ErrTooManyFaulty) {
		t.Fatalf("got %v, want sim.ErrTooManyFaulty", err)
	}
	tmpl = multiTemplate(1)
	tmpl.Faults = crash
	svc, err := service.New(context.Background(), service.Config{Template: tmpl, BatchSize: 4})
	if err != nil {
		t.Fatalf("in-budget crash plan refused: %v", err)
	}
	svc.Close()
}

// TestPackValues pins the packing contract: singleton batches are identity
// (the serial-equivalence hinge), larger batches are deterministic and
// order-sensitive.
func TestPackValues(t *testing.T) {
	if got := service.PackValues([]ident.Value{42}); got != 42 {
		t.Fatalf("singleton packed to %v", got)
	}
	a := service.PackValues([]ident.Value{1, 2, 3})
	b := service.PackValues([]ident.Value{1, 2, 3})
	c := service.PackValues([]ident.Value{3, 2, 1})
	if a != b {
		t.Fatal("packing is not deterministic")
	}
	if a == c {
		t.Fatal("packing ignores order")
	}
}
