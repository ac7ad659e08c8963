package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/obs"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/trace"
)

func template(seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Seed: seed}
}

// parseExposition validates the Prometheus text format strictly enough to
// catch renderer bugs — every sample's family must have been declared by a
// preceding HELP+TYPE pair, no family may be declared twice, every sample
// line must be `name[{labels}] value` — and returns the samples keyed by
// their full name (labels included).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	declared := make(map[string]string) // family -> type
	var pendingHelp string
	current := ""
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			pendingHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "gauge" && typ != "counter" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if name != pendingHelp {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP (saw %q)", ln+1, name, pendingHelp)
			}
			if _, dup := declared[name]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, name)
			}
			declared[name] = typ
			current = name
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			idx := strings.LastIndexByte(line, ' ')
			if idx < 0 {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, valText := line[:idx], line[idx+1:]
			family, _, _ := strings.Cut(name, "{")
			if family != current {
				t.Fatalf("line %d: sample %s outside its family block (current %s)", ln+1, name, current)
			}
			if _, ok := declared[family]; !ok {
				t.Fatalf("line %d: sample %s has no HELP/TYPE", ln+1, name)
			}
			v, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valText, err)
			}
			if _, dup := samples[name]; dup {
				t.Fatalf("line %d: duplicate sample %s", ln+1, name)
			}
			samples[name] = v
		}
	}
	return samples
}

// newObservedService builds a service traced through a spool, with both
// collectors registered — the baserve wiring in miniature.
func newObservedService(t *testing.T, cfg service.Config, ringCap int) (*service.Service, *trace.Spool, *obs.Exporter) {
	t.Helper()
	sp := trace.NewSpool(io.Discard, ringCap)
	cfg.Trace = sp
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := obs.NewExporter()
	exp.Register(obs.NewServiceCollector(svc))
	exp.Register(obs.NewSpoolCollector(sp))
	return svc, sp, exp
}

// TestScrapeMatchesStatsAndSummary is the tentpole's self-check acceptance:
// the rendered exposition's counters must equal the same run's
// service.Stats and the spool's live trace Summary — the exporter is a
// view, never a second bookkeeper.
func TestScrapeMatchesStatsAndSummary(t *testing.T) {
	const values = 60
	svc, sp, exp := newObservedService(t, service.Config{
		Template:   template(11),
		Shards:     4,
		QueueDepth: values,
	}, 8)
	var wg sync.WaitGroup
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); <-ch }()
	}
	wg.Wait()
	svc.Close()

	got := parseExposition(t, string(exp.Render()))
	st := svc.Stats()
	sum := sp.Stats().Summary
	checks := []struct {
		sample string
		want   float64
	}{
		{"byzex_service_submitted_total", float64(st.Submitted)},
		{"byzex_service_values_decided_total", float64(st.ValuesDecided)},
		{"byzex_service_instances_total", float64(st.Instances)},
		{"byzex_service_queue_high_water", float64(st.QueueHighWater)},
		{"byzex_service_shards", float64(st.Shards)},
		{`byzex_service_rejected_total{reason="full"}`, float64(st.RejectedFull)},
		{`byzex_trace_events_total{kind="enqueue"}`, float64(sum.Enqueued)},
		{`byzex_trace_events_total{kind="instance-done"}`, float64(sum.InstancesDone)},
		{"byzex_trace_spool_dropped_total", float64(sp.Stats().Dropped)},
	}
	for _, c := range checks {
		v, ok := got[c.sample]
		if !ok {
			t.Fatalf("exposition missing %s", c.sample)
		}
		if v != c.want {
			t.Errorf("%s = %v, want %v", c.sample, v, c.want)
		}
	}
	// Cross-plane agreement: the trace stream and the service stats counted
	// the same traffic.
	if got["byzex_service_submitted_total"] != got[`byzex_trace_events_total{kind="enqueue"}`] {
		t.Errorf("submitted %v != enqueue events %v",
			got["byzex_service_submitted_total"], got[`byzex_trace_events_total{kind="enqueue"}`])
	}
	if got["byzex_service_instances_total"] != got[`byzex_trace_events_total{kind="instance-done"}`] {
		t.Errorf("instances %v != instance-done events %v",
			got["byzex_service_instances_total"], got[`byzex_trace_events_total{kind="instance-done"}`])
	}
	// Per-shard instance counts partition the total.
	var perShard float64
	for i := 0; i < st.Shards; i++ {
		perShard += got[fmt.Sprintf(`byzex_service_shard_instances_total{shard="%d"}`, i)]
	}
	if perShard != float64(st.Instances) {
		t.Errorf("shard instances sum to %v, want %v", perShard, st.Instances)
	}
}

// TestScrapeUnderLoad is the concurrency acceptance: scrapes proceed while
// 100 submissions are in flight, and every intermediate exposition parses
// cleanly (run under -race via make check).
func TestScrapeUnderLoad(t *testing.T) {
	const inflight = 100
	svc, _, exp := newObservedService(t, service.Config{
		Template:   template(13),
		Shards:     4,
		QueueDepth: inflight,
	}, 32)

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			// Concurrent scrapers use WriteTo: the copy-out happens under
			// the exporter's mutex (Render's shared buffer is single-scraper).
			var buf bytes.Buffer
			for {
				select {
				case <-done:
					return
				default:
				}
				buf.Reset()
				if _, err := exp.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
				parseExposition(t, buf.String())
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		ch, err := svc.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); <-ch }()
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	svc.Close()

	got := parseExposition(t, string(exp.Render()))
	if got["byzex_service_submitted_total"] != inflight {
		t.Fatalf("final scrape saw %v submissions, want %d", got["byzex_service_submitted_total"], inflight)
	}
}

// TestServeEndpoint covers the HTTP plane end to end: obs.Serve on a real
// listener, a plain GET of /metrics, correct content type, parseable body —
// what `curl <metrics-addr>/metrics` sees during a baload run.
func TestServeEndpoint(t *testing.T) {
	svc, _, exp := newObservedService(t, service.Config{
		Template:   template(17),
		QueueDepth: 8,
	}, 8)
	defer svc.Close()
	if _, err := svc.SubmitWait(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- obs.Serve(ctx, ln, exp) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	got := parseExposition(t, string(body))
	if got["byzex_service_submitted_total"] != 1 {
		t.Fatalf("scraped submitted=%v, want 1", got["byzex_service_submitted_total"])
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after cancel, want nil", err)
	}
}

// TestRenderZeroAlloc pins the scrape-path contract: after the first render
// sizes the buffer and the label caches, a scrape allocates nothing.
func TestRenderZeroAlloc(t *testing.T) {
	svc, _, exp := newObservedService(t, service.Config{
		Template:   template(19),
		QueueDepth: 8,
	}, 8)
	defer svc.Close()
	if _, err := svc.SubmitWait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	exp.Render() // warm-up: buffer + shard labels
	allocs := testing.AllocsPerRun(200, func() {
		exp.Render()
	})
	if allocs > 0 {
		t.Fatalf("Render allocates %.1f/op after warm-up, want 0", allocs)
	}
}

// TestDescValidation pins the construction-time guards.
func TestDescValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { obs.NewDesc("byzex_ok_total", "histogram", "h") },
		func() { obs.NewDesc("0bad", "gauge", "h") },
		func() { obs.NewDesc("bad-name", "counter", "h") },
		func() { obs.NewDesc("", "gauge", "h") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Desc did not panic")
				}
			}()
			bad()
		}()
	}
	// Escaping: label values with quotes and newlines stay one well-formed line.
	d := obs.NewDesc("byzex_escape_test", "gauge", "line one\nline \\ two")
	l := d.Label("k", "va\"l\nue\\")
	var w obs.Writer
	w.Family(d)
	w.LabelUint(l, 3)
	got := parseExposition(t, string(w.Bytes()))
	if got[`byzex_escape_test{k="va\"l\nue\\"}`] != 3 {
		t.Fatalf("escaped sample not found: %q", w.Bytes())
	}
}

// TestJournalScrape pins the durability plane on /metrics: a journaled
// service's scrape must expose the writer's record/checkpoint/sync/segment
// counters, equal to the journal's own Stats — the collector is a view over
// journal.Writer, never a second bookkeeper.
func TestJournalScrape(t *testing.T) {
	jw, rec, err := journal.Open(t.TempDir(), journal.Options{Template: template(17)})
	if err != nil {
		t.Fatal(err)
	}
	svc, _, exp := newObservedService(t, service.Config{
		Template:      template(17),
		Journal:       jw,
		FirstInstance: rec.FirstInstance(),
		Shards:        4,
		QueueDepth:    16,
	}, 8)
	exp.Register(obs.NewJournalCollector(jw))
	jw.SetReplayed(0)

	const values = 10
	var wg sync.WaitGroup
	for i := 0; i < values; i++ {
		ch, err := svc.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); <-ch }()
	}
	wg.Wait()
	svc.Close()
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}

	got := parseExposition(t, string(exp.Render()))
	js := jw.Stats()
	if js.Records != values || js.Checkpoints != 1 {
		t.Fatalf("writer stats %+v", js)
	}
	for sample, want := range map[string]float64{
		"byzex_journal_records_total":         float64(js.Records),
		"byzex_journal_checkpoints_total":     float64(js.Checkpoints),
		"byzex_journal_bytes_total":           float64(js.Bytes),
		"byzex_journal_syncs_total":           float64(js.Syncs),
		"byzex_journal_segments":              float64(js.Segments),
		"byzex_journal_pruned_segments_total": float64(js.Pruned),
		"byzex_journal_replayed_total":        0,
		// The failure families exist (and read zero) on a healthy journal,
		// so an alert on them can be written before the first incident.
		"byzex_journal_checkpoint_failures_total": 0,
		"byzex_journal_prune_failures_total":      0,
	} {
		v, ok := got[sample]
		if !ok {
			t.Fatalf("exposition missing %s", sample)
		}
		if v != want {
			t.Errorf("%s = %v, want %v", sample, v, want)
		}
	}
	if got["byzex_journal_records_total"] != got["byzex_service_submitted_total"] {
		t.Errorf("journal records %v != submitted %v (singleton batches)",
			got["byzex_journal_records_total"], got["byzex_service_submitted_total"])
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}
