package obs_test

import (
	"context"
	"io"
	"testing"

	"byzex/internal/obs"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// BenchmarkMetricsScrape measures one full exposition render over a live
// service and spool — the cost a scraper imposes per poll. allocs/op must
// report 0: the scrape path reuses the exporter's buffer and the
// collectors' snapshot holders, so monitoring cannot add GC pressure to a
// loaded server. BENCH_006.json is its archived run.
func BenchmarkMetricsScrape(b *testing.B) {
	sp := trace.NewSpool(io.Discard, 1024)
	svc, err := service.New(context.Background(), service.Config{
		Template:   template(99),
		Shards:     4,
		QueueDepth: 64,
		Trace:      sp,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 8; i++ {
		if _, err := svc.SubmitWait(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
	exp := obs.NewExporter()
	exp.Register(obs.NewServiceCollector(svc))
	exp.Register(obs.NewSpoolCollector(sp))
	body := exp.Render() // warm-up sizes the buffer and label caches
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Render()
	}
}
