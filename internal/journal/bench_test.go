package journal_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/service"
)

// benchAdmit journals one synthetic admission without test plumbing.
func benchAdmit(b *testing.B, w *journal.Writer, id uint64) {
	inst := service.Instance{ID: id, Values: []ident.Value{ident.Value(id % 2)}}
	if err := w.Admit(inst); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppend measures admissions/s under the two durability
// policies. fsync=always pays one sync per record — the floor a safe-by-
// default journal imposes; group commit amortizes the sync over an interval,
// and the gap between the two rows is the price of the zero-loss window
// (BENCH_007).
func BenchmarkJournalAppend(b *testing.B) {
	for _, bc := range []struct {
		name  string
		fsync time.Duration
	}{
		{"fsync=always", 0},
		{"fsync=2ms", 2 * time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, _, err := journal.Open(b.TempDir(), journal.Options{
				Template: template(7), Fsync: bc.fsync,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = w.Close() }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAdmit(b, w, uint64(i))
			}
			b.StopTimer()
			s := w.Stats()
			b.ReportMetric(float64(s.Syncs)/float64(b.N), "syncs/op")
		})
	}
}

// BenchmarkJournalRecover measures the scan side: rebuilding the watermark
// and pending set from a 10k-admission journal (the recovery-replay budget
// for a crashed server is dominated by instance re-execution, not this scan,
// and the row proves it).
func BenchmarkJournalRecover(b *testing.B) {
	const records = 10_000
	dir := b.TempDir()
	w, _, err := journal.Open(dir, journal.Options{
		Template: template(7), Fsync: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		benchAdmit(b, w, uint64(i))
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := journal.Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Pending) != records {
			b.Fatalf("recovered %d of %d", len(rec.Pending), records)
		}
	}
}

// BenchmarkJournalSegments pins scan cost against segment fragmentation:
// the same 10k admissions spread over many small segments versus few large
// ones.
func BenchmarkJournalSegments(b *testing.B) {
	const records = 10_000
	for _, segBytes := range []int64{16 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("seg=%dKiB", segBytes>>10), func(b *testing.B) {
			dir := b.TempDir()
			w, _, err := journal.Open(dir, journal.Options{
				Template: template(7), Fsync: 100 * time.Millisecond, SegmentBytes: segBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				benchAdmit(b, w, uint64(i))
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := journal.Recover(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalCompactedRecover pins the tentpole property of live
// compaction: the recovery scan is bounded by the checkpoint cadence, not by
// the server's lifetime. Each sub-benchmark journals `total` admissions with
// -checkpoint-every 5000 semantics (MaybeCheckpoint driven by a delivered
// watermark that trails admission by a small in-flight window), then times
// Recover over the compacted directory. ns/op stays flat from 10k to 100k
// because pruning keeps the on-disk record count near the checkpoint budget;
// the records-scanned metric makes the bound visible (BENCH_008).
func BenchmarkJournalCompactedRecover(b *testing.B) {
	const (
		every = 5000
		lag   = 64 // in-flight window: watermark trails the newest admission
	)
	for _, total := range []int{10_000, 50_000, 100_000} {
		b.Run(fmt.Sprintf("total=%d", total), func(b *testing.B) {
			dir := b.TempDir()
			w, _, err := journal.Open(dir, journal.Options{
				Template:        template(7),
				Fsync:           100 * time.Millisecond,
				SegmentBytes:    64 << 10,
				CheckpointEvery: every,
			})
			if err != nil {
				b.Fatal(err)
			}
			var stats service.Stats
			for i := 0; i < total; i++ {
				benchAdmit(b, w, uint64(i))
				if i >= lag {
					if _, err := w.MaybeCheckpoint(uint64(i+1-lag), stats); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var scanned int
			for i := 0; i < b.N; i++ {
				rec, err := journal.Recover(dir)
				if err != nil {
					b.Fatal(err)
				}
				if len(rec.Pending) > every+lag {
					b.Fatalf("recovery scan not bounded: %d pending > %d", len(rec.Pending), every+lag)
				}
				scanned = rec.Records
			}
			b.StopTimer()
			b.ReportMetric(float64(scanned), "records-scanned")
		})
	}
}

// BenchmarkJournalReplayThroughput measures the other half of the recovery
// budget: re-executing pending admissions through Service.Replay. The scan
// above is microseconds; this row is the instances/s a restarted server
// sustains while working through its backlog, which with the compaction
// bound (≤ checkpoint-every + in-flight records) gives the worst-case
// restart-to-listening time.
func BenchmarkJournalReplayThroughput(b *testing.B) {
	const pending = 256
	dir := b.TempDir()
	tmpl := template(7)
	w, _, err := journal.Open(dir, journal.Options{
		Template: tmpl, Fsync: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pending; i++ {
		values := []ident.Value{ident.Value(i % 2)}
		inst := service.Instance{ID: uint64(i), Config: service.InstanceConfig(tmpl, uint64(i), values), Values: values}
		if err := w.Admit(inst); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		b.Fatal(err)
	}
	if len(rec.Pending) != pending {
		b.Fatalf("recovered %d of %d", len(rec.Pending), pending)
	}
	ctx := context.Background()
	svc, err := service.New(ctx, service.Config{
		Template: tmpl, Shards: 4, QueueDepth: pending,
		FirstInstance: rec.FirstInstance(), BaseStats: rec.BaseStats(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		a := rec.Pending[i%pending]
		ch, err := svc.Replay(a.Values)
		if err != nil {
			b.Fatal(err)
		}
		for range a.Values {
			if res := <-ch; res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "replays/s")
	}
}
