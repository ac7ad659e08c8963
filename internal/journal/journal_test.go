package journal_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
)

// template is the serving shape the drills use: alg1 binary, n=7, t=3.
func template(seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Seed: seed}
}

// admit journals one synthetic admission the way the service sequencer
// would, deriving the instance exactly as the service does.
func admit(t *testing.T, w *journal.Writer, tmpl core.Config, id uint64, values []ident.Value) {
	t.Helper()
	inst := service.Instance{ID: id, Config: service.InstanceConfig(tmpl, id, values), Values: values}
	if err := w.Admit(inst); err != nil {
		t.Fatalf("admit %d: %v", id, err)
	}
}

// TestJournalRoundTrip pins the basic write/scan contract: admissions go in,
// a crash (no checkpoint, writer just closed) leaves them all pending, and
// the recovered watermark clears every journaled id.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(11)
	w, rec, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Watermark != 0 || len(rec.Pending) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	for id := uint64(0); id < 5; id++ {
		admit(t, w, tmpl, id, []ident.Value{ident.Value(id % 2)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Watermark != 5 {
		t.Fatalf("watermark %d, want 5", rec2.Watermark)
	}
	if len(rec2.Pending) != 5 || rec2.FirstInstance() != 0 {
		t.Fatalf("pending %d first %d, want 5 from 0", len(rec2.Pending), rec2.FirstInstance())
	}
	for i, a := range rec2.Pending {
		if a.ID != uint64(i) || len(a.Values) != 1 || a.Values[0] != ident.Value(i%2) {
			t.Fatalf("pending %d: %+v", i, a)
		}
		if a.TemplateHash != journal.TemplateHash(tmpl) {
			t.Fatalf("pending %d template hash mismatch", i)
		}
	}
}

// TestJournalCheckpointPrunes pins the checkpoint contract: a checkpoint
// marks every earlier admission delivered (nothing pending afterwards),
// carries the stats snapshot for BaseStats, and deletes older segments.
func TestJournalCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(3)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 200; id++ { // enough to rotate several 512-byte segments
		admit(t, w, tmpl, id, []ident.Value{1})
	}
	stats := service.Stats{Submitted: 200, Instances: 200, ValuesDecided: 200, MaxLatency: 5 * time.Millisecond}
	if err := w.Checkpoint(200, stats); err != nil {
		t.Fatal(err)
	}
	js := w.Stats()
	if js.Records != 200 || js.Checkpoints != 1 {
		t.Fatalf("writer stats %+v", js)
	}
	if js.Pruned == 0 {
		t.Fatalf("no segments pruned across %d segments", js.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 {
		t.Fatalf("%d pending after checkpoint", len(rec.Pending))
	}
	if rec.Watermark != 200 || rec.FirstInstance() != 200 {
		t.Fatalf("watermark %d first %d, want 200", rec.Watermark, rec.FirstInstance())
	}
	base := rec.BaseStats()
	if base == nil || base.Submitted != 200 || base.MaxLatency != 5*time.Millisecond {
		t.Fatalf("checkpoint stats not recovered: %+v", base)
	}
	if rec.Segments != 1 {
		t.Fatalf("%d segments survived the prune", rec.Segments)
	}
}

// TestJournalTornTail pins crash semantics: a partial record at the tail of
// the final segment is cut by Open (records before it survive), while the
// read-only Recover merely counts the damage.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(9)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 3; id++ {
		admit(t, w, tmpl, id, []ident.Value{0})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a torn record header, as a crash mid-write leaves.
	segs, err := filepath.Glob(filepath.Join(dir, "*.jrnl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatalf("read-only recover refused a torn tail: %v", err)
	}
	if rec.TruncatedBytes != 6 || len(rec.Pending) != 3 {
		t.Fatalf("torn recover: truncated=%d pending=%d", rec.TruncatedBytes, len(rec.Pending))
	}

	w2, rec2, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatalf("open refused a torn tail: %v", err)
	}
	defer func() { _ = w2.Close() }()
	if rec2.TruncatedBytes != 6 || len(rec2.Pending) != 3 || rec2.Watermark != 3 {
		t.Fatalf("repair recover: %+v", rec2)
	}
	// The tear is gone from disk: a fresh read-only scan sees a clean tail.
	rec3, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TruncatedBytes != 0 {
		t.Fatalf("torn tail survived repair: %d bytes", rec3.TruncatedBytes)
	}
}

// TestJournalCorruptionRefused pins the loud-failure contract: a CRC flip
// anywhere before the tail is ErrCorrupt, not a silent partial replay.
func TestJournalCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(1)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 4; id++ {
		admit(t, w, tmpl, id, []ident.Value{1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.jrnl"))
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[12] ^= 0xFF // inside the first record, far from the tail
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Recover(dir); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("corrupt journal recovered: %v", err)
	}
	if _, _, err := journal.Open(dir, journal.Options{Template: tmpl}); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("corrupt journal opened: %v", err)
	}
}

// TestJournalGroupCommitFlushes pins the group-commit policy: records
// buffered between intervals reach disk within one interval without a
// per-record sync, and Close flushes whatever remains.
func TestJournalGroupCommitFlushes(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(5)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl, Fsync: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 50; id++ {
		admit(t, w, tmpl, id, []ident.Value{1})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec, err := journal.Recover(dir)
		if err == nil && len(rec.Pending) == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group commit never flushed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := w.Stats()
	if s.Syncs >= s.Records {
		t.Fatalf("group commit synced per record: %d syncs for %d records", s.Syncs, s.Records)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecordsCountWhatIsWritten: under group commit Stats.Records
// counts an admission once it is in the segment file, never while it only
// sits in the buffer — a caller that waits for Records to copy the directory
// (a simulated crash) must find every counted admission on disk.
func TestJournalRecordsCountWhatIsWritten(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(7)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl, Fsync: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 10; id++ {
		admit(t, w, tmpl, id, []ident.Value{1})
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Records; got != uint64(len(rec.Pending)) {
		t.Fatalf("Records = %d before the flush, %d admissions on disk", got, len(rec.Pending))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err = journal.Recover(dir); err != nil || len(rec.Pending) != 10 || w.Stats().Records != 10 {
		t.Fatalf("after Close: Records = %d, %d on disk, err %v", w.Stats().Records, len(rec.Pending), err)
	}
}

// TestJournalServiceEndToEnd drives the full loop: a journaled service
// serves traffic and drains (checkpoint, nothing pending), then a simulated
// crash (journal with admissions but no checkpoint) recovers through a new
// service and replays byte-identically against serial core.Run.
func TestJournalServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(21)
	ctx := context.Background()

	// Generation 1: clean drain.
	w1, rec1, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := service.New(ctx, service.Config{
		Template: tmpl, Journal: w1,
		FirstInstance: rec1.FirstInstance(), BaseStats: rec1.BaseStats(),
		Shards: 4, QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n1 = 12
	chs := make([]<-chan service.Result, 0, n1)
	for i := 0; i < n1; i++ {
		ch, err := svc1.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	for _, ch := range chs {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	svc1.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: crash — admissions journaled, never delivered, no
	// checkpoint. Simulated by journaling through a raw writer.
	w2, rec2, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.FirstInstance() != n1 || len(rec2.Pending) != 0 {
		t.Fatalf("gen2 recovery: first=%d pending=%d", rec2.FirstInstance(), len(rec2.Pending))
	}
	lost := [][]ident.Value{{1}, {0}, {1}} // binary template: singleton batches
	id := rec2.FirstInstance()
	for _, values := range lost {
		admit(t, w2, tmpl, id, values)
		id++
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: recover, replay, verify against serial runs.
	w3, rec3, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Pending) != len(lost) || rec3.FirstInstance() != n1 {
		t.Fatalf("gen3 recovery: pending=%d first=%d", len(rec3.Pending), rec3.FirstInstance())
	}
	if rec3.Watermark != n1+uint64(len(lost)) {
		t.Fatalf("gen3 watermark %d", rec3.Watermark)
	}
	base := rec3.BaseStats()
	if base == nil || base.Instances != n1 {
		t.Fatalf("gen3 base stats: %+v", base)
	}
	svc3, err := service.New(ctx, service.Config{
		Template: tmpl, Journal: w3,
		FirstInstance: rec3.FirstInstance(), BaseStats: base,
		Shards: 2, QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := rec3.Replay(svc3, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(lost) {
		t.Fatalf("replayed %d of %d", replayed, len(lost))
	}
	w3.SetReplayed(uint64(replayed))

	// Replay re-admitted the same ids: live traffic continues past them.
	ch, err := svc3.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Instance.ID != rec3.Watermark {
		t.Fatalf("post-replay instance id %d, want %d", res.Instance.ID, rec3.Watermark)
	}
	svc3.Close()
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}

	// Every replayed instance must be byte-identical to a serial run of its
	// journaled recipe — the determinism the journal's existence relies on.
	rec4, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec4.Watermark != n1+uint64(len(lost))+1 || len(rec4.Pending) != 0 {
		t.Fatalf("final journal: watermark=%d pending=%d", rec4.Watermark, len(rec4.Pending))
	}
	if rec4.Checkpoint == nil || rec4.Checkpoint.Stats.Instances != n1+uint64(len(lost))+1 {
		t.Fatalf("final checkpoint: %+v", rec4.Checkpoint)
	}
	for i, values := range lost {
		cfg := service.InstanceConfig(tmpl, n1+uint64(i), values)
		serial, err := core.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("serial rerun of replayed instance %d: %v", n1+i, err)
		}
		if dec, err := serial.Decision(cfg.Transmitter, cfg.Value); err != nil || dec != cfg.Value {
			t.Fatalf("replayed instance %d decision: %v %v", n1+i, dec, err)
		}
	}
}

// TestJournalReplayMismatch pins the safety check: a journal written under
// one template or fault plan refuses to replay under another.
func TestJournalReplayMismatch(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(2)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	admit(t, w, tmpl, 0, []ident.Value{1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}

	other := template(99) // different base seed: different instances
	if _, err := rec.Replay(nil, other); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("template mismatch accepted: %v", err)
	}
	faulty := tmpl
	faulty.Faults = faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{
		{Kind: faultnet.KDrop, From: 1, To: ident.None, First: 1, Last: 2, Prob: 1},
	}}, 7)
	if _, err := rec.Replay(nil, faulty); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("fault-plan mismatch accepted: %v", err)
	}
}

// TestTemplateHash pins the fingerprint: stable across calls, sensitive to
// each field that changes instance execution.
func TestTemplateHash(t *testing.T) {
	base := template(7)
	if journal.TemplateHash(base) != journal.TemplateHash(template(7)) {
		t.Fatal("hash not stable")
	}
	for name, mut := range map[string]func(*core.Config){
		"seed":        func(c *core.Config) { c.Seed++ },
		"n":           func(c *core.Config) { c.N++ },
		"t":           func(c *core.Config) { c.T-- },
		"transmitter": func(c *core.Config) { c.Transmitter = 2 },
		"protocol":    func(c *core.Config) { c.Protocol = alg1.MultiProtocol{} },
	} {
		cfg := base
		mut(&cfg)
		if journal.TemplateHash(cfg) == journal.TemplateHash(base) {
			t.Fatalf("%s change not reflected in hash", name)
		}
	}
	// Value is per-batch state, not template identity.
	cfg := base
	cfg.Value = 42
	if journal.TemplateHash(cfg) != journal.TemplateHash(base) {
		t.Fatal("value leaked into the template hash")
	}
}

// TestParseFsync pins the flag surface.
func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"always", 0, true},
		{"", 0, true},
		{"5ms", 5 * time.Millisecond, true},
		{"2s", 2 * time.Second, true},
		{"-1ms", 0, false},
		{"0", 0, false},
		{"never", 0, false},
	} {
		got, err := journal.ParseFsync(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseFsync(%q) = %v, %v", tc.in, got, err)
		}
	}
}
