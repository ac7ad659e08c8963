package trace_test

import (
	"bytes"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/trace"
)

func enqueueEvent(depth int) trace.Event {
	return trace.Event{Kind: trace.KindEnqueue, From: ident.None, To: ident.None, Sigs: depth, Value: 1}
}

func instanceEvents(id int) []trace.Event {
	return []trace.Event{
		{Kind: trace.KindInstanceStart, From: ident.None, To: ident.None, Signers: id, Sigs: 1, Value: 7},
		{Kind: trace.KindSend, Phase: 1, From: 0, To: 1, Sigs: 1, Signers: 1, Bytes: 10},
		{Kind: trace.KindInstanceDone, From: ident.None, To: ident.None, Signers: id, Sigs: 1, Value: 7, Flag: true},
	}
}

// TestSpoolFlushAtDelivery pins the write-through contract: instance-scoped
// events are on the underlying writer (not just buffered) as soon as their
// instance-done lands, while admission-scoped events stay in the ring until
// Close.
func TestSpoolFlushAtDelivery(t *testing.T) {
	var out bytes.Buffer
	sp := trace.NewSpool(&out, 8)

	sp.Emit(enqueueEvent(1))
	for _, e := range instanceEvents(0) {
		sp.Emit(e)
	}
	got, err := trace.ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("after instance-done the file holds %d events, want 3 (flush at delivery)", len(got))
	}
	for _, e := range got {
		if e.Kind.AdmissionScoped() {
			t.Fatalf("admission-scoped %v written before Close", e.Kind)
		}
	}

	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := trace.ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("after Close the file holds %d events, want 4 (ring tail appended)", len(all))
	}
	if last := all[3]; last.Kind != trace.KindEnqueue {
		t.Fatalf("ring tail not appended last: %v", last.Kind)
	}
}

// TestSpoolDropAccounting is the satellite acceptance test: admission-scoped
// events beyond the ring capacity are dropped, counted, and reflected in the
// snapshot — never buffered.
func TestSpoolDropAccounting(t *testing.T) {
	var out bytes.Buffer
	const ringCap, emitted = 4, 100
	sp := trace.NewSpool(&out, ringCap)
	for i := 0; i < emitted; i++ {
		sp.Emit(enqueueEvent(i))
	}
	st := sp.Stats()
	if st.Dropped != emitted-ringCap {
		t.Fatalf("dropped %d, want %d", st.Dropped, emitted-ringCap)
	}
	if st.RingLen != ringCap || st.RingCap != ringCap {
		t.Fatalf("ring %d/%d, want %d/%d", st.RingLen, st.RingCap, ringCap, ringCap)
	}
	if st.Events != emitted {
		t.Fatalf("events %d, want %d (drops still counted)", st.Events, emitted)
	}
	if st.Summary.Enqueued != emitted {
		t.Fatalf("live summary enqueued %d, want %d (aggregation precedes dropping)", st.Summary.Enqueued, emitted)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the surviving window reaches the file.
	all, err := trace.ReadJSONL(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ringCap {
		t.Fatalf("file holds %d admission events, want the %d-event window", len(all), ringCap)
	}
	if all[0].Sigs != emitted-ringCap {
		t.Fatalf("window starts at depth %d, want %d (oldest surviving)", all[0].Sigs, emitted-ringCap)
	}
}

// TestSpoolSummaryMatchesSummarize pins the live aggregate: a spool's
// summary equals Summarize over the full emitted stream, drops included.
func TestSpoolSummaryMatchesSummarize(t *testing.T) {
	var out bytes.Buffer
	sp := trace.NewSpool(&out, 2)
	var stream []trace.Event
	for i := 0; i < 20; i++ {
		stream = append(stream, enqueueEvent(i))
		stream = append(stream, instanceEvents(i)...)
	}
	stream = append(stream, trace.Event{Kind: trace.KindCheckpoint, Signers: 20, Sigs: 20, Flag: true})
	stream = append(stream, trace.Event{Kind: trace.KindVerifyHit, Sigs: 3})
	for _, e := range stream {
		sp.Emit(e)
	}
	want := trace.Summarize(stream)
	st := sp.Stats()
	if st.Summary.Events != want.Events ||
		st.Summary.Enqueued != want.Enqueued ||
		st.Summary.InstancesDone != want.InstancesDone ||
		st.Summary.Checkpoints != want.Checkpoints ||
		st.Summary.VerifyHits != want.VerifyHits {
		t.Fatalf("live summary diverged from Summarize:\nlive %+v\nwant %+v", st.Summary, *want)
	}
	if got := st.Summary.Totals(); got != want.Totals() {
		t.Fatalf("totals diverged: %+v vs %+v", got, want.Totals())
	}
	if st.Kinds[trace.KindEnqueue] != 20 || st.Kinds[trace.KindSend] != 20 || st.Kinds[trace.KindCheckpoint] != 1 {
		t.Fatalf("per-kind counts wrong: %v", st.Kinds)
	}
}

// TestSpoolAdmissionEmitAllocsFree pins the sustained-load memory story: once
// the phase table exists, spooling an admission-scoped event allocates
// nothing, so a server emitting millions of enqueues holds memory constant.
func TestSpoolAdmissionEmitAllocsFree(t *testing.T) {
	var out bytes.Buffer
	sp := trace.NewSpool(&out, 64)
	sp.Emit(enqueueEvent(0)) // settle the phase-0 slot
	allocs := testing.AllocsPerRun(1000, func() {
		sp.Emit(enqueueEvent(1))
	})
	if allocs > 0 {
		t.Fatalf("admission-scoped Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestSpoolSnapshotReusesStorage pins the scrape path: repeated StatsInto
// into the same holder allocates nothing.
func TestSpoolSnapshotReusesStorage(t *testing.T) {
	var out bytes.Buffer
	sp := trace.NewSpool(&out, 16)
	for _, e := range instanceEvents(0) {
		sp.Emit(e)
	}
	var st trace.SpoolStats
	sp.StatsInto(&st) // first call sizes PerPhase
	allocs := testing.AllocsPerRun(1000, func() {
		sp.StatsInto(&st)
	})
	if allocs > 0 {
		t.Fatalf("StatsInto allocates %.1f/op after warm-up, want 0", allocs)
	}
}
