package journal

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"byzex/internal/service"
	"byzex/internal/wire"
)

// TestCheckpointLayoutUnchanged pins the checkpoint body across the removal
// of the batch grow/shrink counters. The hex is a body written by the last
// binary that had them (grows=3, shrinks=2, then both zero): it still
// decodes, and a checkpoint written today is that zero-counter body byte for
// byte, so a journal rolls forward and back between the two.
func TestCheckpointLayoutUnchanged(t *testing.T) {
	const (
		oldWithMoves = "025bac0207025a01a20221b960b29204808040809bee0280d0acf30e0302"
		oldZero      = "025bac0207025a01a20221b960b29204808040809bee0280d0acf30e0000"
	)
	want := Checkpoint{Watermark: 91, Stats: service.Stats{
		Submitted: 300, RejectedFull: 7, RejectedDraining: 2, Instances: 90, InstancesFailed: 1,
		ValuesDecided: 290, QueueHighWater: 33, MessagesCorrect: 12345, SignaturesCorrect: 67890,
		BytesCorrect: 1 << 20, MaxLatency: 3 * time.Millisecond, TotalLatency: 2 * time.Second,
	}}
	for _, h := range []string{oldWithMoves, oldZero} {
		body, _ := hex.DecodeString(h)
		kind, _, got, err := decodeRecord(body)
		if err != nil || kind != recCheckpoint {
			t.Fatalf("%s: kind %d err %v", h, kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decoded to %+v, want %+v", h, got, want)
		}
	}
	w := wire.NewWriter(64)
	encodeCheckpoint(w, want)
	if old, _ := hex.DecodeString(oldZero); !bytes.Equal(w.Bytes(), old) {
		t.Fatalf("checkpoint body %x, want the old layout %s", w.Bytes(), oldZero)
	}
}
