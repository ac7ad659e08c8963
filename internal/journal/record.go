package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/wire"
)

// Record kinds. The kind byte leads every record body so a scanner can
// dispatch before interpreting the layout behind it; unknown kinds fail
// typed (ErrCorrupt wraps the detail) rather than misparse.
const (
	recAdmission  byte = 1
	recCheckpoint byte = 2
)

// castagnoli is the CRC-32C polynomial table shared by every record frame.
// Castagnoli rather than IEEE because it detects the short-burst errors a
// torn page produces and has hardware support on the platforms we serve.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Admission is one journaled admission: everything needed to re-execute the
// instance byte-identically after a restart. Values are the raw submitted
// values (the packed instance value is recomputable via service.PackValues),
// TemplateHash fingerprints the run template the server was configured with,
// and FaultDigest fingerprints the compiled fault plan — both are verified
// at replay so a journal is never replayed under a different configuration
// than it was written under.
type Admission struct {
	ID           uint64
	TemplateHash uint64
	FaultDigest  uint64
	Values       []ident.Value
}

// Checkpoint is a drain marker: every admission below Watermark has been
// delivered, and Stats is the service's counter snapshot at that point (the
// seed for Config.BaseStats on the next boot).
type Checkpoint struct {
	Watermark uint64
	Stats     service.Stats
}

// appendRecord frames one encoded body onto buf the way segments store it:
// u32 big-endian body length, u32 big-endian CRC-32C of the body, body.
func appendRecord(buf []byte, body []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// encodeAdmission writes an admission body with w (reset first).
func encodeAdmission(w *wire.Writer, a Admission) {
	w.Reset()
	w.Byte(recAdmission)
	w.Uint(a.ID)
	w.Uint(a.TemplateHash)
	w.Uint(a.FaultDigest)
	w.Uint(uint64(len(a.Values)))
	for _, v := range a.Values {
		w.Value(v)
	}
}

// encodeCheckpoint writes a checkpoint body with w (reset first). Only the
// monotone counters and aggregates travel — the live gauges (queue depth,
// shard loads) are meaningless across a restart and are rebuilt fresh by the
// next service.
func encodeCheckpoint(w *wire.Writer, c Checkpoint) {
	w.Reset()
	w.Byte(recCheckpoint)
	w.Uint(c.Watermark)
	s := c.Stats
	w.Uint(s.Submitted)
	w.Uint(s.RejectedFull)
	w.Uint(s.RejectedDraining)
	w.Uint(s.Instances)
	w.Uint(s.InstancesFailed)
	w.Uint(s.ValuesDecided)
	w.Uint(uint64(s.QueueHighWater))
	w.Uint(s.MessagesCorrect)
	w.Uint(s.SignaturesCorrect)
	w.Uint(s.BytesCorrect)
	w.Int(int64(s.MaxLatency))
	w.Int(int64(s.TotalLatency))
	// Two reserved zeros where the retired batch grow/shrink counters were:
	// decode ends in Finish, so dropping them would break reads both ways.
	w.Uint(0)
	w.Uint(0)
}

// decodeRecord dispatches one CRC-verified record body. Exactly one of the
// returns is meaningful, selected by kind.
func decodeRecord(body []byte) (kind byte, adm Admission, ckpt Checkpoint, err error) {
	r := wire.NewReader(body)
	kind = r.Byte()
	switch kind {
	case recAdmission:
		adm.ID = r.Uint()
		adm.TemplateHash = r.Uint()
		adm.FaultDigest = r.Uint()
		n := r.Len()
		if r.Err() == nil && n > 0 {
			adm.Values = make([]ident.Value, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				adm.Values[i] = r.Value()
			}
		}
		if r.Err() == nil && n == 0 {
			return kind, adm, ckpt, fmt.Errorf("%w: admission %d with no values", ErrCorrupt, adm.ID)
		}
	case recCheckpoint:
		ckpt.Watermark = r.Uint()
		s := &ckpt.Stats
		s.Submitted = r.Uint()
		s.RejectedFull = r.Uint()
		s.RejectedDraining = r.Uint()
		s.Instances = r.Uint()
		s.InstancesFailed = r.Uint()
		s.ValuesDecided = r.Uint()
		s.QueueHighWater = int(r.Uint())
		s.MessagesCorrect = r.Uint()
		s.SignaturesCorrect = r.Uint()
		s.BytesCorrect = r.Uint()
		s.MaxLatency = time.Duration(r.Int())
		s.TotalLatency = time.Duration(r.Int())
		r.Uint() // the two reserved fields (see encodeCheckpoint)
		r.Uint()
	default:
		return kind, adm, ckpt, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if ferr := r.Finish(); ferr != nil {
		return kind, adm, ckpt, fmt.Errorf("%w: record kind %d: %v", ErrCorrupt, kind, ferr)
	}
	return kind, adm, ckpt, nil
}
