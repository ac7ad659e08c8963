// Package wire implements the canonical binary encoding shared by the
// in-memory and TCP transports and by the signature chains.
//
// Protocol messages must serialize identically on every processor: a
// signature is computed over the canonical bytes, so any ambiguity in the
// encoding would let a faulty processor present the "same" message in two
// forms. The encoding is deliberately simple and deterministic:
//
//   - unsigned integers as uvarint, in the fewest bytes (Reader rejects
//     any longer spelling)
//   - signed integers as zigzag uvarint
//   - byte strings as uvarint length prefix + raw bytes
//   - lists as uvarint count + elements
//
// The Reader methods record the first error and make all subsequent reads
// no-ops, so decoding code can chain reads and check the error once
// ("handle errors once", per the style guide).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"byzex/internal/ident"
)

// ErrTruncated indicates the buffer ended before a complete value was read.
var ErrTruncated = errors.New("wire: truncated input")

// ErrNonCanonical indicates bytes Writer never produces for the value they
// decode to: an integer spelled with more bytes than needed (a varint whose
// last byte is zero, as in d1 00 for 51), or a processor identity past the
// range of ident.ProcID. Accepting either would give one message two wire
// forms — and a signature is over one.
var ErrNonCanonical = errors.New("wire: non-canonical varint")

// ErrWireVersion indicates a frame carried a version byte outside the
// compatibility window [FrameVersionMin, FrameVersion]. Receivers reject the
// frame (and close the connection) rather than guessing at the layout; the
// typed sentinel lets operators distinguish a version skew from corruption.
var ErrWireVersion = errors.New("wire: unsupported frame version")

// Frame versions. Every transport frame body starts with one version byte;
// the compatibility window [FrameVersionMin, FrameVersion] is what a receiver
// accepts, which is how a warm mesh rolls peers through an encoding change
// without a flag day: a rolled-out binary accepts both versions, so peers can
// be upgraded one at a time and emitters flipped once every receiver is new
// (transport.Net.WireVersion pins the emitted version during the roll).
const (
	// FrameV1 is the original framed layout: version byte, uvarint epoch,
	// uvarint phase, zigzag sender, uvarint message count, messages.
	FrameV1 byte = 1
	// FrameV2 adds a reserved frame-flags uvarint (must be zero) after the
	// sender field — the extension point the version window exists for.
	FrameV2 byte = 2

	// FrameVersion is the newest version this build understands (and the
	// highest it can emit).
	FrameVersion = FrameV2
	// FrameVersionMin is the oldest version this build still accepts.
	FrameVersionMin = FrameV1
)

// CheckFrameVersion validates a received frame's version byte against the
// compatibility window, returning an error wrapping ErrWireVersion outside
// it.
func CheckFrameVersion(v byte) error {
	if v < FrameVersionMin || v > FrameVersion {
		return fmt.Errorf("%w: got v%d, accept [v%d, v%d]", ErrWireVersion, v, FrameVersionMin, FrameVersion)
	}
	return nil
}

// ErrOversize indicates a length prefix exceeded the reader's limit; it
// guards against maliciously crafted payloads allocating huge buffers.
var ErrOversize = errors.New("wire: length prefix exceeds limit")

// MaxElem bounds any single length prefix (bytes of a string or elements of
// a list). 1 MiB is far above anything the protocols in this module send for
// a single field while still preventing pathological allocations.
const MaxElem = 1 << 20

// Writer accumulates a canonical encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated for n bytes. An
// encoder that knows its output's length (UintLen and the EncodedLen methods
// built on it) passes exactly that, and the payload is one allocation.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// WriterOn returns a writer that appends to buf: an encoder handed storage
// with room for its exact length writes in place.
func WriterOn(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoded bytes. The slice aliases the writer's internal
// buffer; callers that keep writing must copy it first.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the writer, keeping its buffer for reuse. Slices previously
// returned by Bytes alias that buffer and are overwritten by later writes —
// Reset is for hot paths that fully consume each encoding before the next
// (the TCP transport's frame writer).
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint appends an unsigned integer.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a signed integer using zigzag encoding.
func (w *Writer) Int(v int64) { w.buf = binary.AppendUvarint(w.buf, zigzag(v)) }

// Byte appends a single raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// BytesField appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Proc appends a processor identity.
func (w *Writer) Proc(p ident.ProcID) { w.Int(int64(p)) }

// Procs appends a count-prefixed list of processor identities.
func (w *Writer) Procs(ps []ident.ProcID) {
	w.Uint(uint64(len(ps)))
	for _, p := range ps {
		w.Proc(p)
	}
}

// Value appends an agreement value.
func (w *Writer) Value(v ident.Value) { w.Int(int64(v)) }

// UintLen is the number of bytes Uint writes for v.
func UintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// IntLen is the number of bytes Int, Proc and Value write for v.
func IntLen(v int64) int { return UintLen(zigzag(v)) }

// BytesFieldLen is the number of bytes BytesField writes for an n-byte string.
func BytesFieldLen(n int) int { return UintLen(uint64(n)) + n }

// Reader decodes a canonical encoding produced by Writer. Construct with
// NewReader. After any failure, Err returns the first error and every
// subsequent read returns the zero value.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset rewinds the reader onto a new buffer, clearing any sticky error —
// the zero-allocation alternative to NewReader for per-frame decoders that
// keep a Reader value alive across frames.
func (r *Reader) Reset(buf []byte) { r.buf, r.off, r.err = buf, 0, nil }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread remainder of the buffer.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// Done reports whether the whole buffer was consumed without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) }

// Finish returns an error unless the buffer was fully and cleanly consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uint reads an unsigned integer.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed integer.
func (r *Reader) Int() int64 { return unzigzag(r.Uint()) }

// Byte reads a single raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Len reads the length prefix of a byte string and validates it against
// MaxElem and the remaining buffer size.
func (r *Reader) Len() int { return r.Count(1) }

// Count reads the element count of a list whose elements each take at least
// min bytes, and validates it against MaxElem and what the rest of the buffer
// can hold. A decoder sizes its result by the count before it has seen the
// elements, so the bound is what keeps a short hostile payload from reserving
// many times its own length.
func (r *Reader) Count(min int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > MaxElem || int(n)*min > len(r.buf)-r.off {
		r.fail(ErrOversize)
		return 0
	}
	return int(n)
}

// BytesField reads a length-prefixed byte string. The result aliases the
// underlying buffer.
func (r *Reader) BytesField() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.BytesField()) }

// Proc reads a processor identity.
func (r *Reader) Proc() ident.ProcID {
	v := r.Int()
	if v != int64(ident.ProcID(v)) {
		r.fail(ErrNonCanonical)
		return 0
	}
	return ident.ProcID(v)
}

// Procs reads a count-prefixed list of processor identities.
func (r *Reader) Procs() []ident.ProcID {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	out := make([]ident.ProcID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Proc())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// ProcsInto reads a count-prefixed list of processor identities, appending
// into dst and returning the extended slice — the allocation-free variant of
// Procs for decode hot paths that own a reusable scratch (append only
// allocates when dst's capacity is exceeded). On a decoding error the
// reader's sticky error is set and dst is returned unchanged.
func (r *Reader) ProcsInto(dst []ident.ProcID) []ident.ProcID {
	n := r.Len()
	if r.err != nil {
		return dst
	}
	out := dst
	for i := 0; i < n; i++ {
		out = append(out, r.Proc())
	}
	if r.err != nil {
		return dst
	}
	return out
}

// Value reads an agreement value.
func (r *Reader) Value() ident.Value { return ident.Value(r.Int()) }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
