package wire_test

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"byzex/internal/ident"
	"byzex/internal/wire"
)

func TestRoundTripScalars(t *testing.T) {
	w := wire.NewWriter(64)
	w.Uint(0)
	w.Uint(math.MaxUint64)
	w.Int(0)
	w.Int(-1)
	w.Int(math.MaxInt64)
	w.Int(math.MinInt64)
	w.Byte(0xAB)
	w.Proc(ident.ProcID(42))
	w.Proc(ident.None)
	w.Value(ident.V1)

	r := wire.NewReader(w.Bytes())
	if got := r.Uint(); got != 0 {
		t.Errorf("uint 0: got %d", got)
	}
	if got := r.Uint(); got != math.MaxUint64 {
		t.Errorf("uint max: got %d", got)
	}
	for _, want := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		if got := r.Int(); got != want {
			t.Errorf("int %d: got %d", want, got)
		}
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("byte: got %x", got)
	}
	if got := r.Proc(); got != 42 {
		t.Errorf("proc: got %v", got)
	}
	if got := r.Proc(); got != ident.None {
		t.Errorf("none proc: got %v", got)
	}
	if got := r.Value(); got != ident.V1 {
		t.Errorf("value: got %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestRoundTripBytesAndStrings(t *testing.T) {
	cases := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xFF}, 1000)}
	for _, c := range cases {
		w := wire.NewWriter(8)
		w.BytesField(c)
		r := wire.NewReader(w.Bytes())
		got := r.BytesField()
		if err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		if !bytes.Equal(got, c) {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestRoundTripProcs(t *testing.T) {
	cases := [][]ident.ProcID{nil, {}, {0}, {1, 2, 3}, ident.Range(500)}
	for _, c := range cases {
		w := wire.NewWriter(8)
		w.Procs(c)
		r := wire.NewReader(w.Bytes())
		got := r.Procs()
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c) {
			t.Fatalf("len %d != %d", len(got), len(c))
		}
		for i := range c {
			if got[i] != c[i] {
				t.Errorf("elem %d: %v != %v", i, got[i], c[i])
			}
		}
	}
}

func TestProcsInto(t *testing.T) {
	cases := [][]ident.ProcID{nil, {}, {0}, {1, 2, 3}, ident.Range(500)}
	scratch := make([]ident.ProcID, 0, 8)
	for _, c := range cases {
		w := wire.NewWriter(8)
		w.Procs(c)
		r := wire.NewReader(w.Bytes())
		got := r.ProcsInto(scratch[:0])
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c) {
			t.Fatalf("len %d != %d", len(got), len(c))
		}
		for i := range c {
			if got[i] != c[i] {
				t.Errorf("elem %d: %v != %v", i, got[i], c[i])
			}
		}
	}
}

func TestProcsIntoAppends(t *testing.T) {
	// ProcsInto must extend dst, not restart it: an arena allocator hands it
	// a zero-length sub-slice of free space and relies on pure append
	// semantics.
	w := wire.NewWriter(8)
	w.Procs([]ident.ProcID{7, 8})
	dst := []ident.ProcID{1, 2, 3}
	r := wire.NewReader(w.Bytes())
	got := r.ProcsInto(dst)
	if len(got) != 5 || got[0] != 1 || got[2] != 3 || got[3] != 7 || got[4] != 8 {
		t.Fatalf("append semantics broken: %v", got)
	}
}

func TestProcsIntoTruncatedKeepsDst(t *testing.T) {
	// A decode failure mid-list must leave the visible dst untouched and the
	// reader's sticky error set.
	w := wire.NewWriter(8)
	w.Uint(3) // claims three elements
	w.Proc(5) // delivers one
	dst := make([]ident.ProcID, 0, 4)
	r := wire.NewReader(w.Bytes())
	got := r.ProcsInto(dst)
	if len(got) != 0 {
		t.Fatalf("truncated list extended dst: %v", got)
	}
	if r.Err() == nil {
		t.Fatal("truncated list decoded without error")
	}
}

func TestWriterReset(t *testing.T) {
	w := wire.NewWriter(4)
	w.Uint(1)
	w.BytesField([]byte("first"))
	first := append([]byte(nil), w.Bytes()...)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("reset writer has %d bytes", w.Len())
	}
	w.Uint(1)
	w.BytesField([]byte("first"))
	if !bytes.Equal(w.Bytes(), first) {
		t.Fatalf("re-encoding after Reset differs: %x vs %x", w.Bytes(), first)
	}
}

func TestReaderReset(t *testing.T) {
	w := wire.NewWriter(8)
	w.Uint(42)
	var r wire.Reader
	r.Reset(nil)
	_ = r.Uint() // fails: empty buffer
	if r.Err() == nil {
		t.Fatal("expected error on empty buffer")
	}
	// Reset must clear the sticky error and rewind onto the new buffer.
	r.Reset(w.Bytes())
	if got := r.Uint(); got != 42 || r.Finish() != nil {
		t.Fatalf("reader after Reset: got %d, err %v", got, r.Finish())
	}
}

func TestTruncatedInputs(t *testing.T) {
	w := wire.NewWriter(16)
	w.Uint(300)
	w.BytesField([]byte("payload"))
	full := w.Bytes()

	for cut := 0; cut < len(full); cut++ {
		r := wire.NewReader(full[:cut])
		r.Uint()
		r.BytesField()
		if r.Finish() == nil {
			t.Errorf("cut at %d: no error", cut)
		}
	}
}

func TestOversizeLengthRejected(t *testing.T) {
	w := wire.NewWriter(8)
	w.Uint(uint64(wire.MaxElem) + 1)
	r := wire.NewReader(w.Bytes())
	r.BytesField()
	if r.Err() == nil {
		t.Fatal("oversize length accepted")
	}
}

func TestLengthBeyondBufferRejected(t *testing.T) {
	w := wire.NewWriter(8)
	w.Uint(1000) // length prefix with no content behind it
	r := wire.NewReader(w.Bytes())
	r.BytesField()
	if r.Err() == nil {
		t.Fatal("length beyond buffer accepted")
	}
}

// TestNonCanonicalRejected: every read that decodes an integer refuses a
// spelling Writer would not have produced for it.
func TestNonCanonicalRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*wire.Reader)
	}{
		{"51 in two bytes", []byte{0xd1, 0x00}, func(r *wire.Reader) { r.Uint() }},
		{"0 in two bytes", []byte{0x80, 0x00}, func(r *wire.Reader) { r.Int() }},
		{"0 in three bytes", []byte{0x80, 0x80, 0x00}, func(r *wire.Reader) { r.Value() }},
		{"padded length", []byte{0x81, 0x00, 'a'}, func(r *wire.Reader) { r.BytesField() }},
		{"padded count", []byte{0x81, 0x00, 0x02}, func(r *wire.Reader) { r.Procs() }},
		{"processor past int32", []byte{0xb1, 0xb1, 0xb1, 0xb1, 0x30}, func(r *wire.Reader) { r.Proc() }},
		{"processor past int32 in a list", []byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x10}, func(r *wire.Reader) { r.ProcsInto(nil) }},
	} {
		r := wire.NewReader(tc.in)
		tc.read(r)
		if !errors.Is(r.Err(), wire.ErrNonCanonical) {
			t.Errorf("%s: err = %v, want ErrNonCanonical", tc.name, r.Err())
		}
	}
	// The largest and smallest identities Writer can be handed still pass.
	w := wire.NewWriter(16)
	w.Proc(math.MaxInt32)
	w.Proc(math.MinInt32)
	r := wire.NewReader(w.Bytes())
	if a, b := r.Proc(), r.Proc(); a != math.MaxInt32 || b != math.MinInt32 || r.Finish() != nil {
		t.Fatalf("int32 bounds: %v %v %v", a, b, r.Err())
	}
}

func TestErrorsSticky(t *testing.T) {
	r := wire.NewReader(nil)
	_ = r.Uint() // fails
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = r.Byte()
	_ = r.BytesField()
	if r.Err() != first {
		t.Fatal("error replaced after first failure")
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := wire.NewWriter(8)
	w.Uint(1)
	w.Byte(0xEE)
	r := wire.NewReader(w.Bytes())
	r.Uint()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		w := wire.NewWriter(16)
		w.Int(v)
		r := wire.NewReader(w.Bytes())
		return r.Int() == v && r.Finish() == nil && wire.IntLen(v) == w.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := wire.NewWriter(16)
		w.Uint(v)
		r := wire.NewReader(w.Bytes())
		return r.Uint() == v && r.Finish() == nil && wire.UintLen(v) == w.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// quick draws large values; the one- and two-byte boundaries by hand.
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		if !f(v) {
			t.Errorf("UintLen(%d) = %d does not match Writer.Uint", v, wire.UintLen(v))
		}
	}
}

// TestCountBoundsByElementSize: a count is held against what the rest of the
// buffer can hold at the stated minimum element size, so a decoder sizing its
// result by it reserves in proportion to the bytes it was given.
func TestCountBoundsByElementSize(t *testing.T) {
	w := wire.NewWriter(16)
	w.Uint(4)
	buf := append(w.Bytes(), make([]byte, 8)...)
	for min, ok := range map[int]bool{1: true, 2: true, 3: false} {
		r := wire.NewReader(buf)
		n := r.Count(min)
		if ok && (n != 4 || r.Err() != nil) {
			t.Errorf("Count(%d) = %d, %v over 8 bytes, want 4", min, n, r.Err())
		}
		if !ok && !errors.Is(r.Err(), wire.ErrOversize) {
			t.Errorf("Count(%d) over 8 bytes: err = %v, want ErrOversize", min, r.Err())
		}
	}
}

func TestQuickMixedSequenceRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, payload []byte, s string) bool {
		if len(payload) > wire.MaxElem || len(s) > wire.MaxElem {
			return true
		}
		w := wire.NewWriter(32)
		w.Uint(a)
		w.BytesField(payload)
		w.Int(b)
		w.String(s)
		r := wire.NewReader(w.Bytes())
		if r.Uint() != a {
			return false
		}
		if !bytes.Equal(r.BytesField(), payload) {
			return false
		}
		if r.Int() != b {
			return false
		}
		if r.String() != s {
			return false
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGarbageNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		r := wire.NewReader(garbage)
		_ = r.Uint()
		_ = r.BytesField()
		_ = r.Procs()
		_ = r.Int()
		_ = r.Finish()
		return true // only checking for absence of panics
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
