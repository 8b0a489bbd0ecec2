package codec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(1<<63 + 7)
	e.Int64(-42)
	e.Uint32(0xdeadbeef)
	e.Int32(-1)
	e.Byte(0xab)
	e.Bool(true)
	e.Bool(false)
	var h [32]byte
	h[0], h[31] = 1, 2
	e.Bytes32(h)
	e.WriteBytes([]byte("payload"))
	e.String("name")
	e.WriteBytes(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 1<<63+7 {
		t.Fatalf("uint64: %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Fatalf("int64: %d", got)
	}
	if got := d.Uint32(); got != 0xdeadbeef {
		t.Fatalf("uint32: %x", got)
	}
	if got := d.Int32(); got != -1 {
		t.Fatalf("int32: %d", got)
	}
	if got := d.Byte(); got != 0xab {
		t.Fatalf("byte: %x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools out of order")
	}
	if got := d.Bytes32(); got != h {
		t.Fatalf("bytes32: %v", got)
	}
	if got := d.ReadBytes(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("bytes: %q", got)
	}
	if got := d.String(); got != "name" {
		t.Fatalf("string: %q", got)
	}
	if got := d.ReadBytes(); len(got) != 0 {
		t.Fatalf("empty bytes: %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestStickyErrorOnTruncation(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(1)
	data := e.Bytes()[:4] // cut the field in half
	d := NewDecoder(data)
	if got := d.Uint64(); got != 0 {
		t.Fatalf("truncated read must yield zero, got %d", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", d.Err())
	}
	// Error is sticky: further reads also fail and return zeros.
	if got := d.Uint32(); got != 0 {
		t.Fatalf("post-error read must yield zero, got %d", got)
	}
	if !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatalf("finish must keep first error, got %v", d.Finish())
	}
}

func TestOversizedLengthPrefixRejected(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(MaxBytesLen + 1)
	d := NewDecoder(e.Bytes())
	if b := d.ReadBytes(); b != nil {
		t.Fatalf("oversized field must return nil, got %d bytes", len(b))
	}
	if !errors.Is(d.Err(), ErrOversized) {
		t.Fatalf("want ErrOversized, got %v", d.Err())
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(1)
	e.Byte(9)
	d := NewDecoder(e.Bytes())
	d.Uint32()
	if !errors.Is(d.Finish(), ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", d.Finish())
	}
}

func TestReadBytesCopyIsIndependent(t *testing.T) {
	e := NewEncoder(16)
	e.WriteBytes([]byte("abc"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.ReadBytesCopy()
	buf[5] = 'X' // mutate the underlying input where 'b' lives (4-byte prefix + 1)
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("copy must be independent of input, got %q", got)
	}
}

func TestRawNesting(t *testing.T) {
	inner := NewEncoder(8)
	inner.Uint32(7)
	outer := NewEncoder(16)
	outer.Byte(1)
	outer.Raw(inner.Bytes())
	d := NewDecoder(outer.Bytes())
	if d.Byte() != 1 || d.Uint32() != 7 {
		t.Fatal("raw nesting must concatenate without framing")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestRemaining(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(1)
	e.Uint32(2)
	d := NewDecoder(e.Bytes())
	if d.Remaining() != 8 {
		t.Fatalf("remaining: %d", d.Remaining())
	}
	d.Uint32()
	if d.Remaining() != 4 {
		t.Fatalf("remaining after read: %d", d.Remaining())
	}
}

func TestPropertyRoundTripUint64(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEncoder(len(vals) * 8)
		for _, v := range vals {
			e.Uint64(v)
		}
		d := NewDecoder(e.Bytes())
		for _, v := range vals {
			if d.Uint64() != v {
				return false
			}
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripBytes(t *testing.T) {
	f := func(chunks [][]byte) bool {
		e := NewEncoder(64)
		for _, c := range chunks {
			e.WriteBytes(c)
		}
		d := NewDecoder(e.Bytes())
		for _, c := range chunks {
			if !bytes.Equal(d.ReadBytes(), c) {
				return false
			}
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeterministicEncoding(t *testing.T) {
	// The same logical content must always encode to identical bytes:
	// block hashing depends on it.
	f := func(a uint64, b int32, s string, p []byte) bool {
		enc := func() []byte {
			e := NewEncoder(32)
			e.Uint64(a)
			e.Int32(b)
			e.String(s)
			e.WriteBytes(p)
			out := make([]byte, e.Len())
			copy(out, e.Bytes())
			return out
		}
		return bytes.Equal(enc(), enc())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
