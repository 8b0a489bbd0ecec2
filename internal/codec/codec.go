// Package codec implements the deterministic, length-prefixed binary
// encoding used for every SMARTCHAIN wire message and on-disk record.
//
// Determinism matters twice here: block hashes are computed over encoded
// headers, so two correct replicas must encode identical structures to
// identical bytes; and consensus decisions carry encoded batches whose hash
// is what replicas vote on.
//
// The format is simple big-endian fixed-width integers plus
// uint32-length-prefixed byte strings. Decoders are sticky-error: after the
// first malformed field every subsequent read returns zero values, and Err
// reports the failure, so callers can decode an entire struct and check the
// error once. A list is a uint32 element count followed by the elements;
// Count (and List on top of it) is the one way to read that count: a count
// the unread input cannot back sets the sticky error before anything is
// allocated for it, so no decoder sizes memory from a number it has not
// checked against the bytes it was actually given.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxBytesLen bounds a single length-prefixed field. It protects decoders
// from maliciously huge length prefixes; 64 MiB comfortably exceeds any
// legitimate block or snapshot chunk.
const MaxBytesLen = 64 << 20

// Decoding errors. ErrTruncated and ErrOversized are matched by transport
// and storage layers to distinguish torn records from corruption.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrOversized = errors.New("codec: declared length exceeds its bound")
	ErrTrailing  = errors.New("codec: trailing bytes after decode")
)

// Encoder accumulates an encoded message. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer. The slice aliases the encoder's internal
// storage; callers that keep encoding afterwards must copy it first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uint64 appends v as 8 big-endian bytes.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Int64 appends v as 8 big-endian bytes (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uint32 appends v as 4 big-endian bytes.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// Int32 appends v as 4 big-endian bytes (two's complement).
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Byte appends a single byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes32 appends exactly 32 bytes with no length prefix (hashes).
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// Bytes appends a uint32 length prefix followed by v.
func (e *Encoder) WriteBytes(v []byte) {
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends s as a length-prefixed byte string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends v with no prefix. Used to nest pre-encoded messages that carry
// their own framing.
func (e *Encoder) Raw(v []byte) { e.buf = append(e.buf, v...) }

// Decoder reads an encoded message produced by Encoder.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps data for decoding. The decoder does not copy data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Finish returns ErrTrailing if any input remains, otherwise Err.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.data)-d.off)
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail()
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads 8 big-endian bytes.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads 8 big-endian bytes as a signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uint32 reads 4 big-endian bytes.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Int32 reads 4 big-endian bytes as a signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a single byte as a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Bytes32 reads exactly 32 bytes.
func (d *Decoder) Bytes32() [32]byte {
	var out [32]byte
	b := d.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// ReadBytes reads a length-prefixed byte string. The returned slice aliases
// the decoder's input.
func (d *Decoder) ReadBytes() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		d.err = fmt.Errorf("%w: %d bytes", ErrOversized, n)
		return nil
	}
	return d.take(int(n))
}

// ReadBytesCopy reads a length-prefixed byte string into fresh storage.
func (d *Decoder) ReadBytesCopy() []byte {
	b := d.ReadBytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.ReadBytes()
	return string(b)
}

// Count reads the uint32 element count of a list whose elements each take at
// least minElem bytes of input (4 for a length-prefixed field, 32 for a hash;
// never 0). A count the unread input cannot back — count × minElem >
// Remaining — sets the sticky error to ErrOversized and reads as 0, so
// callers may size a slice or map from the result.
func (d *Decoder) Count(minElem int) int {
	if minElem <= 0 {
		panic("codec: Count needs a positive minimum element size")
	}
	n := d.Uint32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(minElem) > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: %d elements of at least %d bytes in %d", ErrOversized, n, minElem, d.Remaining())
		return 0
	}
	return int(n)
}

// List reads a Count-bounded list into a slice sized from the count, calling
// elem once per element and stopping at the first error; the result is nil
// for an empty list. Callers check Err (or Finish) afterwards as for any
// other field.
func List[T any](d *Decoder, minElem int, elem func(*Decoder) T) []T {
	n := d.Count(minElem)
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for ; n > 0 && d.err == nil; n-- {
		out = append(out, elem(d))
	}
	return out
}
