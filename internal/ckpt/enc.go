package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc builds a little-endian binary buffer. All state owners in the tree
// (nn.StateDict, proto.Set, the engine's history/ledger sections) encode
// through it so the byte layout has a single definition.
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{} }

// Buf returns the accumulated bytes.
func (e *Enc) Buf() []byte { return e.buf }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed float64 slice: one grow of the buffer, then
// the values' bits in place.
func (e *Enc) F64s(v []float64) {
	e.U64(uint64(len(v)))
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:n+8*len(v)]
	out := e.buf[n:]
	for _, f := range v {
		binary.LittleEndian.PutUint64(out, math.Float64bits(f))
		out = out[8:]
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends raw bytes with no prefix.
func (e *Enc) Bytes(b []byte) { e.buf = append(e.buf, b...) }

// Dec reads back what Enc wrote. Reads are sticky: the first underflow, or
// the first semantic error a caller records with Fail, is kept, and every
// later read returns the zero value. A decoder therefore reads a section's
// fields straight through and checks Err once — before it compares a decoded
// value against anything and before it applies any of them. Element counts
// come from Count, which bounds them by the bytes left, so a corrupt count
// can neither size an allocation nor spin a loop.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps b for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Remaining reports how many bytes are left unread.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Err reports the first error of any read or Fail, or nil.
func (d *Dec) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, capped so an append cannot reach past them.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.Fail(fmt.Errorf("ckpt: truncated data: need %d bytes at offset %d, have %d", n, d.off, d.Remaining()))
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// bound returns n as an int if n elements of at least minBytes each fit in
// the bytes left, and fails and returns 0 otherwise.
func (d *Dec) bound(n uint64, minBytes int) int {
	if d.err == nil && n > uint64(d.Remaining()/minBytes) {
		d.Fail(fmt.Errorf("ckpt: truncated data: count %d at offset %d needs %d+ bytes each, have %d",
			n, d.off, minBytes, d.Remaining()))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a u32 element count and returns it, or fails and returns 0
// when that many elements of at least minBytes each cannot fit in the bytes
// left.
func (d *Dec) Count(minBytes int) int { return d.bound(uint64(d.U32()), minBytes) }

// F64s reads a length-prefixed float64 slice.
func (d *Dec) F64s() []float64 {
	n := d.bound(d.U64(), 8)
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.take(d.bound(uint64(d.U32()), 1))) }
