package comm

// The wire codec: how payload value sections are encoded when they cross a
// client/server boundary, and what they cost. The codec layer lives here —
// next to the byte pricing — so the analytic ledger price and the packed
// wire encoding are the same arithmetic and cannot drift apart:
// SectionWireBytes(s, rows, cols) is exactly len(EncodeSection(...)) for
// every packed section kind, and the in-process value fidelity
// (ApplySection) is literally decode(encode(x)), the same functions the
// transport runs.
//
// Codecs and their per-section encodings:
//
//	float64raw  logits F64, protos F64, params F64 (the seed wire format:
//	            raw float64 values, exact round-trip, analytic pricing at
//	            BytesPerValue per scalar)
//	float32     logits F32, protos F32, params DeltaF32/F32
//	int8        logits I8, protos I8, params DeltaF32/F32
//
// Packed section layout (F32 / I8 / DeltaF32): a 1-byte section tag, a
// 4-byte IEEE CRC32 of the body (little-endian), then the body:
//
//	F32       n little-endian float32 values
//	I8        per row: float32 lo, float32 scale (little-endian), then
//	          cols bytes q[j] with v' = lo + q[j]*scale
//	DeltaF32  n little-endian float32 values of (v - ref), decoded as
//	          ref + delta — the model-update encoding: deltas against the
//	          round's global params are small, so float32 rounding error on
//	          the delta is far below float32 rounding of the raw weight
//
// Quantization error bounds (documented in DESIGN.md §4): F32/DeltaF32
// round each value (or its delta) to the nearest float32, a relative error
// of at most 2^-24; I8 reconstructs within step/2 + float32 rounding of the
// row's lo and scale, step = (max-min)/255 per row. Model parameters are
// never int8-quantized: weight tensors are range-fragile, which is why the
// int8 codec maps params to DeltaF32.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Codec names a negotiated wire encoding. The zero value (CodecFloat64) is
// the seed behaviour: raw float64 values, exact round-trip.
type Codec uint8

// Supported codecs, negotiated via the distributed RoundStart envelope and
// applied identically by the in-process engine.
const (
	// CodecFloat64 ("float64raw") ships raw float64 values. Exact; the
	// analytic ledger keeps pricing scalars at BytesPerValue, the paper's
	// float32-deployment accounting, so pre-codec goldens are bit-stable.
	CodecFloat64 Codec = iota
	// CodecFloat32 rounds every section through float32 (params as float32
	// deltas against the round's global vector when one exists).
	CodecFloat32
	// CodecInt8 quantizes logits and prototypes to int8 with a per-row
	// lo/scale header; params travel as float32 deltas like CodecFloat32.
	CodecInt8

	numCodecs
)

// Valid reports whether c names a known codec.
func (c Codec) Valid() bool { return c < numCodecs }

// String returns the codec's flag-facing name.
func (c Codec) String() string {
	switch c {
	case CodecFloat64:
		return "float64raw"
	case CodecFloat32:
		return "float32"
	case CodecInt8:
		return "int8"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec parses a codec name as accepted by the -codec CLI flag.
func ParseCodec(s string) (Codec, error) {
	for c := Codec(0); c < numCodecs; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("comm: unknown codec %q (have float64raw, float32, int8)", s)
}

// Section names the encoding of one payload value section.
type Section uint8

// Section encodings. SectionF64 is not byte-packed: raw float64 slices ride
// the enclosing message encoding, as in the seed wire format.
const (
	SectionF64 Section = iota
	SectionF32
	SectionI8
	SectionDeltaF32

	numSections
)

// Valid reports whether s names a known section encoding.
func (s Section) Valid() bool { return s < numSections }

// Packed reports whether s is a byte-packed section (everything but raw
// float64).
func (s Section) Packed() bool { return s.Valid() && s != SectionF64 }

// LogitsSection returns the codec's encoding for logit blocks.
func (c Codec) LogitsSection() Section {
	switch c {
	case CodecFloat32:
		return SectionF32
	case CodecInt8:
		return SectionI8
	default:
		return SectionF64
	}
}

// ProtoSection returns the codec's encoding for prototype blocks.
// Prototypes quantize like logits: per-class rows with their own range.
func (c Codec) ProtoSection() Section { return c.LogitsSection() }

// ParamsSection returns the codec's encoding for model-parameter blocks.
// hasRef says whether a reference vector (the round's global params, known
// to both ends) is available for delta encoding. DeltaF32 and F32 are the
// same size, so pricing does not depend on hasRef.
func (c Codec) ParamsSection(hasRef bool) Section {
	if c == CodecFloat64 {
		return SectionF64
	}
	if hasRef {
		return SectionDeltaF32
	}
	return SectionF32
}

// sectionHeaderBytes is the packed-section framing: 1-byte tag + 4-byte
// CRC32 of the body.
const sectionHeaderBytes = 1 + 4

// SectionWireBytes returns the wire cost of a rows x cols value block under
// section encoding s. For packed sections this is exactly the encoded byte
// length; for SectionF64 it is the analytic raw pricing (BytesPerValue per
// scalar) the ledger has always charged.
func SectionWireBytes(s Section, rows, cols int) int {
	n := rows * cols
	if n == 0 {
		return 0
	}
	switch s {
	case SectionF32, SectionDeltaF32:
		return sectionHeaderBytes + 4*n
	case SectionI8:
		return sectionHeaderBytes + rows*(8+cols)
	default:
		return n * BytesPerValue
	}
}

// Named decode errors, so corruption injected below the message codec surfaces
// as a typed rejection rather than a panic or silent value damage.
var (
	// ErrSectionTag marks an unknown or out-of-place section tag byte.
	ErrSectionTag = errors.New("comm: bad section tag")
	// ErrSectionSize marks a packed section whose length does not match its
	// declared shape.
	ErrSectionSize = errors.New("comm: section size mismatch")
	// ErrSectionChecksum marks a packed section whose body fails its CRC.
	ErrSectionChecksum = errors.New("comm: section checksum mismatch")
	// ErrSectionRef marks a delta section decoded without its reference
	// vector (or with one of the wrong length).
	ErrSectionRef = errors.New("comm: delta section without matching reference")
	// ErrSectionValue marks non-finite values that cannot be quantized.
	ErrSectionValue = errors.New("comm: non-finite value in quantized section")
)

// EncodeSection packs a rows x cols value block under s. ref is the delta
// reference (required for SectionDeltaF32, ignored otherwise). SectionF64
// is not byte-packed and is rejected here. len(vals) must be rows*cols.
func EncodeSection(s Section, vals []float64, rows, cols int, ref []float64) ([]byte, error) {
	if !s.Packed() {
		return nil, fmt.Errorf("%w: cannot pack section %d", ErrSectionTag, s)
	}
	if len(vals) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrSectionSize, len(vals), rows, cols)
	}
	out := make([]byte, SectionWireBytes(s, rows, cols))
	out[0] = byte(s)
	body := out[sectionHeaderBytes:]
	switch s {
	case SectionF32:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(float32(v)))
		}
	case SectionDeltaF32:
		if len(ref) != len(vals) {
			return nil, fmt.Errorf("%w: %d refs for %d values", ErrSectionRef, len(ref), len(vals))
		}
		for i, v := range vals {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(float32(v-ref[i])))
		}
	case SectionI8:
		for r := 0; r < rows; r++ {
			row := vals[r*cols : (r+1)*cols]
			dst := body[r*(8+cols):]
			lo32, scale32, err := rowRange(row)
			if err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(lo32))
			binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(scale32))
			q := dst[8 : 8+cols]
			if scale32 == 0 {
				for j := range q {
					q[j] = 0
				}
				continue
			}
			lo, scale := float64(lo32), float64(scale32)
			for j, v := range row {
				t := math.Round((v - lo) / scale)
				if t < 0 {
					t = 0
				} else if t > 255 {
					t = 255
				}
				q[j] = byte(t)
			}
		}
	}
	binary.LittleEndian.PutUint32(out[1:], crc32.ChecksumIEEE(body))
	return out, nil
}

// rowRange computes the float32 lo/scale header of one int8 row.
func rowRange(row []float64) (lo32, scale32 float32, err error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("%w: %v", ErrSectionValue, v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if len(row) == 0 {
		return 0, 0, nil
	}
	return float32(lo), float32((hi - lo) / 255), nil
}

// CheckSection validates a packed section against its declared shape
// without allocating the decoded values: tag, exact length, body CRC, and
// finite quantization headers. It returns the section tag so callers can
// verify it is the one their codec slot allows.
func CheckSection(data []byte, rows, cols int) (Section, error) {
	if len(data) < sectionHeaderBytes {
		return 0, fmt.Errorf("%w: %d-byte section", ErrSectionSize, len(data))
	}
	s := Section(data[0])
	if !s.Packed() {
		return 0, fmt.Errorf("%w: tag %d", ErrSectionTag, data[0])
	}
	if rows < 0 || cols < 0 || len(data) != SectionWireBytes(s, rows, cols) {
		return 0, fmt.Errorf("%w: %d bytes for %dx%d section %d", ErrSectionSize, len(data), rows, cols, s)
	}
	body := data[sectionHeaderBytes:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[1:]) {
		return 0, ErrSectionChecksum
	}
	if s == SectionI8 {
		for r := 0; r < rows; r++ {
			hdr := body[r*(8+cols):]
			lo := math.Float32frombits(binary.LittleEndian.Uint32(hdr[0:]))
			scale := math.Float32frombits(binary.LittleEndian.Uint32(hdr[4:]))
			if isBad32(lo) || isBad32(scale) || scale < 0 {
				return 0, fmt.Errorf("%w: row %d lo=%v scale=%v", ErrSectionValue, r, lo, scale)
			}
		}
	}
	return s, nil
}

func isBad32(v float32) bool {
	f := float64(v)
	return math.IsNaN(f) || math.IsInf(f, 0)
}

// DecodeSection unpacks a section encoded by EncodeSection, running every
// CheckSection validation first. ref is the delta reference, required (with
// matching length) when the section tag is SectionDeltaF32.
func DecodeSection(data []byte, rows, cols int, ref []float64) ([]float64, Section, error) {
	s, err := CheckSection(data, rows, cols)
	if err != nil {
		return nil, 0, err
	}
	vals := make([]float64, rows*cols)
	if err := unpackSection(vals, s, data, rows, cols, ref); err != nil {
		return nil, 0, err
	}
	return vals, s, nil
}

// DecodeSectionInto is DecodeSection into vals, which must hold rows·cols
// values and must not alias ref. On error vals is unspecified.
func DecodeSectionInto(vals []float64, data []byte, rows, cols int, ref []float64) (Section, error) {
	s, err := CheckSection(data, rows, cols)
	if err != nil {
		return 0, err
	}
	if len(vals) != rows*cols {
		return 0, fmt.Errorf("comm: %d values to decode a %dx%d section into", len(vals), rows, cols)
	}
	return s, unpackSection(vals, s, data, rows, cols, ref)
}

// unpackSection writes the values of data, a section CheckSection accepted
// as s, into vals.
func unpackSection(vals []float64, s Section, data []byte, rows, cols int, ref []float64) error {
	n := rows * cols
	body := data[sectionHeaderBytes:]
	switch s {
	case SectionF32:
		for i := range vals {
			vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
		}
	case SectionDeltaF32:
		if len(ref) != n {
			return fmt.Errorf("%w: %d refs for %d values", ErrSectionRef, len(ref), n)
		}
		for i := range vals {
			vals[i] = ref[i] + float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
		}
	case SectionI8:
		for r := 0; r < rows; r++ {
			src := body[r*(8+cols):]
			lo := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[0:])))
			scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4:])))
			row := vals[r*cols : (r+1)*cols]
			for j := range row {
				row[j] = lo + float64(src[8+j])*scale
			}
		}
	}
	return nil
}

// ApplySection overwrites vals with their wire round-trip under s — exactly
// decode(encode(vals)), the value fidelity a receiver observes — so the
// in-process engine and a distributed run see bit-identical payloads.
// SectionF64 is exact and a no-op.
func ApplySection(s Section, vals []float64, rows, cols int, ref []float64) error {
	if s == SectionF64 || len(vals) == 0 {
		return nil
	}
	enc, err := EncodeSection(s, vals, rows, cols, ref)
	if err != nil {
		return err
	}
	dec, _, err := DecodeSection(enc, rows, cols, ref)
	if err != nil {
		return err
	}
	copy(vals, dec)
	return nil
}
