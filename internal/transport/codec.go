package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"reflect"
)

// The message codec: one hand-written binary format for the seven round
// messages (RoundStart, RoundUpload, RoundEnd, ShardAssign, ShardDigest,
// ShardEnd, and a bare WirePayload) and the structs nested in them. Every
// message is
//
//	[1B format version][1B message tag][body][4B CRC-32C, little-endian]
//
// with the CRC covering every byte before it. Inside the body, in the field
// order the put/get pairs below spell out:
//
//   - bools of one struct share one flags byte (unused bits must be zero);
//   - a codec id is one byte;
//   - every int is a zig-zag uvarint, every count a plain uvarint, both in
//     their shortest form;
//   - strings and byte sections are a count followed by the bytes;
//   - int32/int vectors are a count followed by zig-zag uvarints;
//   - a float64 is 8 little-endian bytes; a float64 vector is a count, then
//     (unless the count is zero) a width byte w in 1..8 and that many w-byte
//     little-endian words, each the high w bytes of an IEEE word. w is the
//     smallest width that drops only zero bytes from every element: 8 for
//     anything with a full mantissa, 5 or 6 for the values a float32 or int8
//     section dequantizes to — which is what a leaf forwards in its digest.
//
// Each value has exactly one encoding, so Encode(Decode(b)) == b for every b
// Decode accepts, and the encoded size is a sum over the fields: EncodedSize
// needs no encode, and Encode allocates its one buffer at the final size.
// A zero-length vector decodes as nil.

// formatVersion opens every message. A format change bumps it; there is no
// negotiation — both ends of a run are the same build.
const formatVersion = 1

// Message tags, the second byte of every message.
const (
	tagRoundStart byte = iota + 1
	tagRoundUpload
	tagRoundEnd
	tagShardAssign
	tagShardDigest
	tagShardEnd
	tagWirePayload
)

// frameOverhead is the bytes around a body: version, tag, CRC trailer.
const frameOverhead = 2 + crc32.Size

// Named codec errors, alongside the comm section errors a packed section
// fails Validate with.
var (
	// ErrChecksum marks a message whose CRC-32C trailer does not match its
	// bytes: it was corrupted or cut in transit.
	ErrChecksum = errors.New("transport: message checksum mismatch")
	// ErrTruncated marks a message too short to hold its frame, or a length
	// prefix that promises more bytes than remain.
	ErrTruncated = errors.New("transport: truncated message")
	// ErrMessageTag marks a tag that is not one of the seven, or not the
	// message type Decode was asked for.
	ErrMessageTag = errors.New("transport: bad message tag")
	// ErrFormatVersion marks a first byte other than the format version.
	ErrFormatVersion = errors.New("transport: unknown format version")
	// ErrMalformed marks a body that passed its checksum but is not in the
	// one canonical form: an overlong or overflowing varint, a set reserved
	// flag bit, bytes left over after the last field.
	ErrMalformed = errors.New("transport: malformed message")
	// ErrUnknownMessage marks an Encode, EncodedSize or Decode argument that
	// is not one of the seven message types (or is a nil pointer to one).
	ErrUnknownMessage = errors.New("transport: not a wire message type")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes one of the seven message types, given by value or by
// pointer, into a single freshly allocated buffer of exactly EncodedSize
// bytes. Float vectors are written straight from the message's slices, so a
// WirePayload may alias the engine payload it was built from.
//
// The three entry points switch on the concrete type and call its methods
// directly, a value argument by recursing on its address: a call through an
// interface or a type parameter would move every message to the heap.
func Encode(v any) ([]byte, error) {
	switch m := v.(type) {
	case RoundStart:
		return Encode(&m)
	case RoundUpload:
		return Encode(&m)
	case RoundEnd:
		return Encode(&m)
	case ShardAssign:
		return Encode(&m)
	case ShardDigest:
		return Encode(&m)
	case ShardEnd:
		return Encode(&m)
	case WirePayload:
		return Encode(&m)
	case *RoundStart:
		if m != nil {
			return seal(m.put(frame(tagRoundStart, m.size()))), nil
		}
	case *RoundUpload:
		if m != nil {
			return seal(m.put(frame(tagRoundUpload, m.size()))), nil
		}
	case *RoundEnd:
		if m != nil {
			return seal(m.put(frame(tagRoundEnd, m.size()))), nil
		}
	case *ShardAssign:
		if m != nil {
			return seal(m.put(frame(tagShardAssign, m.size()))), nil
		}
	case *ShardDigest:
		if m != nil {
			return seal(m.put(frame(tagShardDigest, m.size()))), nil
		}
	case *ShardEnd:
		if m != nil {
			return seal(m.put(frame(tagShardEnd, m.size()))), nil
		}
	case *WirePayload:
		if m != nil {
			return seal(m.put(frame(tagWirePayload, m.size()))), nil
		}
	}
	return nil, unknownMessage("encode", v)
}

// EncodedSize returns len(Encode(v)) without encoding anything.
func EncodedSize(v any) (int, error) {
	switch m := v.(type) {
	case RoundStart:
		return EncodedSize(&m)
	case RoundUpload:
		return EncodedSize(&m)
	case RoundEnd:
		return EncodedSize(&m)
	case ShardAssign:
		return EncodedSize(&m)
	case ShardDigest:
		return EncodedSize(&m)
	case ShardEnd:
		return EncodedSize(&m)
	case WirePayload:
		return EncodedSize(&m)
	case *RoundStart:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *RoundUpload:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *RoundEnd:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *ShardAssign:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *ShardDigest:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *ShardEnd:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	case *WirePayload:
		if m != nil {
			return frameOverhead + m.size(), nil
		}
	}
	return 0, unknownMessage("size of", v)
}

// Decode parses payload into v, a non-nil pointer to one of the seven
// message types, replacing whatever v held. It checks the version byte, the
// tag against v's type and the CRC trailer before reading the body, checks
// every count against the bytes remaining before allocating for it, and
// allocates each vector and byte section once. On error *v is unspecified.
// Decode checks framing only: a decoded message still has to pass Validate.
func Decode(payload []byte, v any) error {
	var r reader
	switch m := v.(type) {
	case *RoundStart:
		if m != nil {
			if r.open(payload, tagRoundStart) {
				*m = RoundStart{}
				m.get(&r)
			}
			return r.close()
		}
	case *RoundUpload:
		if m != nil {
			if r.open(payload, tagRoundUpload) {
				*m = RoundUpload{}
				m.get(&r)
			}
			return r.close()
		}
	case *RoundEnd:
		if m != nil {
			if r.open(payload, tagRoundEnd) {
				*m = RoundEnd{}
				m.get(&r)
			}
			return r.close()
		}
	case *ShardAssign:
		if m != nil {
			if r.open(payload, tagShardAssign) {
				*m = ShardAssign{}
				m.get(&r)
			}
			return r.close()
		}
	case *ShardDigest:
		if m != nil {
			if r.open(payload, tagShardDigest) {
				*m = ShardDigest{}
				m.get(&r)
			}
			return r.close()
		}
	case *ShardEnd:
		if m != nil {
			if r.open(payload, tagShardEnd) {
				*m = ShardEnd{}
				m.get(&r)
			}
			return r.close()
		}
	case *WirePayload:
		if m != nil {
			if r.open(payload, tagWirePayload) {
				*m = WirePayload{}
				m.get(&r)
			}
			return r.close()
		}
	}
	return unknownMessage("decode into", v)
}

// unknownMessage names v's type without holding on to v, so an argument the
// three entry points are handed stays on its caller's stack.
func unknownMessage(op string, v any) error {
	return fmt.Errorf("%w: %s %v", ErrUnknownMessage, op, reflect.TypeOf(v))
}

// frame allocates a message's one buffer and writes its two opening bytes.
func frame(tag byte, body int) []byte {
	return append(make([]byte, 0, frameOverhead+body), formatVersion, tag)
}

// seal appends the CRC-32C of everything written so far.
func seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// Field sizes. uvarintLen is the length binary.AppendUvarint writes.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func intLen(x int) int   { return uvarintLen(zigzag(int64(x))) }
func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }
func floatsLen(v []float64) int {
	if len(v) == 0 {
		return 1
	}
	return uvarintLen(uint64(len(v))) + 1 + floatWidth(v)*len(v)
}

// floatWidth returns how many high-order bytes of each IEEE word v's
// elements need: 8 minus the low-order bytes that are zero in every element,
// at least 1. The scan stops at the first element with a non-zero low byte,
// so a vector of full-mantissa values costs one look.
func floatWidth(v []float64) int {
	var acc uint64
	for _, x := range v {
		acc |= math.Float64bits(x)
		if acc&0xff != 0 {
			return 8
		}
	}
	if acc == 0 {
		return 1
	}
	return 8 - bits.TrailingZeros64(acc)/8
}
func int32sLen(v []int32) int {
	n := uvarintLen(uint64(len(v)))
	for _, x := range v {
		n += uvarintLen(zigzag(int64(x)))
	}
	return n
}
func intsLen(v []int) int {
	n := uvarintLen(uint64(len(v)))
	for _, x := range v {
		n += intLen(x)
	}
	return n
}

// Field writers. Each appends to a buffer frame sized, so none reallocates.
func putInt(b []byte, x int) []byte { return binary.AppendUvarint(b, zigzag(int64(x))) }

func putFlags(b []byte, flags ...bool) []byte {
	var f byte
	for i, set := range flags {
		if set {
			f |= 1 << i
		}
	}
	return append(b, f)
}

func putBytes(b, v []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

func putString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func putFloat(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

func putFloats(b []byte, v []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	if len(v) == 0 {
		return b
	}
	w := floatWidth(v)
	b = append(b, byte(w))
	if w == 8 {
		off := len(b)
		b = b[:off+8*len(v)]
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
		}
		return b
	}
	for _, x := range v {
		for u, i := math.Float64bits(x)>>(8*(8-w)), 0; i < w; u, i = u>>8, i+1 {
			b = append(b, byte(u))
		}
	}
	return b
}

func putInt32s(b []byte, v []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendUvarint(b, zigzag(int64(x)))
	}
	return b
}

func putInts(b []byte, v []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = putInt(b, x)
	}
	return b
}

// reader walks a message body. The first failure sticks: every later read
// returns a zero value and allocates nothing, so the get methods read their
// fields straight through and Decode checks the error once, in close.
type reader struct {
	b   []byte // the body: payload minus frame bytes
	off int
	err error
}

// open checks the frame — length, version, tag, CRC — and positions the
// reader on the body. It reports whether the body is worth reading.
func (r *reader) open(payload []byte, want byte) bool {
	switch {
	case len(payload) < frameOverhead:
		r.err = fmt.Errorf("%w: %d bytes, a frame takes %d", ErrTruncated, len(payload), frameOverhead)
	case payload[0] != formatVersion:
		r.err = fmt.Errorf("%w: %d, this build speaks %d", ErrFormatVersion, payload[0], formatVersion)
	default:
		end := len(payload) - crc32.Size
		if got, sum := binary.LittleEndian.Uint32(payload[end:]), crc32.Checksum(payload[:end], castagnoli); got != sum {
			r.err = fmt.Errorf("%w: trailer %08x, bytes sum to %08x", ErrChecksum, got, sum)
		} else if tag := payload[1]; tag < tagRoundStart || tag > tagWirePayload {
			r.err = fmt.Errorf("%w: %d", ErrMessageTag, tag)
		} else if tag != want {
			r.err = fmt.Errorf("%w: message %d decoded as message %d", ErrMessageTag, tag, want)
		} else {
			r.b = payload[2:end:end]
		}
	}
	return r.err == nil
}

// close reports the sticky error, or the bytes a well-formed body leaves
// unread.
func (r *reader) close() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%w: %d bytes after the last field", ErrMalformed, len(r.b)-r.off)
	}
	if r.err != nil {
		return fmt.Errorf("transport: decode payload: %w", r.err)
	}
	return nil
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail(fmt.Errorf("%w: varint runs off the end", ErrTruncated))
		return 0
	case n < 0 || n != uvarintLen(x):
		r.fail(fmt.Errorf("%w: overlong varint at byte %d", ErrMalformed, r.off))
		return 0
	}
	r.off += n
	return x
}

func (r *reader) int64() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) int() int {
	x := r.int64()
	if int64(int(x)) != x {
		r.fail(fmt.Errorf("%w: int %d overflows", ErrMalformed, x))
		return 0
	}
	return int(x)
}

func (r *reader) int32() int32 {
	x := r.int64()
	if int64(int32(x)) != x {
		r.fail(fmt.Errorf("%w: int32 %d overflows", ErrMalformed, x))
		return 0
	}
	return int32(x)
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(fmt.Errorf("%w: byte field runs off the end", ErrTruncated))
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// flags reads one flags byte holding n bools.
func (r *reader) flags(n int) byte {
	f := r.byte()
	if f>>n != 0 {
		r.fail(fmt.Errorf("%w: reserved flag bits %08b", ErrMalformed, f))
		return 0
	}
	return f
}

// count reads an element count and checks it against the bytes remaining,
// given the fewest bytes one element can take — before anything is sized by
// it.
func (r *reader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off)/uint64(minBytes) {
		r.fail(fmt.Errorf("%w: %d elements of %d+ bytes in %d remaining", ErrTruncated, n, minBytes, len(r.b)-r.off))
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	r.off += copy(out, r.b[r.off:])
	return out
}

func (r *reader) string() string {
	n := r.count(1)
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail(fmt.Errorf("%w: float64 runs off the end", ErrTruncated))
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))
}

func (r *reader) floats() []float64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	w := int(r.byte())
	if w < 1 || w > 8 {
		r.fail(fmt.Errorf("%w: float width %d", ErrMalformed, w))
		return nil
	}
	if n > (len(r.b)-r.off)/w {
		r.fail(fmt.Errorf("%w: %d floats of %d bytes in %d remaining", ErrTruncated, n, w, len(r.b)-r.off))
		return nil
	}
	out := make([]float64, n)
	src := r.b[r.off : r.off+w*n]
	r.off += w * n
	if w == 8 {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	} else {
		for i := range out {
			var u uint64
			for j := w - 1; j >= 0; j-- {
				u = u<<8 | uint64(src[i*w+j])
			}
			out[i] = math.Float64frombits(u << (8 * (8 - w)))
		}
	}
	if floatWidth(out) != w {
		r.fail(fmt.Errorf("%w: %d-byte floats that fit %d", ErrMalformed, w, floatWidth(out)))
		return nil
	}
	return out
}

func (r *reader) int32s() []int32 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.int32()
	}
	return out
}

func (r *reader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	return out
}

// The put/get/size triples below fix each struct's field order on the wire.

func (w *WirePayload) size() int {
	return 2 + // flags, codec
		intLen(w.Rows) + intLen(w.Cols) + floatsLen(w.Logits) +
		int32sLen(w.Indices) +
		intLen(w.ProtoNumClasses) + int32sLen(w.ProtoClasses) + int32sLen(w.ProtoCounts) +
		intLen(w.ProtoDim) + floatsLen(w.ProtoValues) +
		floatsLen(w.Params) + intLen(w.ParamsCounted) + intLen(w.NumSamples) +
		bytesLen(len(w.LogitsEnc)) + bytesLen(len(w.ProtosEnc)) + bytesLen(len(w.ParamsEnc)) + intLen(w.ParamsN)
}

func (w *WirePayload) put(b []byte) []byte {
	b = putFlags(b, w.HasLogits, w.LogitsLocal, w.HasProtos)
	b = append(b, w.Codec)
	b = putInt(b, w.Rows)
	b = putInt(b, w.Cols)
	b = putFloats(b, w.Logits)
	b = putInt32s(b, w.Indices)
	b = putInt(b, w.ProtoNumClasses)
	b = putInt32s(b, w.ProtoClasses)
	b = putInt32s(b, w.ProtoCounts)
	b = putInt(b, w.ProtoDim)
	b = putFloats(b, w.ProtoValues)
	b = putFloats(b, w.Params)
	b = putInt(b, w.ParamsCounted)
	b = putInt(b, w.NumSamples)
	b = putBytes(b, w.LogitsEnc)
	b = putBytes(b, w.ProtosEnc)
	b = putBytes(b, w.ParamsEnc)
	return putInt(b, w.ParamsN)
}

func (w *WirePayload) get(r *reader) {
	f := r.flags(3)
	w.HasLogits, w.LogitsLocal, w.HasProtos = f&1 != 0, f&2 != 0, f&4 != 0
	w.Codec = r.byte()
	w.Rows = r.int()
	w.Cols = r.int()
	w.Logits = r.floats()
	w.Indices = r.int32s()
	w.ProtoNumClasses = r.int()
	w.ProtoClasses = r.int32s()
	w.ProtoCounts = r.int32s()
	w.ProtoDim = r.int()
	w.ProtoValues = r.floats()
	w.Params = r.floats()
	w.ParamsCounted = r.int()
	w.NumSamples = r.int()
	w.LogitsEnc = r.bytes()
	w.ProtosEnc = r.bytes()
	w.ParamsEnc = r.bytes()
	w.ParamsN = r.int()
}

func (rs *RoundStart) size() int { return intLen(rs.Round) + 2 + rs.Global.size() }

func (rs *RoundStart) put(b []byte) []byte {
	b = putInt(b, rs.Round)
	b = putFlags(b, rs.HasGlobal)
	b = append(b, rs.Codec)
	return rs.Global.put(b)
}

func (rs *RoundStart) get(r *reader) {
	rs.Round = r.int()
	rs.HasGlobal = r.flags(1) != 0
	rs.Codec = r.byte()
	rs.Global.get(r)
}

func (ru *RoundUpload) size() int {
	return intLen(ru.Round) + intLen(ru.Client) + bytesLen(len(ru.Err)) + 1 + ru.Payload.size()
}

func (ru *RoundUpload) put(b []byte) []byte {
	b = putInt(b, ru.Round)
	b = putInt(b, ru.Client)
	b = putString(b, ru.Err)
	b = putFlags(b, ru.HasPayload)
	return ru.Payload.put(b)
}

func (ru *RoundUpload) get(r *reader) {
	ru.Round = r.int()
	ru.Client = r.int()
	ru.Err = r.string()
	ru.HasPayload = r.flags(1) != 0
	ru.Payload.get(r)
}

func (re *RoundEnd) size() int {
	return intLen(re.Round) + bytesLen(len(re.Err)) + 2 + re.Broadcast.size()
}

func (re *RoundEnd) put(b []byte) []byte {
	b = putInt(b, re.Round)
	b = putString(b, re.Err)
	b = putFlags(b, re.HasBroadcast)
	b = append(b, re.Codec)
	return re.Broadcast.put(b)
}

func (re *RoundEnd) get(r *reader) {
	re.Round = r.int()
	re.Err = r.string()
	re.HasBroadcast = r.flags(1) != 0
	re.Codec = r.byte()
	re.Broadcast.get(r)
}

// clientStartMin and shardUploadMin are the fewest bytes one nested entry
// encodes to — what a Clients/Uploads count is checked against before the
// slice is allocated.
var (
	clientStartMin = (&ClientStart{}).size()
	shardUploadMin = (&ShardUpload{}).size()
)

func (cs *ClientStart) size() int {
	return intLen(cs.Client) + 1 + intLen(cs.StartRaw) + bytesLen(len(cs.Start)) + floatsLen(cs.Ref)
}

func (cs *ClientStart) put(b []byte) []byte {
	b = putInt(b, cs.Client)
	b = putFlags(b, cs.HasGlobal)
	b = putInt(b, cs.StartRaw)
	b = putBytes(b, cs.Start)
	return putFloats(b, cs.Ref)
}

func (cs *ClientStart) get(r *reader) {
	cs.Client = r.int()
	cs.HasGlobal = r.flags(1) != 0
	cs.StartRaw = r.int()
	cs.Start = r.bytes()
	cs.Ref = r.floats()
}

func (sa *ShardAssign) size() int {
	n := intLen(sa.Round) + intLen(sa.Shard) + 1 + intLen(sa.StartRaw) +
		bytesLen(len(sa.Start)) + floatsLen(sa.Ref) + uvarintLen(uint64(len(sa.Clients)))
	for i := range sa.Clients {
		n += sa.Clients[i].size()
	}
	return n
}

func (sa *ShardAssign) put(b []byte) []byte {
	b = putInt(b, sa.Round)
	b = putInt(b, sa.Shard)
	b = putFlags(b, sa.Compact, sa.HasGlobal)
	b = putInt(b, sa.StartRaw)
	b = putBytes(b, sa.Start)
	b = putFloats(b, sa.Ref)
	b = binary.AppendUvarint(b, uint64(len(sa.Clients)))
	for i := range sa.Clients {
		b = sa.Clients[i].put(b)
	}
	return b
}

func (sa *ShardAssign) get(r *reader) {
	sa.Round = r.int()
	sa.Shard = r.int()
	f := r.flags(2)
	sa.Compact, sa.HasGlobal = f&1 != 0, f&2 != 0
	sa.StartRaw = r.int()
	sa.Start = r.bytes()
	sa.Ref = r.floats()
	if n := r.count(clientStartMin); n > 0 {
		sa.Clients = make([]ClientStart, n)
		for i := range sa.Clients {
			sa.Clients[i].get(r)
		}
	}
}

func (su *ShardUpload) size() int { return intLen(su.Client) + su.Payload.size() }

func (su *ShardUpload) put(b []byte) []byte { return su.Payload.put(putInt(b, su.Client)) }

func (su *ShardUpload) get(r *reader) {
	su.Client = r.int()
	su.Payload.get(r)
}

func (sd *ShardDigest) size() int {
	n := intLen(sd.Round) + intLen(sd.Shard) + 1 + uvarintLen(uint64(len(sd.Uploads))) +
		sd.Sum.size() + 8 + intLen(sd.Count) + intLen(sd.Heard) + intsLen(sd.Missing) + bytesLen(len(sd.Err))
	for i := range sd.Uploads {
		n += sd.Uploads[i].size()
	}
	return n
}

func (sd *ShardDigest) put(b []byte) []byte {
	b = putInt(b, sd.Round)
	b = putInt(b, sd.Shard)
	b = putFlags(b, sd.HasSum)
	b = binary.AppendUvarint(b, uint64(len(sd.Uploads)))
	for i := range sd.Uploads {
		b = sd.Uploads[i].put(b)
	}
	b = sd.Sum.put(b)
	b = putFloat(b, sd.Weight)
	b = putInt(b, sd.Count)
	b = putInt(b, sd.Heard)
	b = putInts(b, sd.Missing)
	return putString(b, sd.Err)
}

func (sd *ShardDigest) get(r *reader) {
	sd.Round = r.int()
	sd.Shard = r.int()
	sd.HasSum = r.flags(1) != 0
	if n := r.count(shardUploadMin); n > 0 {
		sd.Uploads = make([]ShardUpload, n)
		for i := range sd.Uploads {
			sd.Uploads[i].get(r)
		}
	}
	sd.Sum.get(r)
	sd.Weight = r.float()
	sd.Count = r.int()
	sd.Heard = r.int()
	sd.Missing = r.ints()
	sd.Err = r.string()
}

func (se *ShardEnd) size() int {
	return intLen(se.Round) + intLen(se.Shard) + 1 + intLen(se.EndRaw) + bytesLen(len(se.End))
}

func (se *ShardEnd) put(b []byte) []byte {
	b = putInt(b, se.Round)
	b = putInt(b, se.Shard)
	b = putFlags(b, se.HasBroadcast)
	b = putInt(b, se.EndRaw)
	return putBytes(b, se.End)
}

func (se *ShardEnd) get(r *reader) {
	se.Round = r.int()
	se.Shard = r.int()
	se.HasBroadcast = r.flags(1) != 0
	se.EndRaw = r.int()
	se.End = r.bytes()
}
