package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fedpkd/internal/comm"
)

var wireCodecs = []comm.Codec{comm.CodecFloat64, comm.CodecFloat32, comm.CodecInt8}

// namedDecodeErrors are the only errors Decode may return for a pointer to a
// message type.
var namedDecodeErrors = []error{ErrChecksum, ErrTruncated, ErrMessageTag, ErrFormatVersion, ErrMalformed}

func isNamedDecodeError(err error) bool {
	for _, named := range namedDecodeErrors {
		if errors.Is(err, named) {
			return true
		}
	}
	return false
}

// codecMessages returns one populated message of each of the seven types,
// its knowledge encoded under c: every field non-zero, every vector and
// section the codec fills non-empty.
func codecMessages(t testing.TB, c comm.Codec) []any {
	t.Helper()
	ref := []float64{0.5009765625, -0.25}
	w, err := PayloadToWireIn(testPayload(), c, ref)
	if err != nil {
		t.Fatalf("PayloadToWireIn(%v): %v", c, err)
	}
	w.ParamsCounted = 7
	global, err := PayloadToWireIn(testPayload(), c, nil)
	if err != nil {
		t.Fatalf("PayloadToWireIn(%v, global): %v", c, err)
	}
	rs := RoundStart{Round: 3, HasGlobal: true, Global: global, Codec: uint8(c)}
	start, err := Encode(rs)
	if err != nil {
		t.Fatal(err)
	}
	re := RoundEnd{Round: 3, Err: "aggregate: no survivors", HasBroadcast: true, Broadcast: global, Codec: uint8(c)}
	end, err := Encode(re)
	if err != nil {
		t.Fatal(err)
	}
	return []any{
		rs,
		RoundUpload{Round: 3, Client: 9, Err: "local update: diverged", HasPayload: true, Payload: w},
		re,
		ShardAssign{
			Round: 3, Shard: 1,
			Start: start, HasGlobal: true, StartRaw: 4096, Ref: ref,
			Clients: []ClientStart{
				{Client: 4},
				{Client: 6, Start: start, HasGlobal: true, StartRaw: 512, Ref: []float64{1, 2, 3}},
			},
		},
		ShardDigest{
			Round: 3, Shard: 1,
			// A digest forwards each upload as its client sent it: under c,
			// with its params delta-coded against the client's reference.
			Uploads: []ShardUpload{{Client: 4, Payload: w}, {Client: 6, Payload: w}},
			Heard:   2, Missing: []int{5, 7}, Err: "shard quorum",
		},
		ShardEnd{Round: 3, Shard: 1, End: end, HasBroadcast: true, EndRaw: 2048},
		w,
	}
}

// decodeLike decodes b into a fresh value of msg's type and returns it.
func decodeLike(msg any, b []byte) (any, error) {
	p := reflect.New(reflect.TypeOf(msg))
	if err := Decode(b, p.Interface()); err != nil {
		return nil, err
	}
	return p.Elem().Interface(), nil
}

// checkCodecRoundTrip pins the three codec properties on one message: the
// computed size is the encoded size, decode inverts encode (want is msg with
// empty vectors as nil), and the encoding is canonical.
func checkCodecRoundTrip(t *testing.T, msg, want any) {
	t.Helper()
	enc, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode(%T): %v", msg, err)
	}
	size, err := EncodedSize(msg)
	if err != nil {
		t.Fatalf("EncodedSize(%T): %v", msg, err)
	}
	if size != len(enc) || cap(enc) != len(enc) {
		t.Fatalf("%T: EncodedSize %d, encoded %d bytes in a %d-byte buffer", msg, size, len(enc), cap(enc))
	}
	got, err := decodeLike(want, enc)
	if err != nil {
		t.Fatalf("Decode(%T): %v", msg, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, got, want)
	}
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("%T re-encodes to different bytes", msg)
	}
	// Pointer and value arguments are one encoding.
	p := reflect.New(reflect.TypeOf(msg))
	p.Elem().Set(reflect.ValueOf(msg))
	viaPtr, err := Encode(p.Interface())
	if err != nil || !bytes.Equal(viaPtr, enc) {
		t.Fatalf("Encode(*%T) differs from Encode(%T) (err %v)", msg, msg, err)
	}
	if n, err := EncodedSize(p.Interface()); err != nil || n != size {
		t.Fatalf("EncodedSize(*%T) = %d, %v; want %d", msg, n, err, size)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	for _, c := range wireCodecs {
		for _, msg := range codecMessages(t, c) {
			t.Run(fmt.Sprintf("%s/%T", c, msg), func(t *testing.T) { checkCodecRoundTrip(t, msg, msg) })
		}
	}
	// Zero messages: nil everywhere.
	for _, msg := range []any{RoundStart{}, RoundUpload{}, RoundEnd{}, ShardAssign{}, ShardDigest{}, ShardEnd{}, WirePayload{}} {
		t.Run(fmt.Sprintf("zero/%T", msg), func(t *testing.T) { checkCodecRoundTrip(t, msg, msg) })
	}
	// Empty but non-nil vectors and sections encode as nil ones and come back
	// nil: there is one encoding of "no elements".
	emptyW := WirePayload{
		Logits: []float64{}, Indices: []int32{}, ProtoClasses: []int32{}, ProtoCounts: []int32{},
		ProtoValues: []float64{}, Params: []float64{}, LogitsEnc: []byte{}, ProtosEnc: []byte{}, ParamsEnc: []byte{},
	}
	empties := []struct{ in, want any }{
		{emptyW, WirePayload{}},
		{RoundStart{Global: emptyW}, RoundStart{}},
		{RoundUpload{Payload: emptyW}, RoundUpload{}},
		{RoundEnd{Broadcast: emptyW}, RoundEnd{}},
		{ShardAssign{Start: []byte{}, Ref: []float64{}, Clients: []ClientStart{}}, ShardAssign{}},
		{ShardAssign{Clients: []ClientStart{{Start: []byte{}, Ref: []float64{}}}}, ShardAssign{Clients: []ClientStart{{}}}},
		{ShardDigest{Uploads: []ShardUpload{}, Missing: []int{}}, ShardDigest{}},
		{ShardEnd{End: []byte{}}, ShardEnd{}},
	}
	for _, e := range empties {
		t.Run(fmt.Sprintf("empty/%T", e.in), func(t *testing.T) { checkCodecRoundTrip(t, e.in, e.want) })
	}
	// Extremes: the codec carries every int a field can hold — the largest
	// dimension Validate admits, and the values on either side of it that
	// Validate exists to reject — and every float64 bit pattern.
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	extremeW := WirePayload{
		HasLogits: true, LogitsLocal: true, HasProtos: true,
		Rows: maxWireDim, Cols: math.MaxInt64, ProtoNumClasses: math.MinInt64, ProtoDim: -1,
		Logits: floats, ProtoValues: floats, Params: floats,
		Indices: []int32{0, math.MaxInt32, math.MinInt32}, ProtoClasses: []int32{math.MaxInt32}, ProtoCounts: []int32{math.MinInt32},
		ParamsCounted: maxWireDim + 1, NumSamples: math.MaxInt64, Codec: 255, ParamsN: math.MinInt64,
	}
	extremes := []any{
		extremeW,
		RoundStart{Round: math.MaxInt64, HasGlobal: true, Global: extremeW, Codec: 255},
		RoundUpload{Round: math.MinInt64, Client: math.MaxInt64, HasPayload: true, Payload: extremeW},
		RoundEnd{Round: -1, Broadcast: extremeW, Codec: 255},
		ShardAssign{Round: math.MaxInt64, Shard: math.MinInt64, StartRaw: math.MaxInt64, Clients: []ClientStart{{Client: math.MinInt64, StartRaw: math.MaxInt64}}},
		ShardDigest{Round: math.MinInt64, Uploads: []ShardUpload{{Client: math.MaxInt64, Payload: extremeW}}, Heard: math.MaxInt64, Missing: []int{math.MinInt64, math.MaxInt64}},
		ShardEnd{Round: math.MaxInt64, Shard: math.MaxInt64, EndRaw: math.MinInt64, End: []byte{0}},
	}
	for _, msg := range extremes {
		t.Run(fmt.Sprintf("extreme/%T", msg), func(t *testing.T) {
			enc, err := Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := EncodedSize(msg); n != len(enc) {
				t.Fatalf("EncodedSize %d, encoded %d", n, len(enc))
			}
			got, err := decodeLike(msg, enc)
			if err != nil {
				t.Fatal(err)
			}
			// NaN != NaN under DeepEqual; the canonical re-encode compares
			// the float bits instead.
			again, err := Encode(got)
			if err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%T extremes do not survive the round trip (err %v)", msg, err)
			}
		})
	}
}

// TestFloatVectorWidths pins the float vector encoding: the width is the
// smallest that drops only zero bytes from every element, it never changes a
// bit, and it is what lets a digest of dequantized values cost 5-6 bytes a
// value instead of 8.
func TestFloatVectorWidths(t *testing.T) {
	cases := []struct {
		vals  []float64
		width int
	}{
		{[]float64{0, 0, 0}, 1},
		{[]float64{math.Copysign(0, -1)}, 1},
		{[]float64{1, -2, 0.5}, 2},
		{[]float64{float64(float32(0.1)), float64(float32(-3.7))}, 5},
		{[]float64{1, math.Float64frombits(0x3ff0000000010000)}, 6},
		{[]float64{0.1}, 8},
		{[]float64{1, 2, math.Pi, 4, 5}, 8},
		{[]float64{math.Inf(-1), math.Inf(1)}, 2},
		{[]float64{math.NaN()}, 8},
	}
	for w := 1; w <= 8; w++ {
		cases = append(cases, struct {
			vals  []float64
			width int
		}{[]float64{0, math.Float64frombits(0x01 << (8 * (8 - w)))}, w})
	}
	// Full-width vectors of every length up to two four-word steps and a
	// tail, odd bit patterns included: the 8-byte path moves four words a step.
	odd := []float64{math.Float64frombits(0x7ff8_dead_beef_0001), math.Copysign(0, -1), 5e-324, -math.MaxFloat64}
	for n := 1; n <= 9; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = odd[i%len(odd)] + float64(i)*0.1
		}
		vals[0] = 0.1
		cases = append(cases, struct {
			vals  []float64
			width int
		}{vals, 8})
	}
	for _, tc := range cases {
		if got := floatWidth(tc.vals); got != tc.width {
			t.Errorf("floatWidth(%v) = %d, want %d", tc.vals, got, tc.width)
		}
		enc := putFloats(make([]byte, 0, floatsLen(tc.vals)), tc.vals)
		if len(enc) != 2+tc.width*len(tc.vals) || len(enc) != floatsLen(tc.vals) {
			t.Errorf("%v encoded in %d bytes (floatsLen %d), want %d", tc.vals, len(enc), floatsLen(tc.vals), 2+tc.width*len(tc.vals))
		}
		r := reader{b: enc}
		got := r.floats()
		if err := r.close(); err != nil {
			t.Errorf("%v: %v", tc.vals, err)
			continue
		}
		for i := range tc.vals {
			if math.Float64bits(got[i]) != math.Float64bits(tc.vals[i]) {
				t.Errorf("%v: element %d came back %x", tc.vals, i, math.Float64bits(got[i]))
			}
		}
	}
	// What a leaf forwards: an int8 section's dequantized values.
	w, err := PayloadToWireIn(testPayload(), comm.CodecInt8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.ToPayload()
	if err != nil {
		t.Fatal(err)
	}
	if got := floatWidth(p.Logits.Data); got > 6 {
		t.Errorf("dequantized int8 logits need %d bytes a value, want <= 6", got)
	}
}

// TestEverySingleByteFlipRejected is the corruption contract: whatever single
// byte of an encoded message changes, under whichever codec, Decode fails
// with a named error — float bytes included, where a flipped byte is
// otherwise just another float.
func TestEverySingleByteFlipRejected(t *testing.T) {
	for _, c := range wireCodecs {
		for _, msg := range codecMessages(t, c) {
			enc, err := Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range enc {
				for _, mask := range []byte{0x01, 0x10, 0x80, 0xff} {
					bad := append([]byte(nil), enc...)
					bad[i] ^= mask
					_, err := decodeLike(msg, bad)
					if err == nil {
						t.Fatalf("%s %T: byte %d of %d ^ %#02x decoded cleanly", c, msg, i, len(enc), mask)
					}
					if !isNamedDecodeError(err) {
						t.Fatalf("%s %T: byte %d ^ %#02x failed with an unnamed error: %v", c, msg, i, mask, err)
					}
				}
			}
			// Cut anywhere, it is rejected too.
			for n := 0; n < len(enc); n++ {
				if _, err := decodeLike(msg, enc[:n]); !isNamedDecodeError(err) {
					t.Fatalf("%s %T: truncation to %d of %d bytes = %v", c, msg, n, len(enc), err)
				}
			}
		}
	}
}

// framed wraps a hand-built body in a valid frame, so a test reaches the
// checks behind the checksum.
func framed(tag byte, body []byte) []byte {
	return seal(append([]byte{formatVersion, tag}, body...))
}

func TestDecodeNamedErrors(t *testing.T) {
	good, err := Encode(RoundEnd{Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := good[2 : len(good)-4]
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	reserved := append([]byte(nil), body...)
	reserved[2] |= 0x02 // RoundEnd has one flag; bit 1 is reserved
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"shorter than a frame", good[:5], ErrTruncated},
		{"future format version", flip(0), ErrFormatVersion},
		{"corrupt tag", flip(1), ErrChecksum},
		{"corrupt body", flip(3), ErrChecksum},
		{"corrupt trailer", flip(len(good) - 1), ErrChecksum},
		{"cut tail", good[:len(good)-1], ErrChecksum},
		{"tag outside the seven", framed(tagWirePayload+1, body), ErrMessageTag},
		{"tag zero", framed(0, body), ErrMessageTag},
		{"another message's tag", framed(tagRoundStart, body), ErrMessageTag},
		{"trailing bytes", framed(tagRoundEnd, append(append([]byte(nil), body...), 0)), ErrMalformed},
		{"overlong varint", framed(tagRoundEnd, append([]byte{0x82, 0x00}, body[1:]...)), ErrMalformed},
		{"overflowing varint", framed(tagRoundEnd, append(bytes.Repeat([]byte{0xff}, 10), body[1:]...)), ErrMalformed},
		{"reserved flag bit", framed(tagRoundEnd, reserved), ErrMalformed},
		{"body ends inside a field", framed(tagRoundEnd, body[:len(body)-1]), ErrTruncated},
		{"body ends inside a varint", framed(tagRoundEnd, []byte{0x80}), ErrTruncated},
	}
	for _, tc := range cases {
		var re RoundEnd
		if err := Decode(tc.data, &re); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A float vector's width byte is 1..8 and the smallest that fits: one
	// value, one encoding.
	one := math.Float64bits(1) // 0x3ff0000000000000: two significant bytes
	for name, logits := range map[string][]byte{
		"float width 0":          {1, 0},
		"float width 9":          {1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"float width wider than": {1, 3, 0, byte(one >> 48), byte(one >> 56)},
	} {
		var w WirePayload
		body := append([]byte{0, 0, 0, 0}, logits...)
		if err := Decode(framed(tagWirePayload, body), &w); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode = %v, want ErrMalformed", name, err)
		}
	}
	// An int32 element wider than int32 is an overflow, not a wraparound.
	wide := framed(tagWirePayload, append([]byte{0, 0, 0, 0, 0, 1}, binary.AppendUvarint(nil, zigzag(math.MaxInt32+1))...))
	var w WirePayload
	if err := Decode(wide, &w); !errors.Is(err, ErrMalformed) {
		t.Errorf("int32 overflow: Decode = %v, want ErrMalformed", err)
	}
}

// TestUnknownMessage pins the codec's domain: the seven message types and
// nothing else.
func TestUnknownMessage(t *testing.T) {
	good, err := Encode(RoundEnd{})
	if err != nil {
		t.Fatal(err)
	}
	var nilStart *RoundStart
	for _, v := range []any{nil, 7, "round", []float64{1}, struct{ Round int }{1}, Envelope{}, ClientStart{}, &ShardUpload{}, nilStart} {
		if _, err := Encode(v); !errors.Is(err, ErrUnknownMessage) {
			t.Errorf("Encode(%T) = %v, want ErrUnknownMessage", v, err)
		}
		if _, err := EncodedSize(v); !errors.Is(err, ErrUnknownMessage) {
			t.Errorf("EncodedSize(%T) = %v, want ErrUnknownMessage", v, err)
		}
		if err := Decode(good, v); !errors.Is(err, ErrUnknownMessage) {
			t.Errorf("Decode(%T) = %v, want ErrUnknownMessage", v, err)
		}
	}
	// Decode needs somewhere to write: a message by value is not a target.
	if err := Decode(good, RoundEnd{}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("Decode into a value = %v, want ErrUnknownMessage", err)
	}
}

// TestDecodeReplacesTarget: a decoded message is the message on the wire,
// not a merge of it into what the target held.
func TestDecodeReplacesTarget(t *testing.T) {
	enc, err := Encode(RoundUpload{Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	ru := RoundUpload{Client: 9, Err: "stale", HasPayload: true, Payload: WirePayload{Params: []float64{1}}}
	if err := Decode(enc, &ru); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ru, RoundUpload{Round: 1}) {
		t.Errorf("Decode merged into its target: %+v", ru)
	}
}

// heapOf walks a message and returns its non-empty vectors, sections and
// strings — the allocations a decode of it is allowed — and the bytes they
// hold at their element sizes.
func heapOf(v reflect.Value) (parts, bytes int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p, b := heapOf(v.Field(i))
			parts, bytes = parts+p, bytes+b
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return 0, 0
		}
		parts, bytes = 1, v.Len()*int(v.Type().Elem().Size())
		if v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				p, b := heapOf(v.Index(i))
				parts, bytes = parts+p, bytes+b
			}
		}
	case reflect.String:
		if v.Len() > 0 {
			return 1, v.Len()
		}
	}
	return parts, bytes
}

// TestCodecAllocs gates the copy discipline: Encode allocates the output
// buffer and nothing else; Decode allocates each vector, section and string
// once and nothing else, except the Params and Ref vectors, which it takes
// from the vector list — so a decode whose holder releases them (as every
// receiver does) allocates none of them in steady state.
func TestCodecAllocs(t *testing.T) {
	params := make([]float64, 4096)
	ru := RoundUpload{Round: 2, Client: 1, HasPayload: true, Payload: WirePayload{Params: params, NumSamples: 10}}
	var sink []byte
	for _, v := range []any{ru, &ru} {
		if n := testing.AllocsPerRun(50, func() { sink, _ = Encode(v) }); n != 1 {
			t.Errorf("Encode(%T) made %v allocations, want 1", v, n)
		}
		if n := testing.AllocsPerRun(50, func() { _, _ = EncodedSize(v) }); n != 0 {
			t.Errorf("EncodedSize(%T) made %v allocations, want 0", v, n)
		}
	}
	var out RoundUpload
	decodeRelease := func() {
		_ = Decode(sink, &out)
		ReleaseVector(out.Payload.Params)
	}
	if n := testing.AllocsPerRun(50, decodeRelease); n != 0 {
		t.Errorf("Decode(RoundUpload with params only) then release made %v allocations, want 0", n)
	}
	for _, c := range wireCodecs {
		for _, msg := range codecMessages(t, c) {
			enc, err := Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			target := reflect.New(reflect.TypeOf(msg)).Interface()
			parts, _ := heapOf(reflect.ValueOf(msg))
			vectors := 0
			listVectors(reflect.ValueOf(msg), func([]float64) { vectors++ })
			limit := float64(parts - vectors)
			decodeRelease := func() {
				_ = Decode(enc, target)
				releaseDecoded(target)
			}
			if n := testing.AllocsPerRun(20, decodeRelease); n > limit {
				t.Errorf("%s: Decode(%T) then release made %v allocations for %v vectors and sections off the list", c, msg, n, limit)
			}
			if n := testing.AllocsPerRun(20, func() { sink, _ = Encode(target) }); n != 1 {
				t.Errorf("%s: Encode(%T) made %v allocations, want 1", c, target, n)
			}
		}
	}
}

// releaseDecoded returns every list vector of a decoded message, as its
// receiver would (listVectors is the same walk, by reflection, but boxing a
// slice allocates).
func releaseDecoded(v any) {
	switch m := v.(type) {
	case *RoundStart:
		ReleaseVector(m.Global.Params)
	case *RoundUpload:
		ReleaseVector(m.Payload.Params)
	case *RoundEnd:
		ReleaseVector(m.Broadcast.Params)
	case *ShardAssign:
		ReleaseVector(m.Ref)
		for i := range m.Clients {
			ReleaseVector(m.Clients[i].Ref)
		}
	case *ShardDigest:
		for i := range m.Uploads {
			ReleaseVector(m.Uploads[i].Payload.Params)
		}
	case *WirePayload:
		ReleaseVector(m.Params)
	}
}

// listVectors calls visit on every non-empty Params and Ref vector of a
// message: the vectors Decode takes from the vector list.
func listVectors(v reflect.Value, visit func([]float64)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if (f.Name == "Params" || f.Name == "Ref") && v.Field(i).Len() > 0 {
				visit(v.Field(i).Interface().([]float64))
				continue
			}
			listVectors(v.Field(i), visit)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				listVectors(v.Index(i), visit)
			}
		}
	}
}

// TestDecodeChecksLengthsBeforeAllocating feeds Decode correctly framed
// bodies whose counts promise far more than the message holds. Each must
// fail as truncated on that count, without the count ever sizing an
// allocation. The bodies are written with the codec's own field writers, so
// the fields ahead of each count move with the layout.
func TestDecodeChecksLengthsBeforeAllocating(t *testing.T) {
	const hugeCount = 1 << 40
	huge := binary.AppendUvarint(nil, hugeCount)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	zero := putInt(nil, 0)
	// A WirePayload up to its Logits count: flags, codec, rows, cols.
	payloadPrefix := join(putFlags(nil, false, false, false), []byte{0}, zero, zero)
	// A ShardAssign or ShardEnd up to its raw size: round, shard, flags, raw.
	framingPrefix := join(zero, zero, putFlags(nil, false), zero)
	cases := []struct {
		name   string
		tag    byte
		body   []byte
		count  int // the count that must fail
		target any
	}{
		{"float vector", tagWirePayload, join(payloadPrefix, huge), hugeCount, &WirePayload{}},
		{"int32 vector", tagWirePayload, join(payloadPrefix, putFloats(nil, nil), huge), hugeCount, &WirePayload{}},
		{"string", tagRoundEnd, join(zero, huge), hugeCount, &RoundEnd{}},
		{"byte section", tagShardEnd, join(framingPrefix, huge), hugeCount, &ShardEnd{}},
		{"nested clients", tagShardAssign, join(framingPrefix, putBytes(nil, nil), putFloats(nil, nil), huge), hugeCount, &ShardAssign{}},
		{"nested uploads", tagShardDigest, join(zero, zero, huge), hugeCount, &ShardDigest{}},
		// A count the remaining bytes could hold as single bytes but not as
		// 8-byte words or whole nested structs.
		{"float vector, plausible count", tagWirePayload, join(payloadPrefix, binary.AppendUvarint(nil, 100), []byte{8}, make([]byte, 99)), 100, &WirePayload{}},
		{"nested uploads, plausible count", tagShardDigest, join(zero, zero, binary.AppendUvarint(nil, 100), make([]byte, 100)), 100, &ShardDigest{}},
	}
	for _, tc := range cases {
		data := framed(tc.tag, tc.body)
		_ = Decode(data, tc.target) // first-use allocations (error formatting) are not the decoder's
		err := Decode(data, tc.target)
		if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), fmt.Sprintf("%v: %d ", ErrTruncated, tc.count)) {
			t.Errorf("%s: Decode = %v, want ErrTruncated on the count %d", tc.name, err, tc.count)
		}
		if grew := decodeAllocBytes(data, tc.target); grew > 4096 {
			t.Errorf("%s: rejected decode of %d bytes allocated %d bytes", tc.name, len(data), grew)
		}
	}
}

// decodeAllocBytes is how many bytes one Decode(data, target) allocates. The
// runtime counts every goroutine's allocations into TotalAlloc, so a single
// measurement also bills whatever else ran meanwhile (another test's
// goroutines, the race detector's); the smallest growth over several
// repeats is the decoder's own.
func decodeAllocBytes(data []byte, target any) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = Decode(data, target)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
