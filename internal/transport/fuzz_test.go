package transport

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// seedCorpus returns valid encoded round messages so the fuzzer starts from
// well-formed frames: the three client-plane messages raw and under both
// compressing codecs, then the three tier messages, a bare payload, and an
// assignment and a digest of many minimal entries.
func seedCorpus(t testing.TB) [][]byte {
	t.Helper()
	rs := RoundStart{
		Round:     2,
		HasGlobal: true,
		Global:    WirePayload{Params: []float64{1, 2, 3}},
	}
	ru := RoundUpload{
		Round: 2, Client: 1,
		HasPayload: true,
		Payload: WirePayload{
			HasLogits: true,
			Rows:      2, Cols: 3,
			Logits:          []float64{1, 2, 3, 4, 5, 6},
			HasProtos:       true,
			ProtoNumClasses: 3,
			ProtoClasses:    []int32{0, 2},
			ProtoCounts:     []int32{5, 7},
			ProtoDim:        2,
			ProtoValues:     []float64{0.1, 0.2, 0.3, 0.4},
			NumSamples:      10,
		},
	}
	re := RoundEnd{
		Round:        3,
		HasBroadcast: true,
		Broadcast: WirePayload{
			HasLogits: true,
			Rows:      2, Cols: 3,
			Logits:  []float64{1, 2, 3, 4, 5, 6},
			Indices: []int32{0, 4},
		},
	}
	// Coded variants: the same knowledge shapes under the compressing
	// codecs, so the fuzzer starts from valid packed sections too.
	logits := tensor.New(2, 3)
	copy(logits.Data, []float64{1, 2, 3, 4, 5, 6})
	protos := proto.NewSet(3, 2)
	protos.Vectors[0] = []float64{0.1, 0.2}
	protos.Counts[0] = 5
	protos.Vectors[2] = []float64{0.3, 0.4}
	protos.Counts[2] = 7
	up := &engine.Payload{Logits: logits, Protos: protos, NumSamples: 10}
	params := &engine.Payload{Params: []float64{1, 2, 3}}
	ref := []float64{0.5, 1.5, 2.5}

	var coded []any
	for _, c := range []comm.Codec{comm.CodecFloat32, comm.CodecInt8} {
		wUp, err := PayloadToWireIn(up, c, nil)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v): %v", c, err)
		}
		coded = append(coded, RoundUpload{Round: 2, Client: 1, HasPayload: true, Payload: wUp})
		wDelta, err := PayloadToWireIn(params, c, ref)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v, delta): %v", c, err)
		}
		coded = append(coded, RoundUpload{Round: 2, Client: 2, HasPayload: true, Payload: wDelta})
		wGlobal, err := PayloadToWireIn(params, c, nil)
		if err != nil {
			t.Fatalf("PayloadToWireIn(%v, global): %v", c, err)
		}
		coded = append(coded, RoundStart{Round: 2, HasGlobal: true, Global: wGlobal, Codec: uint8(c)})
		coded = append(coded, RoundEnd{Round: 2, HasBroadcast: true, Broadcast: wUp, Codec: uint8(c)})
	}

	tier := codecMessages(t, comm.CodecInt8)[3:]
	// The widest decodes: nested entries that are bare ids, each the fewest
	// bytes a ClientStart or ShardUpload takes.
	bare := ShardAssign{Round: 2, Clients: make([]ClientStart, 48)}
	for i := range bare.Clients {
		bare.Clients[i].Client = i
	}
	idle := ShardDigest{Round: 2, Uploads: make([]ShardUpload, 16)}
	for i := range idle.Uploads {
		idle.Uploads[i].Client = i
	}
	tier = append(tier, bare, idle)

	var out [][]byte
	for _, v := range append(append([]any{rs, ru, re}, coded...), tier...) {
		b, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode(%T): %v", v, err)
		}
		out = append(out, b)
	}
	return out
}

// checkReconstruct rebuilds an engine.Payload from a validated wire
// payload. The only error a validated payload may produce is the named
// delta-without-reference rejection: the decoder cannot know the round's
// reference vector, but it must fail that case cleanly, never panic or
// fabricate values.
func checkReconstruct(t *testing.T, kind string, w *WirePayload) {
	t.Helper()
	if _, err := w.ToPayload(); err != nil && !errors.Is(err, comm.ErrSectionRef) {
		t.Fatalf("validated %s failed reconstruction: %v", kind, err)
	}
}

// maxDecodeExpansion bounds decoded heap bytes per input byte, so a count can
// never size an allocation the input does not pay for. The widest ratios are
// the nested structs against their fewest encoded bytes (a 312-byte
// ShardUpload from 19, a 72-byte ClientStart from 5); a vector element is at
// most 8 bytes from 1. TestNestedMinimaWithinDecodeExpansion holds the format
// to it.
const maxDecodeExpansion = 17

func TestNestedMinimaWithinDecodeExpansion(t *testing.T) {
	for _, n := range []struct {
		v   any
		min int
	}{{ClientStart{}, clientStartMin}, {ShardUpload{}, shardUploadMin}} {
		if size := int(reflect.TypeOf(n.v).Size()); size > maxDecodeExpansion*n.min {
			t.Errorf("%T: %d bytes in memory from as few as %d encoded, over %dx", n.v, size, n.min, maxDecodeExpansion)
		}
	}
}

// fuzzOne decodes data as T and checks the decoder's contract: a rejection
// is a named error; an acceptance is a fixed point (the codec is canonical,
// so re-encoding reproduces data byte for byte), holds no more heap than the
// input implies, and — once Validate passes — reconstructs.
func fuzzOne[T any](t *testing.T, data []byte, payloads func(*T) []*WirePayload, validate func(*T) error) {
	t.Helper()
	var v T
	if err := Decode(data, &v); err != nil {
		if !isNamedDecodeError(err) {
			t.Fatalf("Decode(%T) failed with an unnamed error: %v", v, err)
		}
		return
	}
	enc, err := Encode(&v)
	if err != nil {
		t.Fatalf("re-encode %T: %v", v, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("%T accepted a non-canonical encoding:\n in  %x\n out %x", v, data, enc)
	}
	if _, heap := heapOf(reflect.ValueOf(v)); heap > maxDecodeExpansion*len(data) {
		t.Fatalf("%T decoded %d input bytes into %d heap bytes", v, len(data), heap)
	}
	if validate(&v) != nil {
		return
	}
	for _, w := range payloads(&v) {
		if _, err := w.ToPayload(); err != nil && !errors.Is(err, comm.ErrSectionRef) {
			// The decoder cannot know the round's reference vector, so the
			// named delta-without-reference rejection is the one error a
			// validated payload may still produce.
			t.Fatalf("validated %T failed reconstruction: %v", v, err)
		}
	}
}

// fuzzAll runs one input through all seven message types.
func fuzzAll(t *testing.T, data []byte) {
	fuzzOne(t, data, func(m *RoundStart) []*WirePayload {
		if m.HasGlobal {
			return []*WirePayload{&m.Global}
		}
		return nil
	}, (*RoundStart).Validate)
	fuzzOne(t, data, func(m *RoundUpload) []*WirePayload {
		if m.HasPayload {
			return []*WirePayload{&m.Payload}
		}
		return nil
	}, (*RoundUpload).Validate)
	fuzzOne(t, data, func(m *RoundEnd) []*WirePayload {
		if m.HasBroadcast {
			return []*WirePayload{&m.Broadcast}
		}
		return nil
	}, (*RoundEnd).Validate)
	fuzzOne(t, data, func(*ShardAssign) []*WirePayload { return nil }, (*ShardAssign).Validate)
	fuzzOne(t, data, func(m *ShardDigest) []*WirePayload {
		var ws []*WirePayload
		for i := range m.Uploads {
			ws = append(ws, &m.Uploads[i].Payload)
		}
		if m.HasSum {
			ws = append(ws, &m.Sum)
		}
		return ws
	}, (*ShardDigest).Validate)
	fuzzOne(t, data, func(*ShardEnd) []*WirePayload { return nil }, (*ShardEnd).Validate)
	fuzzOne(t, data, func(m *WirePayload) []*WirePayload { return []*WirePayload{m} }, (*WirePayload).Validate)
}

// FuzzDecode feeds arbitrary bytes through Decode + Validate for every
// message type. Malformed input must surface as a named error, never a panic
// or an allocation the input does not pay for; any accepted input must be a
// fixed point of Decode∘Encode; and any payload that passes Validate must
// survive reconstruction into an engine.Payload (packed sections included).
//
// Random bytes almost never carry a valid CRC-32C, so each input is tried
// twice: verbatim, which exercises the frame checks, and with its trailer
// recomputed, which lets mutations of the seed messages reach the body
// parser behind the checksum.
func FuzzDecode(f *testing.F) {
	for _, b := range fuzzCorpusEntries(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzAll(t, data)
		if len(data) >= frameOverhead {
			fuzzAll(t, seal(append([]byte(nil), data[:len(data)-4]...)))
		}
	})
}

func TestDecodeRoundTrip(t *testing.T) {
	seeds := seedCorpus(t)

	var rs RoundStart
	if err := Decode(seeds[0], &rs); err != nil {
		t.Fatalf("decode RoundStart: %v", err)
	}
	if err := rs.Validate(); err != nil {
		t.Fatalf("valid RoundStart rejected: %v", err)
	}
	if rs.Round != 2 || !rs.HasGlobal || len(rs.Global.Params) != 3 {
		t.Fatalf("round-trip mangled RoundStart: %+v", rs)
	}

	var ru RoundUpload
	if err := Decode(seeds[1], &ru); err != nil {
		t.Fatalf("decode RoundUpload: %v", err)
	}
	if err := ru.Validate(); err != nil {
		t.Fatalf("valid RoundUpload rejected: %v", err)
	}
	if ru.Client != 1 || ru.Payload.Rows != 2 || len(ru.Payload.Logits) != 6 {
		t.Fatalf("round-trip mangled RoundUpload: %+v", ru)
	}

	var re RoundEnd
	if err := Decode(seeds[2], &re); err != nil {
		t.Fatalf("decode RoundEnd: %v", err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("valid RoundEnd rejected: %v", err)
	}
}

// codedPayload is the engine payload behind codedWire.
func codedPayload() *engine.Payload {
	logits := tensor.New(2, 3)
	copy(logits.Data, []float64{1, 2, 3, 4, 5, 6})
	protos := proto.NewSet(3, 2)
	protos.Vectors[1] = []float64{0.5, -0.5}
	protos.Counts[1] = 4
	return &engine.Payload{Logits: logits, Protos: protos, Params: []float64{1, 2, 3}, NumSamples: 9}
}

// codedWire builds a valid int8-coded wire payload and applies an optional
// corruption before returning it.
func codedWire(corrupt func(*WirePayload)) *WirePayload {
	w, err := PayloadToWireIn(codedPayload(), comm.CodecInt8, nil)
	if err != nil {
		panic(err)
	}
	if corrupt != nil {
		corrupt(&w)
	}
	return &w
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"negative round", func() error {
			return (&RoundStart{Round: -1}).Validate()
		}},
		{"negative client id", func() error {
			return (&RoundUpload{Client: -1}).Validate()
		}},
		{"logit count mismatch", func() error {
			return (&WirePayload{HasLogits: true, Rows: 2, Cols: 2, Logits: []float64{1}}).Validate()
		}},
		{"overflowing dims", func() error {
			// 2^30+1 rows is out of range; the range check must reject it
			// before any multiplication.
			return (&WirePayload{HasLogits: true, Rows: maxWireDim + 1, Cols: 1}).Validate()
		}},
		{"huge product", func() error {
			return (&WirePayload{HasLogits: true, Rows: maxWireDim, Cols: maxWireDim}).Validate()
		}},
		{"orphan logits", func() error {
			return (&WirePayload{Logits: []float64{1, 2}}).Validate()
		}},
		{"negative sample index", func() error {
			return (&WirePayload{Indices: []int32{-3}}).Validate()
		}},
		{"proto class/count mismatch", func() error {
			return (&WirePayload{HasProtos: true, ProtoClasses: []int32{0}, ProtoCounts: nil}).Validate()
		}},
		{"negative proto dim", func() error {
			return (&WirePayload{HasProtos: true, ProtoDim: -4}).Validate()
		}},
		{"negative proto class", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{-1}, ProtoCounts: []int32{1}}).Validate()
		}},
		{"negative proto count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{1}, ProtoCounts: []int32{-2}}).Validate()
		}},
		{"proto value length mismatch", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{0}, ProtoCounts: []int32{1}, ProtoDim: 3, ProtoValues: []float64{1}}).Validate()
		}},
		{"proto class beyond class count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: 2, ProtoClasses: []int32{5}, ProtoCounts: []int32{1}, ProtoDim: 1, ProtoValues: []float64{1}}).Validate()
		}},
		{"negative proto class count", func() error {
			return (&WirePayload{HasProtos: true, ProtoNumClasses: -1}).Validate()
		}},
		{"orphan proto values", func() error {
			return (&WirePayload{ProtoValues: []float64{1}}).Validate()
		}},
		{"negative counted params", func() error {
			return (&WirePayload{ParamsCounted: -1}).Validate()
		}},
		{"negative num samples", func() error {
			return (&WirePayload{NumSamples: -1}).Validate()
		}},
		{"nested bad payload in upload", func() error {
			return (&RoundUpload{HasPayload: true, Payload: WirePayload{NumSamples: -1}}).Validate()
		}},
		{"nested bad payload in round end", func() error {
			return (&RoundEnd{HasBroadcast: true, Broadcast: WirePayload{HasLogits: true, Rows: 1, Cols: 1}}).Validate()
		}},
		{"nested bad payload in round start", func() error {
			return (&RoundStart{HasGlobal: true, Global: WirePayload{Indices: []int32{-1}}}).Validate()
		}},
		{"unknown payload codec", func() error {
			return (&WirePayload{Codec: 99}).Validate()
		}},
		{"packed section under raw codec", func() error {
			return (&WirePayload{LogitsEnc: []byte{1, 2, 3, 4, 5}}).Validate()
		}},
		{"raw logits under compressing codec", func() error {
			w := codedWire(nil)
			w.Logits = []float64{1, 2, 3, 4, 5, 6}
			return w.Validate()
		}},
		{"truncated packed logits", func() error {
			w := codedWire(nil)
			w.LogitsEnc = w.LogitsEnc[:len(w.LogitsEnc)-1]
			return w.Validate()
		}},
		{"bit-flipped packed logits", func() error {
			w := codedWire(func(w *WirePayload) { w.LogitsEnc[len(w.LogitsEnc)-1] ^= 0x10 })
			return w.Validate()
		}},
		{"bit-flipped packed protos", func() error {
			w := codedWire(func(w *WirePayload) { w.ProtosEnc[len(w.ProtosEnc)-1] ^= 0x01 })
			return w.Validate()
		}},
		{"wrong section tag for codec", func() error {
			// A float32 logits section inside an int8 payload: well-formed
			// bytes, wrong encoding for the negotiated codec.
			w := codedWire(nil)
			f32, err := PayloadToWireIn(codedPayload(), comm.CodecFloat32, nil)
			if err != nil {
				return nil
			}
			w.LogitsEnc = f32.LogitsEnc
			return w.Validate()
		}},
		{"packed params length mismatch", func() error {
			w := codedWire(func(w *WirePayload) { w.ParamsN++ })
			return w.Validate()
		}},
		{"negative packed params length", func() error {
			w := codedWire(func(w *WirePayload) { w.ParamsN = -1 })
			return w.Validate()
		}},
		{"raw and packed params together", func() error {
			w := codedWire(func(w *WirePayload) { w.Params = []float64{1, 2, 3} })
			return w.Validate()
		}},
		{"orphan packed proto section", func() error {
			w := codedWire(nil)
			w.HasProtos = false
			w.ProtoClasses, w.ProtoCounts = nil, nil
			return w.Validate()
		}},
		{"codec mismatch between round start and global", func() error {
			w := codedWire(nil)
			return (&RoundStart{HasGlobal: true, Global: *w, Codec: uint8(comm.CodecFloat32)}).Validate()
		}},
		{"unknown round start codec", func() error {
			return (&RoundStart{Codec: 42}).Validate()
		}},
		{"unknown round end codec", func() error {
			return (&RoundEnd{Codec: 42}).Validate()
		}},
		{"codec mismatch between round end and broadcast", func() error {
			w := codedWire(nil)
			return (&RoundEnd{HasBroadcast: true, Broadcast: *w, Codec: uint8(comm.CodecFloat64)}).Validate()
		}},
	}
	for _, tc := range cases {
		if err := tc.err(); err == nil {
			t.Errorf("%s: Validate accepted malformed payload", tc.name)
		}
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// fuzzCorpusEntries is the full checked-in seed set for FuzzDecode: every
// encoded message seedCorpus produces, plus raw byte edge cases.
func fuzzCorpusEntries(t testing.TB) [][]byte {
	t.Helper()
	entries := seedCorpus(t)
	entries = append(entries, []byte{}, []byte{0x00}, []byte(strings.Repeat("\xff", 64)))
	return entries
}

// TestFuzzSeedCorpusFiles pins the checked-in corpus under
// testdata/fuzz/FuzzDecode to the live encoder, so `go test` replays valid
// frames for every message type even without -fuzz, and a wire format change
// shows up as a stale corpus instead of silently fuzzing yesterday's format.
// Regenerate with -update-corpus.
func TestFuzzSeedCorpusFiles(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries := fuzzCorpusEntries(t)
	render := func(b []byte) string {
		return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
	}
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, b := range entries {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(path, []byte(render(b)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for i, b := range entries {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing corpus file (regenerate with -update-corpus): %v", err)
		}
		if string(got) != render(b) {
			t.Errorf("corpus file %s is stale (regenerate with -update-corpus)", path)
		}
	}
}
