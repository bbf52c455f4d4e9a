package engine

import (
	"math"
	"reflect"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

// ckptPayloads is the payload shape table the checkpoint codec must carry
// bit-exactly: every section combination the engine produces, including the
// sparse prototype map and the local-logits flag.
func ckptPayloads() []*Payload {
	logits := tensor.New(2, 3)
	copy(logits.Data, []float64{0.5, -1.25, math.Pi, 0, 1e-300, -7})
	protos := proto.NewSet(4, 2)
	protos.Vectors[1] = []float64{0.25, -0.75}
	protos.Counts[1] = 3
	protos.Vectors[3] = []float64{9, 10}
	protos.Counts[3] = 8
	return []*Payload{
		nil,
		{},
		{Logits: logits, NumSamples: 12},
		{Logits: logits, LogitsLocal: true, Indices: []int{4, 0, 17}},
		{Protos: protos},
		{Params: []float64{1.5, -2.5, 0}, ParamsCounted: 3},
		{ParamsCounted: 7, NumSamples: 5},
		{Logits: logits, Indices: []int{1}, Protos: protos, Params: []float64{0.125}, NumSamples: 99},
	}
}

func TestPayloadCkptRoundTrip(t *testing.T) {
	for i, p := range ckptPayloads() {
		e := ckpt.NewEnc()
		encodePayloadCkpt(e, p)
		d := ckpt.NewDec(e.Buf())
		got := decodePayloadCkpt(d)
		if err := d.Err(); err != nil {
			t.Fatalf("payload %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("payload %d round-trip changed:\n got %+v\nwant %+v", i, got, p)
		}
	}
}

func TestPayloadCkptRejectsTruncation(t *testing.T) {
	full := ckptPayloads()[len(ckptPayloads())-1]
	e := ckpt.NewEnc()
	encodePayloadCkpt(e, full)
	buf := e.Buf()
	// Every strict prefix must fail with an error, never panic or return a
	// partially-filled payload as valid.
	for cut := 0; cut < len(buf); cut += 7 {
		d := ckpt.NewDec(buf[:cut])
		if p := decodePayloadCkpt(d); d.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes decoded to %+v", cut, len(buf), p)
		}
	}
}

func TestRetainPayloadDeepCopies(t *testing.T) {
	if retainPayload(nil) != nil {
		t.Fatal("retain of nil payload must stay nil")
	}
	orig := ckptPayloads()[len(ckptPayloads())-1]
	kept := retainPayload(orig)
	if !reflect.DeepEqual(kept, orig) {
		t.Fatalf("retained copy differs:\n got %+v\nwant %+v", kept, orig)
	}
	// Mutating the original must not reach the retained copy.
	orig.Logits.Data[0] = 123
	orig.Indices[0] = -1
	orig.Params[0] = 42
	orig.Protos.Vectors[1][0] = 77
	orig.Protos.Counts[1] = 0
	if kept.Logits.Data[0] == 123 || kept.Indices[0] == -1 || kept.Params[0] == 42 ||
		kept.Protos.Vectors[1][0] == 77 || kept.Protos.Counts[1] == 0 {
		t.Error("retained payload shares storage with its source")
	}
}

func TestParticipantsFractionalSample(t *testing.T) {
	newRunner := func(fraction float64) *Runner {
		r, err := NewRunner(&toyHooks{name: "Toy"}, Config{
			Env:            &fl.Env{Cfg: fl.EnvConfig{NumClients: 8}},
			Seed:           5,
			ClientFraction: fraction,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, fraction := range []float64{0, 1} {
		if got := newRunner(fraction).Participants(3); len(got) != 8 {
			t.Errorf("fraction %v: %d participants, want all 8", fraction, len(got))
		}
	}
	r := newRunner(0.5)
	first := r.Participants(0)
	if len(first) != 4 {
		t.Fatalf("fraction 0.5 of 8 picked %d clients, want 4", len(first))
	}
	for i, c := range first {
		if c < 0 || c > 7 {
			t.Fatalf("participant %d out of range", c)
		}
		if i > 0 && first[i-1] >= c {
			t.Fatal("participants not sorted ascending without duplicates")
		}
	}
	if again := r.Participants(0); !reflect.DeepEqual(again, first) {
		t.Error("same round resampled a different cohort")
	}
	varies := false
	for round := 1; round < 10; round++ {
		if !reflect.DeepEqual(r.Participants(round), first) {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("cohort never varies across rounds")
	}
}

func TestMustApplySectionPanicsOnBadValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-finite quantization input must panic, not damage values silently")
		}
	}()
	mustApplySection(comm.SectionI8, []float64{math.NaN()}, 1, 1, nil)
}
