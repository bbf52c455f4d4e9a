package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"fedpkd/internal/fl"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

func TestArrivalScheduleDeterministicAndBounded(t *testing.T) {
	s := ArrivalSchedule{Seed: 11, MinTicks: 20, MaxTicks: 60, StragglerFrac: 0.5, StragglerFactor: 3}
	for c := 0; c < 8; c++ {
		for v := 0; v < 4; v++ {
			for a := 0; a < 3; a++ {
				d1 := s.Delay(c, v, a)
				d2 := s.Delay(c, v, a)
				if d1 != d2 {
					t.Fatalf("Delay(%d,%d,%d) not pure: %d vs %d", c, v, a, d1, d2)
				}
				lo, hi := s.MinTicks, s.MaxTicks
				if s.IsStraggler(c) {
					lo *= s.StragglerFactor
					hi *= s.StragglerFactor
				}
				if d1 < lo || d1 > hi {
					t.Fatalf("Delay(%d,%d,%d) = %d outside [%d,%d]", c, v, a, d1, lo, hi)
				}
			}
		}
	}
	// Different coordinates must draw from different streams.
	if s.Delay(0, 0, 0) == s.Delay(1, 0, 0) && s.Delay(0, 1, 0) == s.Delay(1, 1, 0) &&
		s.Delay(0, 2, 0) == s.Delay(1, 2, 0) && s.Delay(0, 3, 0) == s.Delay(1, 3, 0) {
		t.Error("clients 0 and 1 drew identical delays across four versions")
	}
}

func TestArrivalScheduleStragglerFrac(t *testing.T) {
	none := ArrivalSchedule{Seed: 3, StragglerFrac: 0}
	all := ArrivalSchedule{Seed: 3, StragglerFrac: 1}
	for c := 0; c < 16; c++ {
		if none.IsStraggler(c) {
			t.Fatalf("frac 0 marked client %d a straggler", c)
		}
		if !all.IsStraggler(c) {
			t.Fatalf("frac 1 missed client %d", c)
		}
	}
}

func TestArrivalScheduleValidate(t *testing.T) {
	if err := (ArrivalSchedule{MinTicks: 50, MaxTicks: 10}).Validate(); err == nil {
		t.Error("MaxTicks < MinTicks accepted")
	}
	if err := (ArrivalSchedule{StragglerFrac: 1.5, MaxTicks: 10, MinTicks: 1}).Validate(); err == nil {
		t.Error("StragglerFrac > 1 accepted")
	}
	if err := (ArrivalSchedule{Seed: 1}.WithDefaults()).Validate(); err != nil {
		t.Errorf("defaulted schedule rejected: %v", err)
	}
}

func TestStalenessWeight(t *testing.T) {
	if w := StalenessWeight(0, 0.5); w != 1 {
		t.Errorf("fresh weight = %v", w)
	}
	if w := StalenessWeight(5, 0); w != 1 {
		t.Errorf("alpha 0 weight = %v", w)
	}
	prev := 1.0
	for s := 1; s < 6; s++ {
		w := StalenessWeight(s, 0.5)
		if w <= 0 || w >= prev {
			t.Fatalf("weight at staleness %d = %v, prev %v — must decrease toward 0", s, w, prev)
		}
		prev = w
	}
}

func TestWeightStalePayloadSections(t *testing.T) {
	ps := proto.NewSet(3, 2)
	ps.Vectors[0] = []float64{1, 2}
	ps.Counts[0] = 10
	ps.Vectors[2] = []float64{3, 4}
	ps.Counts[2] = 1
	logits := tensor.New(2, 2)
	copy(logits.Data, []float64{1, -2, 3, -4})
	p := &Payload{
		Logits:     logits,
		Protos:     ps,
		Params:     []float64{2, 4},
		Indices:    []int{5, 6},
		NumSamples: 7,
	}

	// Weight 1 is the identity, same pointer.
	if got := WeightStalePayload(p, 1, nil); got != p {
		t.Error("weight 1 must return the payload unchanged")
	}

	anchor := &Payload{Params: []float64{0, 0}}
	out := WeightStalePayload(p, 0.5, anchor)
	for i, want := range []float64{0.5, -1, 1.5, -2} {
		if out.Logits.Data[i] != want {
			t.Errorf("logit %d = %v, want %v", i, out.Logits.Data[i], want)
		}
	}
	if out.Protos.Counts[0] != 5 {
		t.Errorf("proto count = %d, want 5", out.Protos.Counts[0])
	}
	if out.Protos.Counts[2] != 1 {
		t.Errorf("proto count floor = %d, want 1", out.Protos.Counts[2])
	}
	if out.Protos.Vectors[0][0] != 1 || out.Protos.Vectors[0][1] != 2 {
		t.Errorf("centroid scaled: %v", out.Protos.Vectors[0])
	}
	for i, want := range []float64{1, 2} { // 0 + 0.5·(p − 0)
		if out.Params[i] != want {
			t.Errorf("param %d = %v, want %v", i, out.Params[i], want)
		}
	}
	if out.NumSamples != 7 || len(out.Indices) != 2 {
		t.Errorf("metadata changed: %+v", out)
	}
	// The input must be untouched.
	if p.Logits.Data[0] != 1 || p.Protos.Counts[0] != 10 || p.Params[0] != 2 {
		t.Errorf("input payload mutated: %+v", p)
	}

	// Without a shape-matching anchor, params pass through.
	out = WeightStalePayload(p, 0.5, &Payload{Params: []float64{1}})
	if out.Params[0] != 2 || out.Params[1] != 4 {
		t.Errorf("shape-mismatched anchor interpolated params: %v", out.Params)
	}

	// Local logits are private state, never damped.
	local := &Payload{Logits: logits.Clone(), LogitsLocal: true}
	out = WeightStalePayload(local, 0.25, nil)
	if out.Logits.Data[0] != 1 {
		t.Errorf("LogitsLocal damped: %v", out.Logits.Data[0])
	}
}

func TestSetAsyncValidation(t *testing.T) {
	r, _ := toyRunner(t, "Toy", 7, 3)
	cases := []AsyncOptions{
		{BufferSize: 0},
		{BufferSize: 4},
		{BufferSize: 2, StalenessAlpha: -1},
		{BufferSize: 2, Schedule: ArrivalSchedule{MinTicks: 9, MaxTicks: 2}},
	}
	for _, o := range cases {
		if err := r.SetAsync(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := r.SetAsync(AsyncOptions{BufferSize: 2}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if got := r.Async(); got == nil || got.BufferSize != 2 || got.StalenessAlpha != 0.5 {
		t.Errorf("Async() = %+v", got)
	}

	frac, err := NewRunner(&toyHooks{name: "Toy"},
		Config{Env: &fl.Env{Cfg: fl.EnvConfig{NumClients: 3}}, Seed: 7, ClientFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := frac.SetAsync(AsyncOptions{BufferSize: 2}); err == nil {
		t.Error("partial participation accepted in async mode")
	}
	drop, err := NewRunner(&toyHooks{name: "Toy"},
		Config{Env: &fl.Env{Cfg: fl.EnvConfig{NumClients: 3}}, Seed: 7, ClientDropProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := drop.SetAsync(AsyncOptions{BufferSize: 2}); err == nil {
		t.Error("drop probability accepted in async mode")
	}
}

func asyncToyRunner(t *testing.T, seed uint64) (*Runner, *toyHooks) {
	t.Helper()
	r, h := toyRunner(t, "Toy", seed, 4)
	if err := r.SetAsync(AsyncOptions{
		BufferSize:     2,
		StalenessAlpha: 0.5,
		Schedule:       ArrivalSchedule{Seed: seed, StragglerFrac: 0.25},
	}); err != nil {
		t.Fatal(err)
	}
	return r, h
}

func TestAsyncFlushRecordsAndClock(t *testing.T) {
	r, h := asyncToyRunner(t, 7)
	hist, err := r.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Flushes) != 5 {
		t.Fatalf("flush records = %d, want 5", len(hist.Flushes))
	}
	var clock uint64
	for i, f := range hist.Flushes {
		if f.Flush != i {
			t.Errorf("flush %d recorded index %d", i, f.Flush)
		}
		if f.Clock < clock {
			t.Errorf("flush %d clock %d went backwards from %d", i, f.Clock, clock)
		}
		clock = f.Clock
		if len(f.Contributors) != 2 || len(f.Staleness) != 2 {
			t.Errorf("flush %d: %d contributors, %d staleness entries, want 2/2", i, len(f.Contributors), len(f.Staleness))
		}
		for j, c := range f.Contributors {
			if c < 0 || c >= 4 {
				t.Errorf("flush %d contributor %d out of range", i, c)
			}
			if f.Staleness[j] < 0 {
				t.Errorf("flush %d staleness %d negative", i, f.Staleness[j])
			}
		}
	}
	if hist.FinalClock() != clock || hist.FinalClock() == 0 {
		t.Errorf("FinalClock = %d, last flush %d", hist.FinalClock(), clock)
	}
	// Each flush aggregates exactly the buffer's two uploads.
	if h.counter != 10 {
		t.Errorf("toy counter = %d, want 10 (5 flushes x 2 uploads)", h.counter)
	}
}

func TestAsyncDeterministicReplay(t *testing.T) {
	r1, _ := asyncToyRunner(t, 7)
	h1, err := r1.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := asyncToyRunner(t, 7)
	h2, err := r2.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same-seed async runs diverged:\n%s\n%s", j1, j2)
	}
	if !bytes.Equal(encodeHistory(h1), encodeHistory(h2)) {
		t.Fatal("binary history encodings diverged")
	}

	other, _ := asyncToyRunner(t, 8)
	h3, err := other.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	j3, _ := json.Marshal(h3)
	if bytes.Equal(j1, j3) {
		t.Error("different seeds produced identical flush schedules")
	}
}

func TestHistoryCodecRoundTripsFlushes(t *testing.T) {
	r, _ := asyncToyRunner(t, 9)
	hist, err := r.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fl.DecodeHistory(encodeHistory(hist))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(hist)
	b, _ := json.Marshal(dec)
	if !bytes.Equal(a, b) {
		t.Fatalf("flush records lost in codec round trip:\n%s\n%s", a, b)
	}

	// Synchronous histories must not grow a flush block: their encodings stay
	// byte-identical to the pre-async format.
	syncR, _ := toyRunner(t, "Toy", 9, 4)
	syncHist, err := syncR.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(syncHist.Flushes) != 0 {
		t.Fatalf("sync run recorded flushes: %+v", syncHist.Flushes)
	}
	sdec, err := fl.DecodeHistory(encodeHistory(syncHist))
	if err != nil {
		t.Fatal(err)
	}
	if sdec.Flushes != nil {
		t.Errorf("sync decode grew flushes: %+v", sdec.Flushes)
	}
}

func TestAsyncCheckpointResumeRoundTrip(t *testing.T) {
	straight, _ := asyncToyRunner(t, 7)
	straightHist, err := straight.Run(6)
	if err != nil {
		t.Fatal(err)
	}

	first, _ := asyncToyRunner(t, 7)
	if _, err := first.Run(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpointTo(first, &buf); err != nil {
		t.Fatal(err)
	}

	resumed, _ := asyncToyRunner(t, 7)
	if err := resumeFrom(resumed, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.History().FinalClock(), first.History().FinalClock(); got != want || got == 0 {
		t.Fatalf("resumed clock %d, checkpointed %d", got, want)
	}
	resumedHist, err := resumed.RunUntil(6)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(straightHist)
	b, _ := json.Marshal(resumedHist)
	if !bytes.Equal(a, b) {
		t.Fatalf("straight and resumed async histories differ:\n%s\n%s", a, b)
	}
	if got, want := resumed.Ledger().TotalBytes(), straight.Ledger().TotalBytes(); got != want {
		t.Fatalf("resumed ledger total %d bytes, straight %d", got, want)
	}
}

func TestAsyncCheckpointModeAndOptionMismatch(t *testing.T) {
	asyncSrc, _ := asyncToyRunner(t, 7)
	if _, err := asyncSrc.Run(2); err != nil {
		t.Fatal(err)
	}
	var asyncCkpt bytes.Buffer
	if err := checkpointTo(asyncSrc, &asyncCkpt); err != nil {
		t.Fatal(err)
	}

	syncSrc, _ := toyRunner(t, "Toy", 7, 4)
	if _, err := syncSrc.Run(2); err != nil {
		t.Fatal(err)
	}
	var syncCkpt bytes.Buffer
	if err := checkpointTo(syncSrc, &syncCkpt); err != nil {
		t.Fatal(err)
	}

	// Async checkpoint into a sync runner: refused.
	syncR, _ := toyRunner(t, "Toy", 7, 4)
	if err := resumeFrom(syncR, bytes.NewReader(asyncCkpt.Bytes())); err == nil {
		t.Error("async checkpoint accepted by a synchronous runner")
	}
	// Sync checkpoint into an async runner: refused.
	asyncR, _ := asyncToyRunner(t, 7)
	if err := resumeFrom(asyncR, bytes.NewReader(syncCkpt.Bytes())); err == nil {
		t.Error("sync checkpoint accepted by an async runner")
	}
	// Async checkpoint under different async options: refused, not applied.
	diff, _ := toyRunner(t, "Toy", 7, 4)
	if err := diff.SetAsync(AsyncOptions{BufferSize: 3, StalenessAlpha: 0.5,
		Schedule: ArrivalSchedule{Seed: 7, StragglerFrac: 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := resumeFrom(diff, bytes.NewReader(asyncCkpt.Bytes())); err == nil {
		t.Error("async checkpoint accepted under different buffer size")
	}
	if diff.CurrentRound() != 0 {
		t.Errorf("failed resume advanced round to %d", diff.CurrentRound())
	}
}
