package fl

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"fedpkd/internal/ckpt"
)

// encodeHistory is EncodeHistory into a fresh encoder.
func encodeHistory(h *History) []byte {
	e := ckpt.NewEnc()
	EncodeHistory(e, h)
	return e.Buf()
}

func TestHistoryCodecRoundTrip(t *testing.T) {
	h := &History{Algo: "FedPKD", Dataset: "SynthC10", Setting: "dirichlet(α=0.5)"}
	h.Add(RoundMetrics{Round: 0, ServerAcc: 0.1234567891234, ClientAcc: -1, CumulativeMB: 1.25})
	h.Add(RoundMetrics{Round: 1, ServerAcc: math.Nextafter(0.5, 1), ClientAcc: 0.25, CumulativeMB: 2.5})

	got, err := DecodeHistory(encodeHistory(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != h.Algo || got.Dataset != h.Dataset || got.Setting != h.Setting {
		t.Fatalf("labels mangled: %+v", got)
	}
	if len(got.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(got.Rounds))
	}
	for i := range h.Rounds {
		if got.Rounds[i] != h.Rounds[i] {
			t.Fatalf("round %d: %+v != %+v (must be bit-identical)", i, got.Rounds[i], h.Rounds[i])
		}
	}
}

func TestHistoryCodecCarriesDegradedRounds(t *testing.T) {
	h := &History{Algo: "FedPKD", Dataset: "SynthC10", Setting: "iid"}
	h.Add(RoundMetrics{Round: 0, ServerAcc: 0.5, ClientAcc: 0.4, CumulativeMB: 1})
	h.AddDegraded(DegradedRound{Round: 0, Cohort: 2, Expected: 3, Missing: []int{1}})
	h.AddDegraded(DegradedRound{Round: 4, Cohort: 1, Expected: 3, Missing: []int{0, 2}})

	got, err := DecodeHistory(encodeHistory(h))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Degraded) != 2 {
		t.Fatalf("degraded rounds = %d, want 2", len(got.Degraded))
	}
	for i, d := range h.Degraded {
		g := got.Degraded[i]
		if g.Round != d.Round || g.Cohort != d.Cohort || g.Expected != d.Expected || len(g.Missing) != len(d.Missing) {
			t.Fatalf("degraded %d: %+v != %+v", i, g, d)
		}
		for j := range d.Missing {
			if g.Missing[j] != d.Missing[j] {
				t.Fatalf("degraded %d missing %d: %d != %d", i, j, g.Missing[j], d.Missing[j])
			}
		}
	}

	// A healthy history must not grow a Degraded slice through the codec
	// (JSON goldens rely on the field staying nil/omitted).
	clean := &History{Algo: "x"}
	clean.Add(RoundMetrics{Round: 0})
	rt, err := DecodeHistory(encodeHistory(clean))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Degraded != nil {
		t.Fatalf("clean history decoded with Degraded = %+v", rt.Degraded)
	}
}

// maxHistoryExpansion bounds DecodeHistory's heap per input byte, over a
// fixed 1 KiB for the History and error text. The widest ratio is an async
// flush record with no contributors: 24 encoded bytes, a 64-byte AsyncFlush,
// and append's growth copies.
const maxHistoryExpansion = 16

// FuzzDecodeHistory holds the history codec to its contract on arbitrary
// bytes: no panic, heap within the stated bound, and either an error or a
// history whose re-encoding decodes to the same bytes again.
func FuzzDecodeHistory(f *testing.F) {
	h := &History{Algo: "FedPKD", Dataset: "SynthC10", Setting: "iid"}
	h.Add(RoundMetrics{Round: 0, ServerAcc: 0.5, ClientAcc: -1, CumulativeMB: 1})
	f.Add(encodeHistory(h))
	h.AddDegraded(DegradedRound{Round: 0, Cohort: 2, Expected: 3, Missing: []int{1}})
	f.Add(encodeHistory(h))
	h.Flushes = []AsyncFlush{{Flush: 0, Clock: 40, Contributors: []int{0, 2}, Staleness: []int{0, 1}}, {Flush: 1, Clock: 41}}
	f.Add(encodeHistory(h))
	if _, err := DecodeHistory(encodeHistory(h)); err != nil { // first-use allocations
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew := allocated(func() { DecodeHistory(data) }); grew > uint64(maxHistoryExpansion*len(data)+1024) {
			t.Fatalf("DecodeHistory of %d bytes allocated %d", len(data), grew)
		}
		h, err := DecodeHistory(data)
		if err != nil {
			return
		}
		enc := encodeHistory(h)
		back, err := DecodeHistory(enc)
		if err != nil {
			t.Fatalf("re-encoded history rejected: %v", err)
		}
		if again := encodeHistory(back); !bytes.Equal(again, enc) {
			t.Fatalf("history changed across a re-encode:\n %x\n %x", enc, again)
		}
	})
}

func TestDecodeHistoryRejectsTruncation(t *testing.T) {
	h := &History{Algo: "x"}
	h.Add(RoundMetrics{Round: 0})
	enc := encodeHistory(h)
	for _, cut := range []int{0, 2, len(enc) - 1} {
		if _, err := DecodeHistory(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// allocated reports the fewest heap bytes any of three runs of fn allocated,
// which screens out allocations the fuzzing engine makes concurrently.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
