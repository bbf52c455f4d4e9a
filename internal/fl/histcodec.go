package fl

import (
	"fmt"

	"fedpkd/internal/ckpt"
)

// EncodeHistory appends a history to e in the ckpt binary form. Accuracies
// are stored as raw IEEE-754 bits, so a decoded history is bit-identical to
// the original — the engine's checkpoint "history" section uses this, and the
// resume-equivalence guarantee depends on the exactness.
func EncodeHistory(e *ckpt.Enc, h *History) {
	e.String(h.Algo)
	e.String(h.Dataset)
	e.String(h.Setting)
	e.U32(uint32(len(h.Rounds)))
	for _, r := range h.Rounds {
		e.I64(int64(r.Round))
		e.F64(r.ServerAcc)
		e.F64(r.ClientAcc)
		e.F64(r.CumulativeMB)
	}
	e.U32(uint32(len(h.Degraded)))
	for _, d := range h.Degraded {
		e.I64(int64(d.Round))
		e.I64(int64(d.Cohort))
		e.I64(int64(d.Expected))
		encodeInts(e, d.Missing)
	}
	// The async flush block is a trailing extension written only when flushes
	// exist: synchronous histories keep the exact pre-async encoding, and the
	// decoder reads the block only when bytes remain — so blobs written before
	// the async mode existed still decode.
	if len(h.Flushes) > 0 {
		e.U32(uint32(len(h.Flushes)))
		for _, f := range h.Flushes {
			e.I64(int64(f.Flush))
			e.U64(f.Clock)
			encodeInts(e, f.Contributors)
			encodeInts(e, f.Staleness)
		}
	}
}

// encodeInts writes a u32 count and then each int as an int64.
func encodeInts(e *ckpt.Enc, xs []int) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.I64(int64(x))
	}
}

// DecodeHistory parses a history from its EncodeHistory form.
func DecodeHistory(b []byte) (*History, error) {
	d := ckpt.NewDec(b)
	h := &History{Algo: d.String(), Dataset: d.String(), Setting: d.String()}
	for n := d.Count(4 * 8); n > 0; n-- {
		h.Rounds = append(h.Rounds, RoundMetrics{
			Round: int(d.I64()), ServerAcc: d.F64(), ClientAcc: d.F64(), CumulativeMB: d.F64(),
		})
	}
	for n := d.Count(3*8 + 4); n > 0; n-- {
		h.Degraded = append(h.Degraded, DegradedRound{
			Round: int(d.I64()), Cohort: int(d.I64()), Expected: int(d.I64()), Missing: decodeInts(d),
		})
	}
	if d.Remaining() > 0 {
		for n := d.Count(8 + 8 + 4 + 4); n > 0; n-- {
			h.Flushes = append(h.Flushes, AsyncFlush{
				Flush: int(d.I64()), Clock: d.U64(), Contributors: decodeInts(d), Staleness: decodeInts(d),
			})
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("fl: decode history: %w", err)
	}
	return h, nil
}

// decodeInts reads what encodeInts wrote. An empty list decodes to nil, as
// histories hold it.
func decodeInts(d *ckpt.Dec) []int {
	var out []int
	for n := d.Count(8); n > 0; n-- {
		out = append(out, int(d.I64()))
	}
	return out
}
