package fedpkd

import (
	"fedpkd/internal/comm"
)

// Wire-codec facade. Every payload an algorithm ships — public-set logits,
// class prototypes, model parameters — travels through a negotiated wire
// codec (DESIGN.md §10): "float64raw" (the default; byte-identical to the
// historical format), "float32", or "int8" (linear per-row quantization with
// CRC-guarded sections). The codec governs both the actual bytes on the
// distributed transport and the ledger's per-round accounting; compressing
// codecs additionally record the float64-equivalent byte counts in the
// ledger's raw columns so compression ratios come out of one run.

// WireCodecs lists the codec names RunSpec.Codec accepts.
func WireCodecs() []string {
	names := make([]string, 0, 3)
	for c := comm.Codec(0); c.Valid(); c++ {
		names = append(names, c.String())
	}
	return names
}
