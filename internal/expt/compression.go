package expt

import (
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// RunCompression is the wire-codec experiment: FedPKD at the same seed under
// each payload codec, run twice per codec — once in-process (the ledger is
// the codec's predicted analytic byte count, Payload.WireBytesIn) and once
// over the distributed bus transport (the ledger is real encoded wire
// bytes). The experiment is self-checking; it returns an error rather than a
// table when the codec layer breaks its contracts:
//
//   - Equivalence: for every codec the two legs must follow bit-identical
//     accuracy trajectories — the wire decode is the same decode(encode(x))
//     the in-process engine applies, so "what was priced" and "what shipped"
//     cannot drift apart.
//   - Compression: int8 must cut real per-round upload bytes by >= 4x
//     against float64raw on the wire (a raw float64 costs 8 B/value; int8
//     costs ~1 B/value plus per-row scale headers).
//   - Fidelity: quantization may cost at most 0.5pp of final server
//     accuracy against float64. A single run cannot resolve 0.5pp at the
//     reduced scales (one test sample is 0.25pp at Quick, and seed-to-seed
//     noise spans several pp in either direction), so the budget is enforced
//     on the mean over fidelitySeeds consecutive seeds; the in-process leg
//     stands in for the wire leg there because contract 1 proves them
//     bit-identical.
func RunCompression(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "compression",
		Title:  "FedPKD payload wire codecs: predicted vs real bytes, α=0.5",
		Header: []string{"codec", "S_acc", "C_acc", "pred_up_MB", "wire_up_MB", "raw_up_MB", "wire_ratio"},
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}

	// fidelitySeeds sizes the ensemble the accuracy budget is checked on.
	const fidelitySeeds = 5

	type legTotals struct {
		upload, rawUpload int64
		hist              *fl.History
	}
	sum := func(r *engine.Runner, hist *fl.History) legTotals {
		t := legTotals{hist: hist}
		for _, rt := range r.Ledger().Rounds() {
			t.upload += rt.Upload
			t.rawUpload += rt.RawUpload
		}
		return t
	}

	var f64Wire legTotals
	var meanAccF64 float64
	for c := comm.Codec(0); c.Valid(); c++ {
		// In-process fidelity ensemble; the base-seed member doubles as the
		// predicted-bytes leg of the equivalence contract.
		var meanAcc float64
		var inproc legTotals
		var inHist *fl.History
		for s := uint64(0); s < fidelitySeeds; s++ {
			r, err := newRun(AlgoFedPKD, TaskC10, setting, sc, seed+s, false, RunSpec{Codec: c.String()})
			if err != nil {
				return nil, err
			}
			hist, err := r.Run(sc.Rounds)
			if err != nil {
				return nil, err
			}
			meanAcc += hist.FinalServerAcc()
			if s == 0 {
				inproc = sum(r, hist)
				inHist = hist
			}
		}
		meanAcc /= fidelitySeeds

		rD, err := newRun(AlgoFedPKD, TaskC10, setting, sc, seed, false, RunSpec{Codec: c.String()})
		if err != nil {
			return nil, err
		}
		dHist, err := distrib.Run(rD, sc.Rounds, distrib.Options{})
		if err != nil {
			return nil, err
		}
		wire := sum(rD, dHist)

		// Contract 1: predicted (in-process) and shipped (wire) trajectories
		// are the same trajectory, bit for bit.
		if inHist.Len() != dHist.Len() {
			return nil, fmt.Errorf("expt: codec %s: in-process ran %d rounds, wire %d", c, inHist.Len(), dHist.Len())
		}
		for i := range inHist.Rounds {
			ip, w := inHist.Rounds[i], dHist.Rounds[i]
			if ip.ServerAcc != w.ServerAcc || ip.ClientAcc != w.ClientAcc {
				return nil, fmt.Errorf("expt: codec %s: round %d diverged between predicted and wire legs: (%v,%v) vs (%v,%v)",
					c, i, ip.ServerAcc, ip.ClientAcc, w.ServerAcc, w.ClientAcc)
			}
		}
		// The compressing codecs must also account their float64 equivalent.
		if c != comm.CodecFloat64 && wire.rawUpload == 0 {
			return nil, fmt.Errorf("expt: codec %s: raw-equivalent upload bytes not recorded", c)
		}

		ratio := "1.00x"
		switch c {
		case comm.CodecFloat64:
			f64Wire = wire
			meanAccF64 = meanAcc
		default:
			r := float64(f64Wire.upload) / float64(wire.upload)
			ratio = fmt.Sprintf("%.2fx", r)
			// Contract 2: int8 is the codec the paper-style accounting leans
			// on — it must deliver >= 4x on real wire bytes.
			if c == comm.CodecInt8 && r < 4 {
				return nil, fmt.Errorf("expt: int8 upload compression %.2fx on the wire, need >= 4x (f64 %d B, int8 %d B)",
					r, f64Wire.upload, wire.upload)
			}
			// Contract 3: compression must not cost accuracy — at most 0.5pp
			// of mean final server accuracy across the seed ensemble.
			if meanAcc < meanAccF64-0.005 {
				return nil, fmt.Errorf("expt: codec %s lost %.2fpp mean server accuracy over %d seeds, budget is 0.5pp",
					c, (meanAccF64-meanAcc)*100, fidelitySeeds)
			}
		}
		res.AddRow(c.String(),
			pct(dHist.FinalServerAcc()), pct(dHist.FinalClientAcc()),
			mbBytes(inproc.upload), mbBytes(wire.upload), mbBytes(wire.rawUpload), ratio)
	}
	return res, nil
}

// mbBytes formats a byte count as megabytes.
func mbBytes(b int64) string {
	return fmt.Sprintf("%.3f", float64(b)/1e6)
}
