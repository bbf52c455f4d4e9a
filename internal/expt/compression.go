package expt

import (
	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// RunCompression is the wire-codec experiment: FedPKD at the same seed under
// each payload codec, run twice per codec — once in-process (the ledger is
// the codec's predicted analytic byte count, Payload.WireBytesIn) and once
// over the distributed bus transport (the ledger is real encoded wire
// bytes). The codec layer's contracts ride on the table as claims:
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
		ID:    "compression",
		Title: "FedPKD payload wire codecs: predicted vs real bytes, α=0.5",
		Cols: []Col{{"codec", Text}, {"S_acc", Acc}, {"C_acc", Acc},
			{"pred_up_MB", MB3}, {"wire_up_MB", MB3}, {"raw_up_MB", MB3}, {"wire_ratio", Ratio}},
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}

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
		var inproc legTotals
		mean, _, err := seedEnsemble(seed, func(s uint64) (*fl.History, error) {
			r, err := newRun(AlgoFedPKD, TaskC10, setting, sc, s, false, RunSpec{Codec: c.String()})
			if err != nil {
				return nil, err
			}
			hist, err := r.Run(sc.Rounds)
			if err == nil && s == seed {
				inproc = sum(r, hist)
			}
			return hist, err
		})
		if err != nil {
			return nil, err
		}
		meanAcc, inHist := mean[0], inproc.hist

		rD, err := newRun(AlgoFedPKD, TaskC10, setting, sc, seed, false, RunSpec{Codec: c.String()})
		if err != nil {
			return nil, err
		}
		dHist, err := distrib.Run(rD, sc.Rounds, distrib.Options{})
		if err != nil {
			return nil, err
		}
		wire := sum(rD, dHist)

		// Predicted (in-process) and shipped (wire) trajectories are the
		// same trajectory, bit for bit.
		same := true
		for i := 0; i < inHist.Len() && i < dHist.Len(); i++ {
			ip, w := inHist.Rounds[i], dHist.Rounds[i]
			same = same && ip.ServerAcc == w.ServerAcc && ip.ClientAcc == w.ClientAcc
		}
		res.Claims = append(res.Claims, compressionRounds(c, inHist.Len(), dHist.Len()), compressionTrajectory(c, same))

		ratio := 1.0
		switch c {
		case comm.CodecFloat64:
			f64Wire = wire
			meanAccF64 = meanAcc
		default:
			// The compressing codecs must also account their float64
			// equivalent, and must not cost accuracy.
			ratio = float64(f64Wire.upload) / float64(wire.upload)
			res.Claims = append(res.Claims, compressionRawRecorded(c, wire.rawUpload))
			// int8 is the codec the paper-style accounting leans on: it must
			// deliver >= 4x on real wire bytes.
			if c == comm.CodecInt8 {
				res.Claims = append(res.Claims, compressionRatio(ratio))
			}
			res.Claims = append(res.Claims, compressionFidelity(c, meanAcc, meanAccF64))
		}
		res.AddRow(c.String(), dHist.FinalServerAcc(), dHist.FinalClientAcc(),
			float64(inproc.upload)/1e6, float64(wire.upload)/1e6, float64(wire.rawUpload)/1e6, ratio)
	}
	return res, nil
}
