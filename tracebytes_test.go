package fedpkd

import (
	"testing"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/transport"
)

// TestTraceBytesAreLedgerRows pins the one-counter contract of byte
// accounting: every closed round trace carries exactly its round's ledger
// row in its seven byte columns — client-plane upload, download and control,
// their raw-equivalent prices under a compressing codec, and the aggregator
// tier's backhaul. It runs the flat and tree topologies over bus and TCP,
// with and without a compressing codec. The chaos leg, where retries,
// duplicates and corrupt envelopes bill bytes from many goroutines at once,
// is internal/distrib's TestTraceBytesAreLedgerRowsUnderChaos, which runs its
// deadlines on a virtual clock. In the int8 tree legs each round's tier
// uplink must also be no more than its client uploads plus the digests' own
// framing: a leaf forwards the uploads as their clients sent them, and a
// leaf that re-encoded them float64raw would send several times the bytes.
func TestTraceBytesAreLedgerRows(t *testing.T) {
	const rounds = 3
	tree := Topology{Shards: 2}
	legs := []struct {
		name, algo, codec string
		opts              DistributedOptions
	}{
		{"bus-flat-fedpkd", "fedpkd", "", DistributedOptions{Mode: ModeBus}},
		{"tcp-flat-fedavg", "fedavg", "", DistributedOptions{Mode: ModeTCP}},
		{"bus-tree-int8", "fedpkd", "int8", DistributedOptions{Mode: ModeBus, Topology: tree}},
		{"tcp-tree-int8", "fedpkd", "int8", DistributedOptions{Mode: ModeTCP, Topology: tree}},
	}
	env := goldenEnv(t)
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			algo, err := goldenAlgos(env)[leg.algo]()
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(leg.algo)
			if _, err := Configure(algo, RunSpec{Codec: leg.codec, Recorder: rec}); err != nil {
				t.Fatal(err)
			}
			if _, err := RunDistributed(algo, rounds, leg.opts); err != nil {
				t.Fatal(err)
			}
			r, err := engine.Of(algo)
			if err != nil {
				t.Fatal(err)
			}
			rows := r.Ledger().Rounds()
			traces := rec.Traces()
			if len(traces) != rounds || len(rows) != rounds {
				t.Fatalf("%d traces and %d ledger rows, want %d of each", len(traces), len(rows), rounds)
			}
			// Every digest's bytes beside its uploads: the envelope header and
			// the digest's own fields, with each shard heard in full (no
			// client is missed here).
			var framing int64
			if leg.opts.Topology.Enabled() {
				n := r.Config().Env.Cfg.NumClients
				for shard := 0; shard < leg.opts.Topology.Shards; shard++ {
					size, err := transport.EncodedSize(&transport.ShardDigest{Round: rounds, Shard: shard, Heard: n})
					if err != nil {
						t.Fatal(err)
					}
					framing += int64(transport.EnvelopeHeaderSize + size)
				}
			}
			var raw, tier int64
			for i, tr := range traces {
				row := rows[i]
				if leg.codec != "" && framing > 0 && row.TierUp > row.Upload+framing {
					t.Errorf("round %d: the tier carried %d bytes up for %d bytes of client uploads and %d of digest framing; a leaf forwards what its clients sent",
						row.Round, row.TierUp, row.Upload, framing)
				}
				raw += row.RawUpload + row.RawDownload
				tier += row.TierUp + row.TierDown
				got := [8]int64{int64(tr.Round), tr.UploadBytes, tr.DownloadBytes, tr.ControlBytes,
					tr.UploadRawBytes, tr.DownloadRawBytes, tr.TierUpBytes, tr.TierDownBytes}
				want := [8]int64{int64(row.Round), row.Upload, row.Download, row.Control,
					row.RawUpload, row.RawDownload, row.TierUp, row.TierDown}
				if got != want {
					t.Errorf("trace %d (round, up, down, control, raw up, raw down, tier up, tier down) = %v, ledger row %v", i, got, want)
				}
			}
			// Each leg must bill the columns it exists to cover.
			if (raw > 0) != (leg.codec != "") || (tier > 0) != leg.opts.Topology.Enabled() {
				t.Errorf("leg billed raw %d and tier %d bytes", raw, tier)
			}
		})
	}
}
