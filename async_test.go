package fedpkd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl/engine"
)

// asyncGoldenOpts is the async configuration of the pinned trajectories: a
// 2-deep buffer over the 3-client golden fleet, straggler model on, so the
// schedule produces genuinely stale contributions whose damping the goldens
// freeze.
func asyncGoldenOpts() *AsyncOptions {
	return &AsyncOptions{
		BufferSize:     2,
		StalenessAlpha: 0.5,
		Schedule:       ArrivalSchedule{Seed: 31, StragglerFrac: 0.34},
	}
}

// asyncGoldenFlushes covers the initial dispatch, a fresh flush, and at
// least one stale (version-lagged) contribution.
const asyncGoldenFlushes = 3

// TestGoldenAsyncHistories pins the async mode's full observable behavior —
// flush schedule, contributors, staleness, logical clock, accuracy
// trajectory, and ledger MB — for the two weighting paths: FedPKD (logits +
// prototype damping) and FedAvg (parameter interpolation toward the
// anchor). Any change to the arrival schedule, the staleness weight, or the
// buffer selection moves these goldens.
func TestGoldenAsyncHistories(t *testing.T) {
	env := goldenEnv(t)
	builds := goldenAlgos(env)
	for _, name := range []string{"fedpkd", "fedavg"} {
		name := name
		t.Run(name, func(t *testing.T) {
			hist, got := runGolden(t, builds[name], &RunSpec{Async: asyncGoldenOpts()}, asyncGoldenFlushes)
			if len(hist.Flushes) != asyncGoldenFlushes {
				t.Fatalf("flush records = %d, want %d", len(hist.Flushes), asyncGoldenFlushes)
			}
			path := filepath.Join("testdata", "goldens", name+"_async.json")
			if *updateGoldens {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestGoldenAsyncHistories -update-goldens): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("async history diverged from golden %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}

// TestAsyncSameSeedReplay is the root-level determinism gate: two async runs
// at the same seed must produce byte-identical histories and ledger totals.
// scripts/check.sh runs it under -race, so the flush fan-out is also checked
// for data races.
func TestAsyncSameSeedReplay(t *testing.T) {
	run := func() ([]byte, int64) {
		env := goldenEnv(t)
		algo, err := goldenAlgos(env)["fedpkd"]()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Configure(algo, RunSpec{Async: asyncGoldenOpts()}); err != nil {
			t.Fatal(err)
		}
		hist, err := algo.Run(asyncGoldenFlushes)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		return j, r.Ledger().TotalBytes()
	}
	h1, l1 := run()
	h2, l2 := run()
	if string(h1) != string(h2) {
		t.Fatalf("same-seed async runs diverged:\n%s\nvs\n%s", h1, h2)
	}
	if l1 != l2 {
		t.Fatalf("ledger totals diverged: %d vs %d", l1, l2)
	}
}

// TestGoldenFedPKDFloat32 pins the float32 trajectory alongside the existing
// int8 golden: FedPKD under the float32 wire codec at the golden seed,
// history and compressed-ledger totals byte-for-byte.
func TestGoldenFedPKDFloat32(t *testing.T) {
	_, got := runGolden(t, goldenAlgos(goldenEnv(t))["fedpkd"], &RunSpec{Codec: "float32"}, goldenRounds)
	path := filepath.Join("testdata", "goldens", "fedpkd_float32.json")
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestGoldenFedPKDFloat32 -update-goldens): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("float32 history diverged from golden:\n got: %s\nwant: %s", got, want)
	}
}

// TestLedgerRawCoversWireForEveryCodec asserts the raw-equivalent ledger
// contract across the whole codec enum, on real wire bytes: a compressing
// codec must bill its float64-equivalent (Raw) bytes at or above the
// encoded bytes it actually moved, for every round and both directions; the
// identity codec records no raw columns at all. The run goes over the bus
// transport because the contract is about real encodings — the in-process
// analytic ledger prices the raw baseline at the paper's 4 B/value, which a
// codec's exact framing overhead may legitimately exceed.
func TestLedgerRawCoversWireForEveryCodec(t *testing.T) {
	env := goldenEnv(t)
	for c := comm.Codec(0); c.Valid(); c++ {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			algo, err := NewFedPKD(Config{
				Env: env, ClientPrivateEpochs: 3, ClientPublicEpochs: 2, ServerEpochs: 4, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Configure(algo, RunSpec{Codec: c.String()}); err != nil {
				t.Fatal(err)
			}
			if _, err := distrib.Run(algo, goldenRounds, distrib.Options{}); err != nil {
				t.Fatal(err)
			}
			r, err := engine.Of(algo)
			if err != nil {
				t.Fatal(err)
			}
			for _, rt := range r.Ledger().Rounds() {
				if c == comm.CodecFloat64 {
					if rt.RawUpload != 0 || rt.RawDownload != 0 {
						t.Errorf("round %d: identity codec recorded raw columns %d/%d", rt.Round, rt.RawUpload, rt.RawDownload)
					}
					continue
				}
				if rt.RawUpload < rt.Upload {
					t.Errorf("round %d: raw upload %d < wire upload %d", rt.Round, rt.RawUpload, rt.Upload)
				}
				if rt.RawDownload < rt.Download {
					t.Errorf("round %d: raw download %d < wire download %d", rt.Round, rt.RawDownload, rt.Download)
				}
				if rt.Upload == 0 || rt.Download == 0 {
					t.Errorf("round %d: no wire traffic recorded (up %d, down %d)", rt.Round, rt.Upload, rt.Download)
				}
			}
		})
	}
}
