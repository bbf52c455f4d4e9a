package fedpkd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Resume-equivalence schedule: four total rounds, interrupted after two.
// The cut sits past round 0 so both the cold path (no global knowledge) and
// the warm path (prototypes/global state present, optimizer moments hot)
// land on each side of the checkpoint.
const (
	resumeTotalRounds = 4
	resumeCutRound    = 2
)

func marshalHistory(t *testing.T, hist *History) []byte {
	t.Helper()
	got, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// TestResumeEquivalenceGoldens proves the run-state contract for all nine
// algorithm variants: running resumeTotalRounds straight and running
// resumeCutRound, checkpointing, discarding the instance, rebuilding from
// config, resuming, and running the remainder produce byte-identical
// serialized histories — accuracy trajectories and cumulative ledger MB,
// which encodes the exact byte accounting. The straight history is also
// pinned as a golden under testdata/goldens/resume/ (refresh with
// -update-goldens).
func TestResumeEquivalenceGoldens(t *testing.T) {
	env := goldenEnv(t)
	for name, build := range goldenAlgos(env) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			straight, err := build()
			if err != nil {
				t.Fatal(err)
			}
			straightHist, err := straight.Run(resumeTotalRounds)
			if err != nil {
				t.Fatal(err)
			}
			straightJSON := marshalHistory(t, straightHist)

			// Interrupted run: the first instance dies after the checkpoint;
			// the resumed instance is rebuilt from scratch.
			first, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.Run(resumeCutRound); err != nil {
				t.Fatal(err)
			}
			ckptPath, err := SaveCheckpoint(first, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Configure(resumed, RunSpec{Resume: ckptPath}); err != nil {
				t.Fatal(err)
			}
			if done, _ := CompletedRounds(resumed); done != resumeCutRound {
				t.Fatalf("resumed at round %d, want %d", done, resumeCutRound)
			}
			resumedHist, err := RunAlgorithmUntil(resumed, resumeTotalRounds)
			if err != nil {
				t.Fatal(err)
			}
			resumedJSON := marshalHistory(t, resumedHist)

			if string(straightJSON) != string(resumedJSON) {
				t.Errorf("resumed history diverged from straight run:\nstraight: %s\nresumed: %s",
					straightJSON, resumedJSON)
			}

			path := filepath.Join("testdata", "goldens", "resume", name+".json")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, straightJSON, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestResumeEquivalenceGoldens -update-goldens): %v", err)
			}
			if string(straightJSON) != string(want) {
				t.Errorf("history diverged from golden %s:\n got: %s\nwant: %s", path, straightJSON, want)
			}
		})
	}
}

// TestResumeFallsBackPastCorruptCheckpoint is the end-to-end corruption
// recovery contract: when the newest checkpoint in a -checkpoint-dir is
// truncated or bit-flipped, resuming from the directory rejects it with a
// warning, falls back to the newest valid one, and the finished run is still
// byte-identical to an uninterrupted one.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	env := goldenEnv(t)
	build := goldenAlgos(env)["fedavg"]

	straight, err := build()
	if err != nil {
		t.Fatal(err)
	}
	straightHist, err := straight.Run(resumeTotalRounds)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Configure(first, RunSpec{CheckpointDir: dir, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(resumeCutRound); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint (round 2): truncate it mid-file.
	newest := filepath.Join(dir, "ckpt-000002.fpkc")
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := build()
	if err != nil {
		t.Fatal(err)
	}
	warnings, err := Configure(resumed, RunSpec{Resume: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) == 0 {
		t.Error("corrupt newest checkpoint produced no warning")
	}
	if done, _ := CompletedRounds(resumed); done != 1 {
		t.Fatalf("fell back to round %d, want 1 (the newest valid checkpoint)", done)
	}
	resumedHist, err := RunAlgorithmUntil(resumed, resumeTotalRounds)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalHistory(t, resumedHist)) != string(marshalHistory(t, straightHist)) {
		t.Errorf("post-fallback history diverged:\nstraight: %+v\nresumed: %+v", straightHist, resumedHist)
	}
}

// TestDistributedResumeMatchesStraight restarts an interrupted distributed
// run from a server-side checkpoint: the restored hooks re-seed every client
// worker, and the remaining rounds over the transport produce the same
// history an uninterrupted distributed run does.
func TestDistributedResumeMatchesStraight(t *testing.T) {
	env := goldenEnv(t)
	build := goldenAlgos(env)["fedmd"]

	straight, err := build()
	if err != nil {
		t.Fatal(err)
	}
	straightHist, err := RunDistributed(straight, resumeTotalRounds, DistributedOptions{})
	if err != nil {
		t.Fatal(err)
	}

	first, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDistributed(first, resumeCutRound, DistributedOptions{}); err != nil {
		t.Fatal(err)
	}
	ckptPath, err := SaveCheckpoint(first, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Configure(resumed, RunSpec{Resume: ckptPath}); err != nil {
		t.Fatal(err)
	}
	done, err := CompletedRounds(resumed)
	if err != nil {
		t.Fatal(err)
	}
	resumedHist, err := RunDistributed(resumed, resumeTotalRounds-done, DistributedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalHistory(t, resumedHist)) != string(marshalHistory(t, straightHist)) {
		t.Errorf("distributed resume diverged:\nstraight: %+v\nresumed: %+v", straightHist, resumedHist)
	}
}
