package expt

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
)

// specScale is microScale widened until every RunSpec field has something to
// do: three clients so a buffer or a cohort can be smaller than the fleet,
// two rounds so there is a second one.
var specScale = func() Scale {
	sc := microScale
	sc.NumClients, sc.Rounds = 3, 2
	return sc
}()

const specSeed = 11

var specSetting = Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}

func specRunOne(t *testing.T, sc Scale, spec RunSpec) []byte {
	t.Helper()
	hist, err := RunOne(AlgoFedPKD, TaskC10, specSetting, sc, specSeed, false, spec)
	if err != nil {
		t.Error(err)
		return nil
	}
	j, err := json.Marshal(hist)
	if err != nil {
		t.Error(err)
	}
	return j
}

// handRun is RunOne's twin without a RunSpec: the runner is configured by
// calling its setters directly.
func handRun(t *testing.T, configure func(*engine.Runner) error) ([]byte, *engine.Runner) {
	t.Helper()
	env, err := NewEnv(TaskC10, specSetting, specScale, specSeed)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := BuildAlgorithm(AlgoFedPKD, env, specScale, specSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := configure(r); err != nil {
		t.Fatal(err)
	}
	hist, err := r.RunUntil(specScale.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(hist)
	if err != nil {
		t.Fatal(err)
	}
	return j, r
}

func specAsync() *engine.AsyncOptions {
	return &engine.AsyncOptions{StalenessAlpha: 0.7, Schedule: engine.ArrivalSchedule{Seed: specSeed, StragglerFrac: 0.34}}
}

// TestRunOneHonoursSpec drives every RunSpec field RunOne reads through the
// path `fedbench -codec/-async/-availability/-checkpoint-dir` takes.
func TestRunOneHonoursSpec(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		rec := obs.NewRecorder(AlgoFedPKD)
		got := specRunOne(t, specScale, RunSpec{Codec: "int8", Recorder: rec})
		want, hand := handRun(t, func(r *engine.Runner) error { return r.SetCodec(comm.CodecInt8) })
		if !bytes.Equal(got, want) {
			t.Errorf("int8 spec history diverged from a hand-configured runner:\n got: %s\nwant: %s", got, want)
		}
		// The recorder mirrors the spec run's ledger round by round.
		traces, ledger := rec.Traces(), hand.Ledger().Rounds()
		if len(traces) != len(ledger) {
			t.Fatalf("%d traces, %d ledger rounds", len(traces), len(ledger))
		}
		for i, tr := range traces {
			rt := ledger[i]
			if tr.UploadBytes != rt.Upload || tr.DownloadBytes != rt.Download ||
				tr.UploadRawBytes != rt.RawUpload || tr.DownloadRawBytes != rt.RawDownload {
				t.Errorf("round %d: spec run billed %+v, hand-configured ledger %+v", i, tr, rt)
			}
			if tr.UploadRawBytes == 0 || tr.Codec != "int8" {
				t.Errorf("round %d: raw upload column %d under codec %q", i, tr.UploadRawBytes, tr.Codec)
			}
		}
	})

	t.Run("async", func(t *testing.T) {
		spec := RunSpec{Async: specAsync()}
		got := specRunOne(t, specScale, spec)
		var hist fl.History
		if err := json.Unmarshal(got, &hist); err != nil {
			t.Fatal(err)
		}
		if len(hist.Flushes) == 0 {
			t.Error("async spec recorded no flushes")
		}
		if again := specRunOne(t, specScale, spec); !bytes.Equal(got, again) {
			t.Error("the same async spec produced different bytes on a second run")
		}
	})

	t.Run("availability", func(t *testing.T) {
		rec := obs.NewRecorder(AlgoFedPKD)
		tr := churnTrace(specSeed, specScale.NumClients, specScale.Rounds)
		specRunOne(t, specScale, RunSpec{Availability: tr, Recorder: rec})
		short := false
		for _, rt := range rec.Traces() {
			if rt.Churn == nil {
				t.Fatalf("round %d recorded no churn profile", rt.Round)
			}
			short = short || rt.Churn.Cohort < specScale.NumClients
		}
		if !short {
			t.Error("no round ran with a partial cohort")
		}
	})

	t.Run("checkpoint+resume", func(t *testing.T) {
		full := specScale
		full.Rounds = 4
		straight := specRunOne(t, full, RunSpec{})
		spec := RunSpec{CheckpointDir: t.TempDir(), CheckpointEvery: 1}
		specRunOne(t, specScale, spec) // the killed run: two rounds, two checkpoints
		spec.Resume = spec.CheckpointDir
		if resumed := specRunOne(t, full, spec); !bytes.Equal(resumed, straight) {
			t.Errorf("run-2/kill/resume-to-4 diverged from run-4:\nresumed: %s\nstraight: %s", resumed, straight)
		}
		// A sweep resumes the runs that left a checkpoint and starts the
		// others fresh.
		if got := spec.forRun(AlgoFedPKD, TaskC10, specSetting, specSeed, false); got.Resume != got.CheckpointDir {
			t.Errorf("finished run resumes from %q, checkpoints into %q", got.Resume, got.CheckpointDir)
		}
		if got := spec.forRun(AlgoFedAvg, TaskC10, specSetting, specSeed, false); got.Resume != "" {
			t.Errorf("a run with no checkpoint resumes from %q", got.Resume)
		}
	})
}

// TestSpecsRunConcurrently runs two differently configured runs at once. With
// run configuration in package globals this could not be written: the second
// Set* call would have reconfigured the first run. Under -race it is also the
// gate that no such shared state remains.
func TestSpecsRunConcurrently(t *testing.T) {
	specs := []RunSpec{{Codec: "int8"}, {Async: specAsync()}}
	serial := make([][]byte, len(specs))
	for i, spec := range specs {
		serial[i] = specRunOne(t, specScale, spec)
	}
	if bytes.Equal(serial[0], serial[1]) {
		t.Fatal("the two specs produce the same history; the test would prove nothing")
	}
	parallel := make([][]byte, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec RunSpec) {
			defer wg.Done()
			parallel[i] = specRunOne(t, specScale, spec)
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		if !bytes.Equal(parallel[i], serial[i]) {
			t.Errorf("spec %d: concurrent run diverged from its serial twin", i)
		}
	}
}
