package fedpkd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/core"
	"fedpkd/internal/fl/engine"
)

// ckptGoldenRounds is the schedule of the checkpoint-bytes golden: the policy
// writes a file after every round, and the files after rounds 2 and 3 are
// pinned, so each configuration's golden covers a warm checkpoint (global
// state present, optimizer moments hot) and the one that follows it.
const ckptGoldenRounds = 3

// ckptGoldenRuns builds every configuration whose checkpoint bytes are pinned:
// the nine golden algorithms in-process, FedPKD and FedAvg in async mode, and
// FedPKD over the bus through a two-shard aggregator tree under the int8
// codec. Each run arms a checkpoint every round into dir and plays
// ckptGoldenRounds rounds.
func ckptGoldenRuns(env *Env) map[string]func(t *testing.T, dir string) {
	builds := goldenAlgos(env)
	inProcess := func(name string, spec RunSpec) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			algo, err := builds[name]()
			if err != nil {
				t.Fatal(err)
			}
			spec.CheckpointDir, spec.CheckpointEvery = dir, 1
			if _, err := Configure(algo, spec); err != nil {
				t.Fatal(err)
			}
			if _, err := algo.Run(ckptGoldenRounds); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs := make(map[string]func(t *testing.T, dir string))
	for name := range builds {
		runs[name] = inProcess(name, RunSpec{})
	}
	runs["fedpkd_async"] = inProcess("fedpkd", RunSpec{Async: asyncGoldenOpts()})
	runs["fedavg_async"] = inProcess("fedavg", RunSpec{Async: asyncGoldenOpts()})
	runs["fedpkd_bus_tree_int8"] = func(t *testing.T, dir string) {
		algo, err := builds["fedpkd"]()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Configure(algo, RunSpec{Codec: "int8", CheckpointDir: dir, CheckpointEvery: 1}); err != nil {
			t.Fatal(err)
		}
		opts := DistributedOptions{Mode: ModeBus, Topology: Topology{Shards: 2}}
		if _, err := RunDistributed(algo, ckptGoldenRounds, opts); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

// TestCheckpointBytesGolden pins the checkpoint file format byte for byte:
// the sha256 of every pinned .fpkc must equal testdata/goldens/ckpt.json
// (refresh with -update-goldens). The histories the other goldens pin prove
// a run computes the same state; this proves it writes that state to the same
// bytes, whatever encodes or writes them.
func TestCheckpointBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Trained weights differ in their last bits between architectures
		// (math.Exp, for one, is assembly on amd64 and pure Go on 386); the
		// accuracies the history goldens pin do not see it, the files do.
		t.Skipf("checkpoint bytes are pinned for amd64, not %s", runtime.GOARCH)
	}
	env := goldenEnv(t)
	got := make(map[string]map[string]string)
	for name, run := range ckptGoldenRuns(env) {
		dir := t.TempDir()
		run(t, dir)
		got[name] = make(map[string]string)
		for round := ckptGoldenRounds - 1; round <= ckptGoldenRounds; round++ {
			file := ckpt.RoundFileName(round)
			b, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(b)
			got[name][file] = hex.EncodeToString(sum[:])
		}
	}
	path := filepath.Join("testdata", "goldens", "ckpt.json")
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestCheckpointBytesGolden -update-goldens): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d configurations checkpointed, golden has %d", len(got), len(want))
	}
	for name, files := range want {
		for file, sum := range files {
			if got[name][file] != sum {
				t.Errorf("%s: %s has sha256 %s, golden %s", name, file, got[name][file], sum)
			}
		}
	}
}

// TestSaveCheckpointSteadyStateAllocs pins the runner's one reused checkpoint
// buffer: once a save has grown it, the next save of a FedPKD runner
// allocates under 64 KiB (the best of three saves), a bound that does not
// grow with the models. Encoding into fresh buffers costs several times the
// file.
func TestSaveCheckpointSteadyStateAllocs(t *testing.T) {
	env := goldenEnv(t)
	for _, archs := range [][2]string{{"ResNet11", "ResNet20"}, {"ResNet29", "ResNet56"}} {
		client, server := archs[0], archs[1]
		algo, err := core.New(core.Config{
			Env: env, ClientArchs: []string{client, client, client}, ServerArch: server,
			ClientPrivateEpochs: 1, ClientPublicEpochs: 1, ServerEpochs: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algo.Run(2); err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path, err := r.SaveCheckpoint(dir) // grows the buffer
		if err != nil {
			t.Fatal(err)
		}
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := r.SaveCheckpoint(dir)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s clients, %s server: a %d-byte checkpoint, %d bytes allocated per save", client, server, info.Size(), least)
		if least >= 64<<10 {
			t.Errorf("%s clients, %s server: a steady-state save of a %d-byte checkpoint allocated %d bytes, want < 64 KiB",
				client, server, info.Size(), least)
		}
	}
}
