package fedpkd

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fedpkd/internal/baselines"
)

// updateGoldens regenerates testdata/goldens/*.json from the current
// implementation. The committed goldens were captured from the pre-engine
// (per-algorithm Run/Round loop) implementation, so a passing run of
// TestGoldenHistories proves the unified round engine is a behavior-
// preserving refactor: every algorithm's accuracy trajectory and ledger
// byte accounting is bit-identical to the seed implementation.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens from the current implementation")

// goldenEnv is the fixed environment every golden run shares. Generation is
// seed-driven and read-only during runs, so one environment serves all
// algorithms.
func goldenEnv(t *testing.T) *Env {
	t.Helper()
	spec := SynthC10(11)
	spec.Noise = 0.6
	env, err := NewEnvironment(EnvConfig{
		Spec:       spec,
		NumClients: 3,
		TrainSize:  360, TestSize: 200, PublicSize: 120, LocalTestSize: 40,
		Partition: PartitionConfig{Kind: PartitionDirichlet, Alpha: 0.5},
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// goldenAlgos builds every algorithm variant at a fast fixed-seed schedule.
// Keyed by file name; order does not matter (each run is independent).
func goldenAlgos(env *Env) map[string]func() (Algorithm, error) {
	common := baselines.CommonConfig{Env: env, Seed: 5}
	return map[string]func() (Algorithm, error){
		"fedpkd": func() (Algorithm, error) {
			return NewFedPKD(Config{
				Env: env, ClientPrivateEpochs: 3, ClientPublicEpochs: 2, ServerEpochs: 4, Seed: 5,
			})
		},
		"fedavg": func() (Algorithm, error) {
			return baselines.NewFedAvg(baselines.FedAvgConfig{Common: common, LocalEpochs: 2})
		},
		"fedprox": func() (Algorithm, error) {
			return baselines.NewFedProx(baselines.FedAvgConfig{Common: common, LocalEpochs: 2})
		},
		"fedmd": func() (Algorithm, error) {
			return baselines.NewFedMD(baselines.FedMDConfig{Common: common, LocalEpochs: 2, DistillEpochs: 2})
		},
		"dsfl": func() (Algorithm, error) {
			return baselines.NewDSFL(baselines.FedMDConfig{Common: common, LocalEpochs: 2, DistillEpochs: 2})
		},
		"feddf": func() (Algorithm, error) {
			return baselines.NewFedDF(baselines.FedDFConfig{Common: common, LocalEpochs: 2, ServerEpochs: 2})
		},
		"fedet": func() (Algorithm, error) {
			return baselines.NewFedET(baselines.FedETConfig{Common: common, LocalEpochs: 2, ServerEpochs: 2})
		},
		"fedproto": func() (Algorithm, error) {
			return baselines.NewFedProto(baselines.FedProtoConfig{Common: common, LocalEpochs: 2})
		},
		"vanillakd": func() (Algorithm, error) {
			return baselines.NewVanillaKD(baselines.VanillaKDConfig{Common: common, LocalEpochs: 2, ServerEpochs: 2})
		},
	}
}

// goldenRounds is the schedule length: two rounds exercise both the cold
// (round 0, no global knowledge) and warm (round 1, prototypes/global state
// present) paths of every algorithm.
const goldenRounds = 2

// TestGoldenHistories runs each algorithm at a fixed seed and compares its
// serialized history — accuracy trajectory and cumulative ledger MB, which
// encodes the exact byte accounting — byte-for-byte against the committed
// golden. Run with -update-goldens to re-capture.
func TestGoldenHistories(t *testing.T) {
	env := goldenEnv(t)
	for name, build := range goldenAlgos(env) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			algo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			hist, err := algo.Run(goldenRounds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(hist, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "goldens", name+".json")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestGoldenHistories -update-goldens): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("history diverged from golden %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}

// TestGoldenHistoriesExplicitFloat64Codec re-runs all nine algorithms with
// the wire codec explicitly pinned to float64raw and compares against the
// same goldens: selecting the default codec by name must be
// indistinguishable — byte-for-byte, ledger accounting included — from never
// touching the codec API at all.
func TestGoldenHistoriesExplicitFloat64Codec(t *testing.T) {
	env := goldenEnv(t)
	for name, build := range goldenAlgos(env) {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			algo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Configure(algo, RunSpec{Codec: "float64raw"}); err != nil {
				t.Fatal(err)
			}
			hist, err := algo.Run(goldenRounds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(hist, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(filepath.Join("testdata", "goldens", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("explicit float64raw codec diverged from golden for %s:\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}

// TestGoldenFedPKDInt8 pins the quantized trajectory: FedPKD under the int8
// wire codec at the golden seed, history and compressed-ledger totals
// byte-for-byte. This is the regression fence for the codec's numerics —
// any change to the quantization grid, the delta coding, or the pricing
// formulas moves this golden.
func TestGoldenFedPKDInt8(t *testing.T) {
	env := goldenEnv(t)
	algo, err := NewFedPKD(Config{
		Env: env, ClientPrivateEpochs: 3, ClientPublicEpochs: 2, ServerEpochs: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Configure(algo, RunSpec{Codec: "int8"}); err != nil {
		t.Fatal(err)
	}
	hist, err := algo.Run(goldenRounds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "goldens", "fedpkd_int8.json")
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestGoldenFedPKDInt8 -update-goldens): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("int8 history diverged from golden:\n got: %s\nwant: %s", got, want)
	}
}
