package distrib

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"fedpkd/internal/baselines"
	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// paramsAlgos builds the three algorithms whose uploads carry a params
// vector, each on the distribEnv fleet.
func paramsAlgos(t *testing.T, env *fl.Env) map[string]func() fl.Algorithm {
	common := engine.Config{Env: env, Seed: 9}
	must := func(a fl.Algorithm, err error) fl.Algorithm {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return map[string]func() fl.Algorithm{
		"FedAvg": func() fl.Algorithm {
			return must(baselines.NewFedAvg(baselines.FedAvgConfig{Common: common, LocalEpochs: 1}))
		},
		"FedProx": func() fl.Algorithm {
			return must(baselines.NewFedProx(baselines.FedAvgConfig{Common: common, LocalEpochs: 1}))
		},
		"FedDF": func() fl.Algorithm {
			return must(baselines.NewFedDF(baselines.FedDFConfig{Common: common, LocalEpochs: 1, ServerEpochs: 1}))
		},
	}
}

// configured sets codec c (and async flushes when async) on a fresh algo.
func configured(t *testing.T, build func() fl.Algorithm, c comm.Codec, async bool) fl.Algorithm {
	t.Helper()
	a := build()
	r, err := engine.Of(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetCodec(c); err != nil {
		t.Fatal(err)
	}
	if async {
		if err := r.SetAsync(asyncTestOpts()); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestRunMatchesInProcessParams runs every path a params vector takes from
// the transport's vector list — the client's decoded global and its
// flattened upload, the server's, a leaf's and the root's decoded uploads, a
// leaf's delta references — and returns to it, for FedAvg, FedProx and
// FedDF: bus and TCP, flat and a 2-shard tree, float64raw and int8, and
// FedAvg's async flushes. Each run must follow its in-process twin's
// accuracies exactly. Built with -tags poisonrelease, a vector released while
// still read turns to NaNs and moves them.
func TestRunMatchesInProcessParams(t *testing.T) {
	env := distribEnv(t)
	const rounds = 2
	shapes := []struct {
		mode   Mode
		shards int
	}{{ModeBus, 0}, {ModeBus, 2}, {ModeTCP, 0}, {ModeTCP, 2}}
	for name, build := range paramsAlgos(t, env) {
		for _, c := range []comm.Codec{comm.CodecFloat64, comm.CodecInt8} {
			inproc, err := configured(t, build, c, false).Run(rounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%s/%s/%s/shards%d", name, c, sh.mode, sh.shards), func(t *testing.T) {
					d, err := Run(configured(t, build, c, false), rounds, Options{Mode: sh.mode, Topology: Topology{Shards: sh.shards}})
					if err != nil {
						t.Fatal(err)
					}
					requireSameAccuracies(t, d, inproc)
				})
			}
		}
	}
	fedAvg := paramsAlgos(t, env)["FedAvg"]
	inproc, err := configured(t, fedAvg, comm.CodecInt8, true).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes[:2] {
		t.Run(fmt.Sprintf("FedAvg/async/int8/shards%d", sh.shards), func(t *testing.T) {
			d, err := Run(configured(t, fedAvg, comm.CodecInt8, true), 3, Options{Mode: sh.mode, Topology: Topology{Shards: sh.shards}})
			if err != nil {
				t.Fatal(err)
			}
			requireSameAccuracies(t, d, inproc)
			requireSameFlushes(t, d, inproc)
		})
	}
}

// TestFedAvgTCPRoundVectorAllocs is the allocation gate on a FedAvg round's
// params vectors. Each client round decodes the global and flattens its
// upload, and the server decodes every upload: three model-sized vectors
// per client, nine a round here. With the vector list every one of them is
// reused once the run is warm, and Aggregate averages into the spare global
// it swaps with the current one, so a steady-state round — training, wire
// and aggregation — must allocate less than one vector's worth (0.08–0.17
// measured: now and then a list that a read-ahead left empty, since the
// training loops take their workspaces from the scratch arena; ten without
// the list, 1.5–1.8 with a new global per round). A missed ReleaseVector on any of the three paths
// costs three vectors a round. Twelve rounds are measured, so one such miss
// moves the mean by a twelfth of a vector.
func TestFedAvgTCPRoundVectorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := distribEnv(t)
	algo := chaosFedAvg(t, env)
	r, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	vector := 8 * len(r.Hooks().GlobalState(0).Params)
	s, err := NewService(algo, Options{Mode: ModeTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A collection empties sync.Pool, and with it the training scratch arena,
	// whose refill would count here: hold collections off for the test.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := s.Run(2); err != nil { // warm-up: the lists fill
		t.Fatal(err)
	}
	const rounds = 12
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("%.2f vectors of %d bytes allocated per round", perRound/float64(vector), vector)
	if perRound >= float64(vector) {
		t.Errorf("a steady-state round allocates %.0f bytes, %.2f vectors of %d bytes; want < 1", perRound, perRound/float64(vector), vector)
	}
}
