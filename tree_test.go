package fedpkd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedpkd/internal/fl/engine"
)

// treeRunResult is one distributed run's observable surface: the serialized
// history plus the ledger's totals, split into the client plane (what
// History's cumulative MB reports) and the aggregator-tree backhaul.
type treeRunResult struct {
	histJSON   []byte
	totalBytes int64
	tierUp     int64
	tierDown   int64
}

// treeRun executes one golden algorithm over the distributed runtime with
// the given topology and collects the equivalence surface.
func treeRun(t *testing.T, name string, mode DistributedMode, topo Topology) treeRunResult {
	t.Helper()
	env := goldenEnv(t)
	algo, err := goldenAlgos(env)[name]()
	if err != nil {
		t.Fatal(err)
	}
	hist, err := RunDistributed(algo, goldenRounds, DistributedOptions{
		Mode: mode, Topology: topo,
	})
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
	res := treeRunResult{histJSON: j, totalBytes: r.Ledger().TotalBytes()}
	for _, rt := range r.Ledger().Rounds() {
		res.tierUp += rt.TierUp
		res.tierDown += rt.TierDown
	}
	return res
}

// TestTreeMatchesFlat is the tree-reduce ≡ flat-Aggregate equivalence suite:
// every algorithm, run through a depth-2 aggregator tree, must produce a
// byte-identical history and identical client-plane ledger totals to the
// flat single-server run at equal config. The tree may add only the
// separately-billed tier columns (which must be nonzero — a tree that moves
// no tier traffic is not a tree). scripts/check.sh runs this suite under
// -race, so the fan-in pumps, the leaf workers, and the root collect are
// also checked for data races.
func TestTreeMatchesFlat(t *testing.T) {
	for name := range goldenAlgos(goldenEnv(t)) {
		name := name
		t.Run(name, func(t *testing.T) {
			flat := treeRun(t, name, ModeBus, Topology{})
			if flat.tierUp != 0 || flat.tierDown != 0 {
				t.Fatalf("flat run billed tier traffic (up %d, down %d)", flat.tierUp, flat.tierDown)
			}
			modes := []DistributedMode{ModeBus}
			if name == "fedpkd" || name == "fedavg" {
				modes = append(modes, ModeTCP)
			}
			for _, mode := range modes {
				tree := treeRun(t, name, mode, Topology{Shards: 2})
				if string(tree.histJSON) != string(flat.histJSON) {
					t.Errorf("%s tree history diverged from flat:\n got: %s\nwant: %s", mode, tree.histJSON, flat.histJSON)
				}
				if tree.totalBytes != flat.totalBytes {
					t.Errorf("%s tree client-plane ledger %d != flat %d", mode, tree.totalBytes, flat.totalBytes)
				}
				if tree.tierUp == 0 || tree.tierDown == 0 {
					t.Errorf("%s tree billed no tier traffic (up %d, down %d)", mode, tree.tierUp, tree.tierDown)
				}
			}
		})
	}
}

// TestTreeCompactFedAvgTolerance pins the tree's one reduction where
// staleness weighting runs at the root: FedAvg with async flushes through a
// 2-shard tree, on bus and TCP, must reproduce the flat async run's history
// byte for byte — no tolerance. (The id predates the removal of the compact
// fold, which refused async runs and matched flat only to 1e-9.)
func TestTreeCompactFedAvgTolerance(t *testing.T) {
	run := func(mode DistributedMode, topo Topology) []byte {
		t.Helper()
		algo, err := goldenAlgos(goldenEnv(t))["fedavg"]()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Configure(algo, RunSpec{Async: asyncGoldenOpts()}); err != nil {
			t.Fatal(err)
		}
		hist, err := RunDistributed(algo, asyncGoldenFlushes, DistributedOptions{Mode: mode, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	flat := run(ModeBus, Topology{})
	for _, mode := range []DistributedMode{ModeBus, ModeTCP} {
		if tree := run(mode, Topology{Shards: 2}); string(tree) != string(flat) {
			t.Errorf("%s async tree history diverged from flat:\n got: %s\nwant: %s", mode, tree, flat)
		}
	}
}

// TestTopologyValidation pins the topology option's rejection surface: every
// invalid shape must fail service construction with a diagnostic naming the
// constraint, before any goroutine spawns.
func TestTopologyValidation(t *testing.T) {
	env := goldenEnv(t)
	builds := goldenAlgos(env)
	cases := []struct {
		name    string
		algo    string
		opts    DistributedOptions
		wantSub string
	}{
		{"more shards than clients", "fedavg",
			DistributedOptions{Topology: Topology{Shards: 4}}, "non-empty id range"},
		{"negative shards", "fedavg",
			DistributedOptions{Topology: Topology{Shards: -1}}, "negative shard count"},
		{"tree with wire registration", "fedavg",
			DistributedOptions{Topology: Topology{Shards: 2}, WireRegistration: true}, "awaits every hello in one inbox"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			algo, err := builds[tc.algo]()
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunDistributed(algo, goldenRounds, tc.opts)
			if err == nil {
				t.Fatalf("invalid topology accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the constraint (%q)", err, tc.wantSub)
			}
		})
	}
}

// asyncChurnTreeGolden is the combined-feature golden's content: the full
// history plus the per-tier ledger totals, so a regression in either the
// trajectory or the tree's backhaul accounting moves the file.
type asyncChurnTreeGolden struct {
	TierUpBytes   int64           `json:"tier_up_bytes"`
	TierDownBytes int64           `json:"tier_down_bytes"`
	History       json.RawMessage `json:"history"`
}

// runAsyncChurnTree executes the combined configuration: FedPKD with
// barrier-free async flushes, a diurnal availability trace, and a depth-2
// aggregator tree, over the bus transport.
func runAsyncChurnTree(t *testing.T) asyncChurnTreeGolden {
	t.Helper()
	env := goldenEnv(t)
	algo, err := goldenAlgos(env)["fedpkd"]()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := engine.ParseAvailability("period=3,min=0.5,max=0.9,seed=9", 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Async:        asyncGoldenOpts(),
		Availability: trace,
		Distrib:      DistributedOptions{Mode: ModeBus, Topology: Topology{Shards: 2}},
	}
	if _, err := Configure(algo, spec); err != nil {
		t.Fatal(err)
	}
	hist, err := RunDistributed(algo, asyncGoldenFlushes, spec.Distrib)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	g := asyncChurnTreeGolden{History: j}
	for _, rt := range r.Ledger().Rounds() {
		g.TierUpBytes += rt.TierUp
		g.TierDownBytes += rt.TierDown
	}
	return g
}

// TestGoldenAsyncChurnTree pins the full feature stack composed: async
// flushes + availability churn + tree reduction at one seed must replay to a
// byte-identical history AND identical per-tier ledger totals, captured in
// testdata/goldens/async_churn_tree.json. Run with -update-goldens to
// re-capture.
func TestGoldenAsyncChurnTree(t *testing.T) {
	g := runAsyncChurnTree(t)
	if g.TierUpBytes == 0 || g.TierDownBytes == 0 {
		t.Fatalf("combined run billed no tier traffic (up %d, down %d)", g.TierUpBytes, g.TierDownBytes)
	}

	// Replay identity before touching the golden: same seed, same bytes.
	replay := runAsyncChurnTree(t)
	gotJSON, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	replayJSON, err := json.MarshalIndent(replay, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	replayJSON = append(replayJSON, '\n')
	if string(gotJSON) != string(replayJSON) {
		t.Fatalf("same-seed async+churn+tree replay diverged:\n%s\nvs\n%s", gotJSON, replayJSON)
	}

	path := filepath.Join("testdata", "goldens", "async_churn_tree.json")
	if *updateGoldens {
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestGoldenAsyncChurnTree -update-goldens): %v", err)
	}
	if string(gotJSON) != string(want) {
		t.Errorf("async+churn+tree run diverged from golden %s:\n got: %s\nwant: %s", path, gotJSON, want)
	}
}
