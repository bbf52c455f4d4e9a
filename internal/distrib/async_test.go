package distrib

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"fedpkd/internal/core"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// asyncTestOpts is the async configuration every transport-equivalence test
// shares: a 2-deep buffer over the 3-client distribEnv fleet, with one
// straggler-weighted arrival schedule.
func asyncTestOpts() engine.AsyncOptions {
	return engine.AsyncOptions{
		BufferSize:     2,
		StalenessAlpha: 0.5,
		Schedule:       engine.ArrivalSchedule{Seed: 13, StragglerFrac: 0.34},
	}
}

func asyncFedPKD(t *testing.T) fl.Algorithm {
	t.Helper()
	env := distribEnv(t)
	f, err := core.New(distribConfig(env))
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.Of(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetAsync(asyncTestOpts()); err != nil {
		t.Fatal(err)
	}
	return f
}

// requireSameFlushes asserts two async histories recorded the identical
// flush schedule: contributors, staleness, and logical clock per flush.
func requireSameFlushes(t *testing.T, a, b *fl.History) {
	t.Helper()
	ja, _ := json.Marshal(a.Flushes)
	jb, _ := json.Marshal(b.Flushes)
	if string(ja) != string(jb) {
		t.Errorf("flush schedules differ:\n%s\nvs\n%s", ja, jb)
	}
}

func TestAsyncRunMatchesInProcess(t *testing.T) {
	const flushes = 3
	inAlgo := asyncFedPKD(t)
	inproc, err := inAlgo.Run(flushes)
	if err != nil {
		t.Fatal(err)
	}
	if len(inproc.Flushes) != flushes {
		t.Fatalf("in-process flush records = %d, want %d", len(inproc.Flushes), flushes)
	}
	for _, mode := range []Mode{ModeBus, ModeTCP} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			d, err := Run(asyncFedPKD(t), flushes, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			requireSameAccuracies(t, d, inproc)
			requireSameFlushes(t, d, inproc)
		})
	}
}

func TestAsyncDeterministicReplayOverBus(t *testing.T) {
	run := func() (*fl.History, int64) {
		algo := asyncFedPKD(t)
		hist, err := Run(algo, 3, Options{Mode: ModeBus})
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		return hist, r.Ledger().TotalBytes()
	}
	h1, l1 := run()
	h2, l2 := run()
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed async bus runs diverged:\n%s\nvs\n%s", j1, j2)
	}
	if l1 != l2 {
		t.Fatalf("ledger totals diverged: %d vs %d", l1, l2)
	}
	if h1.FinalClock() == 0 {
		t.Error("no logical clock recorded")
	}
}

// TestAsyncChaosDeterministicPartialFlushes is the async acceptance scenario
// under the failure model: crashes hit chosen contributors, the flush
// completes degraded (the engine reschedules the crashed client's arrival),
// and the same seed replays the same history — degraded flushes included.
func TestAsyncChaosDeterministicPartialFlushes(t *testing.T) {
	plan := &faults.Plan{Seed: 41, CrashProb: 0.4}
	const flushes = 4
	run := func() *fl.History {
		env := chaosEnv(t)
		algo := chaosFedAvg(t, env)
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetAsync(asyncTestOpts()); err != nil {
			t.Fatal(err)
		}
		hist, _, err := runFaults(t, algo, flushes, Options{
			Mode:          ModeBus,
			ClientTimeout: chaosTimeout,
			Faults:        plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	h1 := run()
	if len(h1.Flushes) != flushes {
		t.Fatalf("flush records = %d, want %d (chaos must not abort the run)", len(h1.Flushes), flushes)
	}
	if h1.DegradedCount() == 0 {
		t.Fatal("no degraded flushes recorded; this plan+seed is known to crash chosen clients")
	}
	for _, f := range h1.Flushes {
		if len(f.Contributors) > 2 {
			t.Fatalf("flush %d aggregated %d contributors, buffer is 2", f.Flush, len(f.Contributors))
		}
	}
	h2 := run()
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed async chaos runs diverged:\n%s\nvs\n%s", j1, j2)
	}
}

// TestAsyncTreeFloat64RawShipsNoRef pins the one delta-reference rule on the
// tier: under float64raw nothing is delta-coded, so a flush's ClientStarts no
// longer ship each member's whole model to its leaf as an unused Ref. The
// history is byte-identical to the flat run's and to the parent commit's
// (which shipped the Ref); only the root→leaf backhaul shrinks.
func TestAsyncTreeFloat64RawShipsNoRef(t *testing.T) {
	const (
		parentHistorySHA = "4abeff45538bab2a831c086fb445aedbc16fe9057d6d58c0e2d9325ea33b7cc4"
		parentTierDown   = 1683636 // bytes, 3 flushes
	)
	run := func(shards int) (string, int64) {
		algo := chaosFedAvg(t, chaosEnv(t))
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetAsync(asyncTestOpts()); err != nil {
			t.Fatal(err)
		}
		hist, err := Run(algo, 3, Options{Mode: ModeBus, Topology: Topology{Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		var down int64
		for _, rt := range r.Ledger().Rounds() {
			down += rt.TierDown
		}
		return fmt.Sprintf("%x", sha256.Sum256(j)), down
	}
	flat, _ := run(0)
	tree, down := run(2)
	if tree != flat || tree != parentHistorySHA {
		t.Fatalf("history sha256: tree %s, flat %s, parent %s", tree, flat, parentHistorySHA)
	}
	if down <= 0 || down >= parentTierDown {
		t.Fatalf("tier-down bytes %d, want fewer than the parent's %d", down, parentTierDown)
	}
	t.Logf("tier-down bytes: parent %d, now %d", parentTierDown, down)
}
