package distrib

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"fedpkd/internal/baselines"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// churnTestTrace derives an availability trace usable over an n-client fleet
// for the given round budget: every round keeps at least one client online
// (the engine refuses to aggregate nobody) and at least one round loses
// somebody (otherwise the test measures no churn). Deterministic: the seed
// search is a pure function of (n, rounds).
func churnTestTrace(n, rounds int) *engine.AvailabilityTrace {
	for seed := uint64(1); ; seed++ {
		tr := &engine.AvailabilityTrace{Seed: seed, Period: 3, MinDuty: 0.5, MaxDuty: 0.9}
		sawChurn, usable := false, true
		for t := 0; t < rounds; t++ {
			online := 0
			for c := 0; c < n; c++ {
				if tr.Online(c, t) {
					online++
				}
			}
			if online == 0 {
				usable = false
				break
			}
			if online < n {
				sawChurn = true
			}
		}
		if usable && sawChurn {
			return tr
		}
	}
}

// churnCohorts extracts the per-round churn records a recorder captured.
func churnCohorts(t *testing.T, rec *obs.Recorder) []obs.Churn {
	t.Helper()
	var out []obs.Churn
	for _, tr := range rec.Traces() {
		if tr.Churn == nil {
			t.Fatalf("round %d has no churn record; availability runs must trace their cohorts", tr.Round)
		}
		out = append(out, *tr.Churn)
	}
	return out
}

// TestChurnSameSeedReplayOverBus is the churn determinism gate (wire half):
// the same seed and the same availability trace must produce byte-identical
// histories, identical ledger totals, and identical per-round cohorts across
// two independent distributed runs. scripts/check.sh runs it under -race.
func TestChurnSameSeedReplayOverBus(t *testing.T) {
	const rounds = 3
	run := func() ([]byte, int64, []obs.Churn) {
		env := chaosEnv(t)
		algo := chaosFedAvg(t, env)
		runner, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.SetAvailability(churnTestTrace(3, rounds)); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder("fedavg")
		hist, err := Run(algo, rounds, Options{Mode: ModeBus, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		return j, runner.Ledger().TotalBytes(), churnCohorts(t, rec)
	}
	h1, l1, c1 := run()
	h2, l2, c2 := run()
	if string(h1) != string(h2) {
		t.Fatalf("same-seed churn runs diverged:\n%s\nvs\n%s", h1, h2)
	}
	if l1 != l2 {
		t.Fatalf("ledger totals diverged: %d vs %d", l1, l2)
	}
	sawPartial := false
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("round %d cohorts diverged: %+v vs %+v", i, c1[i], c2[i])
		}
		if c1[i].Cohort < c1[i].Registered {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("trace produced no partial cohort; the test measured no churn")
	}
}

// TestChurnSameSeedReplayInProcess is the in-process half of the gate: the
// engine's own round loop under the same trace replays identically too.
func TestChurnSameSeedReplayInProcess(t *testing.T) {
	const rounds = 3
	run := func() ([]byte, []obs.Churn) {
		env := chaosEnv(t)
		algo := chaosFedAvg(t, env)
		runner, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.SetAvailability(churnTestTrace(3, rounds)); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder("fedavg")
		runner.SetRecorder(rec)
		hist, err := algo.Run(rounds)
		if err != nil {
			t.Fatal(err)
		}
		rec.Finish()
		j, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		return j, churnCohorts(t, rec)
	}
	h1, c1 := run()
	h2, c2 := run()
	if string(h1) != string(h2) {
		t.Fatalf("same-seed in-process churn runs diverged:\n%s\nvs\n%s", h1, h2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("round %d cohorts diverged: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

// TestServiceLeaveMidRun pins the deregister-mid-round path: a goodbye sent
// while a round is collecting lands in the registry at the next barrier, the
// remaining rounds run with the smaller cohort, and the final status
// reflects the departure.
func TestServiceLeaveMidRun(t *testing.T) {
	env := chaosEnv(t)
	algo := chaosFedAvg(t, env)
	var svc *Service
	svc, err := NewService(algo, Options{
		Mode: ModeBus,
		Barrier: func(round int) error {
			if round == 1 {
				// The goodbye travels client 2's own connection and is queued
				// during round 1's collect; round 2 runs without it.
				return svc.sendRegistration(2, transport.KindGoodbye)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hist, err := svc.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Rounds); got != 3 {
		t.Fatalf("completed %d rounds, want 3", got)
	}
	if svc.reg.Has(2) {
		t.Fatal("client 2 still registered after goodbye")
	}
	if st := svc.Status(); st.Registered != 2 {
		t.Fatalf("final status registered = %d, want 2", st.Registered)
	}
}

// TestServiceJoinDuringAsyncFlush pins mid-run registration under async
// flushes: a client outside the initial population hellos during flush 1 and
// the planner includes it from flush 2 on.
func TestServiceJoinDuringAsyncFlush(t *testing.T) {
	env := chaosEnv(t)
	algo := chaosFedAvg(t, env)
	runner, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.SetAsync(engine.AsyncOptions{
		BufferSize: 3, StalenessAlpha: 0.5, Schedule: engine.ArrivalSchedule{Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("fedavg")
	var svc *Service
	svc, err = NewService(algo, Options{
		Mode:       ModeBus,
		Recorder:   rec,
		Population: []int{0, 1},
		Barrier: func(flush int) error {
			if flush == 1 {
				return svc.Join(2)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hist, err := svc.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hist.Flushes); got != 4 {
		t.Fatalf("completed %d flushes, want 4", got)
	}
	if st := svc.Status(); st.Registered != 3 {
		t.Fatalf("final status registered = %d, want 3", st.Registered)
	}
	cohorts := churnCohorts(t, rec)
	want := []int{2, 2, 3, 3} // hello lands during flush 1, applies at flush 2's barrier
	for i, c := range cohorts {
		if c.Cohort != want[i] {
			t.Fatalf("flush cohorts = %+v, want %v", cohorts, want)
		}
	}
}

// TestServicePopulationBelowQuorumFailsFast pins the quorum satellite: a
// registered population smaller than MinQuorum surfaces ErrQuorumNotMet
// before any round opens, instead of hanging on a fan-out that can never
// complete.
func TestServicePopulationBelowQuorumFailsFast(t *testing.T) {
	env := chaosEnv(t)
	algo := chaosFedAvg(t, env)
	_, err := Run(algo, 2, Options{Mode: ModeBus, Population: []int{0}, MinQuorum: 2})
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("err = %v, want ErrQuorumNotMet", err)
	}
}

// TestAsyncPreRoundQuorumAbortKeepsCountersInStep pins the ordering the one
// round loop gives both modes: a flush is planned and quorum-checked before
// the round begins, so a pre-round ErrQuorumNotMet leaves the round counter,
// the history and the ledger agreeing on how many flushes ran.
func TestAsyncPreRoundQuorumAbortKeepsCountersInStep(t *testing.T) {
	algo := chaosFedAvg(t, chaosEnv(t))
	runner, err := engine.Of(algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.SetAsync(engine.AsyncOptions{
		BufferSize: 2, StalenessAlpha: 0.5, Schedule: engine.ArrivalSchedule{Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	var svc *Service
	svc, err = NewService(algo, Options{
		Population: []int{0, 1},
		MinQuorum:  2,
		Barrier: func(flush int) error {
			if flush == 1 {
				// Queued during flush 1's collect, applied at flush 2's barrier:
				// flush 2 then plans a single contributor.
				return svc.sendRegistration(1, transport.KindGoodbye)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Run(4); !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("err = %v, want ErrQuorumNotMet", err)
	}
	done, inHistory, inLedger := runner.CurrentRound(), len(runner.History().Rounds), len(runner.Ledger().Rounds())
	if done != 2 || inHistory != 2 || inLedger != 2 {
		t.Fatalf("after the abort: CurrentRound=%d history rounds=%d ledger rounds=%d, want 2 each", done, inHistory, inLedger)
	}
}

// TestServiceRefusesParticipationKnobs: the in-process participation knobs
// have no distributed meaning — the cohort shrinks through the failure model —
// so NewService refuses them by name instead of silently running everyone.
func TestServiceRefusesParticipationKnobs(t *testing.T) {
	env := chaosEnv(t)
	for knob, cfg := range map[string]engine.Config{
		"ClientFraction": {Env: env, Seed: 9, ClientFraction: 0.5},
		"ClientDropProb": {Env: env, Seed: 9, ClientDropProb: 0.2},
	} {
		algo, err := baselines.NewFedAvg(baselines.FedAvgConfig{Common: cfg, LocalEpochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(algo, Options{Mode: ModeBus})
		if err == nil {
			svc.Close()
			t.Errorf("%s accepted by a distributed service", knob)
		} else if !strings.Contains(err.Error(), knob) {
			t.Errorf("%s refused with %q, which does not name it", knob, err)
		}
	}
}
