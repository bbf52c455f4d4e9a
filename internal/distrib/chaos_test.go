package distrib

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedpkd/internal/baselines"
	"fedpkd/internal/comm"
	"fedpkd/internal/core"
	"fedpkd/internal/dataset"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// chaosEnv is a deliberately small environment: chaos runs burn wall-clock
// on straggler deadlines, so training itself must be cheap enough that a
// generous ClientTimeout never misclassifies a healthy client as a
// straggler (which would break run-to-run determinism).
func chaosEnv(t *testing.T) *fl.Env {
	t.Helper()
	spec := dataset.SynthC10(23)
	spec.Noise = 0.6
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       spec,
		NumClients: 3,
		TrainSize:  90, TestSize: 60, PublicSize: 45, LocalTestSize: 30,
		Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5},
		Seed:      23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func chaosFedAvg(t *testing.T, env *fl.Env) *baselines.FedAvg {
	t.Helper()
	f, err := baselines.NewFedAvg(baselines.FedAvgConfig{
		Common:      engine.Config{Env: env, Seed: 9},
		LocalEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func chaosFedPKD(t *testing.T, env *fl.Env) *core.FedPKD {
	t.Helper()
	f, err := core.New(core.Config{
		Env:                 env,
		ClientPrivateEpochs: 1,
		ClientPublicEpochs:  1,
		ServerEpochs:        1,
		Seed:                9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// chaosTimeout is generous relative to a round of chaosEnv training (tens of
// milliseconds even under the race detector), so only injected faults — never
// scheduling noise — decide which uploads miss the deadline.
const chaosTimeout = 2 * time.Second

// TestChaosFedPKDDeterministicPartialRounds is the acceptance scenario:
// distributed FedPKD under crash+drop chaos with a finite straggler deadline
// completes every round with partial cohorts, and the same seed yields the
// same history — degraded rounds included — across two independent runs.
func TestChaosFedPKDDeterministicPartialRounds(t *testing.T) {
	t.Parallel() // sleeps out deadlines; overlaps TestChaosCorruptionRun's
	plan := &faults.Plan{Seed: 42, CrashProb: 0.2, DropProb: 0.1}
	const rounds = 3
	algos := [2]fl.Algorithm{chaosFedPKD(t, chaosEnv(t)), chaosFedPKD(t, chaosEnv(t))}
	h1, h2 := replayLegs(t, func(i int) (*fl.History, error) {
		return Run(algos[i], rounds, Options{
			Mode:          ModeBus,
			ClientTimeout: chaosTimeout,
			Faults:        plan,
		})
	})
	if h1.Len() != rounds {
		t.Fatalf("history rounds = %d, want %d (chaos must not abort the run)", h1.Len(), rounds)
	}
	if h1.DegradedCount() == 0 {
		t.Fatal("no degraded rounds recorded; this plan+seed is known to crash clients")
	}
	for _, d := range h1.Degraded {
		if d.Cohort >= d.Expected || d.Cohort+len(d.Missing) != d.Expected {
			t.Fatalf("inconsistent degraded record %+v", d)
		}
	}
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed chaos runs diverged:\n%s\nvs\n%s", j1, j2)
	}
}

// replayLegs runs leg(0) and leg(1) — two independent same-seed runs — at the
// same time, so the deadlines they sleep out overlap, and returns both
// histories. Runs that agree byte for byte while interleaving are a stronger
// determinism check than runs taken in turn. A leg's failure is reported from
// the calling test goroutine.
func replayLegs(t *testing.T, leg func(i int) (*fl.History, error)) (h1, h2 *fl.History) {
	t.Helper()
	var hists [2]*fl.History
	var errs [2]error
	var wg sync.WaitGroup
	for i := range hists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hists[i], errs[i] = leg(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
	}
	return hists[0], hists[1]
}

// TestChaosTCPCrashRestart drives the full reconnect path: crashed clients
// drop their TCP connection and redial through the join handshake, and the
// run still completes every round.
func TestChaosTCPCrashRestart(t *testing.T) {
	var fs faults.Stats
	env := chaosEnv(t)
	hist, err := Run(chaosFedAvg(t, env), 3, Options{
		Mode:          ModeTCP,
		ClientTimeout: chaosTimeout,
		Faults:        &faults.Plan{Seed: 7, CrashProb: 0.3},
		FaultStats:    &fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 3 {
		t.Fatalf("history rounds = %d, want 3", hist.Len())
	}
	if fs.Snapshot().Crashes == 0 {
		t.Fatal("no crashes injected; this plan+seed is known to crash clients")
	}
	if hist.DegradedCount() == 0 {
		t.Fatal("crashed rounds must be recorded as degraded")
	}
}

// TestChaosRetryRecoversSendFailures checks the client backoff loop: with
// only transient send failures injected (no message loss), retries keep the
// protocol whole and the run completes.
func TestChaosRetrySendFailures(t *testing.T) {
	var fs faults.Stats
	env := chaosEnv(t)
	hist, err := Run(chaosFedAvg(t, env), 3, Options{
		Mode:          ModeBus,
		ClientTimeout: chaosTimeout,
		Faults:        &faults.Plan{Seed: 5, SendFailProb: 0.5},
		FaultStats:    &fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 3 {
		t.Fatalf("history rounds = %d, want 3", hist.Len())
	}
	if fs.Snapshot().SendFails == 0 {
		t.Fatal("no send failures injected; this plan+seed is known to inject them")
	}
}

// TestChaosZeroPlanMatchesStrict pins the degradation-free contract: turning
// on the tolerant machinery (a finite deadline) without any faults must not
// change a single byte of the history relative to the strict runtime.
func TestChaosZeroPlanMatchesStrict(t *testing.T) {
	tolerant, err := Run(chaosFedAvg(t, chaosEnv(t)), 2, Options{
		Mode:          ModeBus,
		ClientTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(chaosFedAvg(t, chaosEnv(t)), 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tolerant, strict) {
		t.Fatalf("tolerant-but-healthy run diverged from strict run:\n%+v\nvs\n%+v", tolerant, strict)
	}
	if tolerant.DegradedCount() != 0 {
		t.Fatalf("healthy run recorded degraded rounds: %+v", tolerant.Degraded)
	}
}

// TestChaosQuorumAbort: with every client required and crashes injected, the
// first partial round must abort with ErrQuorumNotMet instead of silently
// aggregating a rump cohort.
func TestChaosQuorumAbort(t *testing.T) {
	env := chaosEnv(t)
	_, err := Run(chaosFedAvg(t, env), 6, Options{
		Mode:          ModeBus,
		ClientTimeout: chaosTimeout,
		MinQuorum:     3,
		Faults:        &faults.Plan{Seed: 11, CrashProb: 0.5},
	})
	if !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("err = %v, want ErrQuorumNotMet", err)
	}
}

func TestChaosOptionsValidation(t *testing.T) {
	env := chaosEnv(t)
	if _, err := Run(chaosFedAvg(t, env), 1, Options{
		Faults: &faults.Plan{DropProb: 0.1},
	}); err == nil {
		t.Error("lossy plan without ClientTimeout should error")
	}
	if _, err := Run(chaosFedAvg(t, env), 1, Options{
		MinQuorum: 4,
	}); err == nil {
		t.Error("MinQuorum above the fleet size should error")
	}
	if _, err := Run(chaosFedAvg(t, env), 1, Options{
		Faults: &faults.Plan{DropProb: 1.5}, ClientTimeout: time.Second,
	}); err == nil {
		t.Error("out-of-range probability should error")
	}
}

// TestChaosTCPGoroutineLeakFree pins the mux fix: a finished TCP run must
// not leave receiver pumps or accept handlers blocked forever.
func TestChaosTCPGoroutineLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	env := chaosEnv(t)
	if _, err := Run(chaosFedAvg(t, env), 2, Options{Mode: ModeTCP}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 { // small slack for runtime background goroutines
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before run, %d five seconds after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCorruptionRun is the run-level half of the corruption contract:
// the full tolerant runtime under payload corruption completes every round,
// the same seed reproduces the same degraded history, and — the message
// checksum's guarantee — every corruption injected is a counted drop. The
// plan injects nothing but corruption and the header survives it, so the
// rounds' CorruptDropped must sum to exactly the injected count, under
// float64raw (no packed sections, so the message checksum is the only guard)
// as under int8.
func TestChaosCorruptionRun(t *testing.T) {
	t.Parallel()
	plan := &faults.Plan{Seed: 31, CorruptProb: 0.3}
	const rounds = 3
	for _, codec := range []comm.Codec{comm.CodecFloat64, comm.CodecInt8} {
		t.Run(codec.String(), func(t *testing.T) {
			t.Parallel()
			var algos [2]fl.Algorithm
			var fs [2]faults.Stats
			var recs [2]*obs.Recorder
			for i := range algos {
				env := chaosEnv(t)
				// Raw parameter uploads are nearly all float bytes — where a
				// flipped byte is just another float; logits and prototypes
				// exercise the packed sections.
				algos[i] = chaosFedAvg(t, env)
				if codec != comm.CodecFloat64 {
					algos[i] = chaosFedPKD(t, env)
				}
				r, err := engine.Of(algos[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := r.SetCodec(codec); err != nil {
					t.Fatal(err)
				}
				recs[i] = obs.NewRecorder("chaos")
			}
			h1, h2 := replayLegs(t, func(i int) (*fl.History, error) {
				return Run(algos[i], rounds, Options{
					Mode:          ModeBus,
					ClientTimeout: chaosTimeout,
					Faults:        plan,
					FaultStats:    &fs[i],
					Recorder:      recs[i],
				})
			})
			for i := range algos {
				injected := fs[i].Snapshot().Corrupts
				if injected == 0 {
					t.Fatal("no corruption injected; this plan+seed is known to corrupt payloads")
				}
				var dropped int64
				for _, tr := range recs[i].Traces() {
					if tr.Robustness != nil {
						dropped += int64(tr.Robustness.CorruptDropped)
					}
				}
				if dropped != injected {
					t.Fatalf("%d payloads corrupted, %d dropped as corrupt: the rest were aggregated", injected, dropped)
				}
			}
			if h1.Len() != rounds {
				t.Fatalf("history rounds = %d, want %d (corrupt payloads must not abort the run)", h1.Len(), rounds)
			}
			j1, _ := json.Marshal(h1)
			j2, _ := json.Marshal(h2)
			if string(j1) != string(j2) {
				t.Fatalf("same-seed corruption runs diverged:\n%s\nvs\n%s", j1, j2)
			}
		})
	}
}

// ---- Tree-tier chaos: the fault-tolerant aggregator tier ----

// treeChaosShards and treeChaosRounds shape every tree chaos run: a two-leaf
// tree over four clients (two per shard) served for three rounds.
const (
	treeChaosShards = 2
	treeChaosRounds = 3
)

// treeChaosEnv is chaosEnv widened to four clients so a two-shard tree puts
// two clients behind each leaf.
func treeChaosEnv(t *testing.T) *fl.Env {
	t.Helper()
	spec := dataset.SynthC10(23)
	spec.Noise = 0.6
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       spec,
		NumClients: 4,
		TrainSize:  120, TestSize: 60, PublicSize: 45, LocalTestSize: 30,
		Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5},
		Seed:      23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// findLeafCrashPlan searches derived seeds for a leaf-crash plan whose pure
// schedule kills at least two leaves across the run while leaving at least
// one shard-round alive. LeafCrashesAt is a pure function of the plan, so the
// kill schedule is known before any run.
func findLeafCrashPlan(t *testing.T, seed uint64, needRound0 bool) (*faults.Plan, int) {
	t.Helper()
	for s := seed; s < seed+10_000; s++ {
		plan := &faults.Plan{Seed: s, LeafCrashProb: 0.35}
		kills := 0
		for r := 0; r < treeChaosRounds; r++ {
			for l := 0; l < treeChaosShards; l++ {
				if plan.LeafCrashesAt(l, r) {
					kills++
				}
			}
		}
		if kills < 2 || kills >= treeChaosShards*treeChaosRounds {
			continue
		}
		if needRound0 && !plan.LeafCrashesAt(0, 0) && !plan.LeafCrashesAt(1, 0) {
			continue
		}
		return plan, kills
	}
	t.Fatal("no leaf-crash seed found in 10k candidates")
	return nil, 0
}

// tierSink is a stub transport.Conn recording what a WrapTier decorator
// delivers, for pure pre-run probes of a tier plan's draw schedule.
type tierSink struct{ sent []*transport.Envelope }

func (s *tierSink) Send(e *transport.Envelope) error { s.sent = append(s.sent, e); return nil }
func (s *tierSink) Recv() (*transport.Envelope, error) {
	return nil, errors.New("tierSink: recv on probe conn")
}
func (s *tierSink) Close() error { return nil }

// tierProbe replays the exact draw sequence the leaves' sendDigest loop will
// make under plan — one digest per (shard, round), retried on transient
// failures up to the default attempt budget — and reports what fires. Fault
// draws are pure functions of (seed, salt, shard, kind, round, attempt), so
// the probe predicts the real run exactly.
type tierProbe struct {
	sendFails, drops, corrupts, dups int
	// lostRounds[r] counts shards round r loses (dropped, corrupted, or
	// send-fail-exhausted digests); survivors[r] the cleanly delivered ones.
	lostRounds, survivors [treeChaosRounds]int
}

func probeTierPlan(plan *faults.Plan) tierProbe {
	var pr tierProbe
	attempts := faults.Backoff{}.WithDefaults().Attempts
	for shard := 0; shard < treeChaosShards; shard++ {
		var fs faults.Stats
		sink := &tierSink{}
		up := faults.WrapTier(sink, plan, shard, &fs)
		for round := 0; round < treeChaosRounds; round++ {
			payload := []byte("digest-probe-payload-0123456789abcdef")
			env := &transport.Envelope{Kind: transport.KindShardDigest, From: shard, To: -1, Round: round, Payload: payload}
			before := len(sink.sent)
			corruptBefore := fs.Snapshot().TierCorrupts
			for a := 1; ; a++ {
				if err := up.Send(env); err == nil || a >= attempts {
					break
				}
			}
			delivered := len(sink.sent) - before
			corrupted := fs.Snapshot().TierCorrupts - corruptBefore
			if delivered == 0 || corrupted > 0 {
				pr.lostRounds[round]++
			} else {
				pr.survivors[round]++
			}
		}
		sn := fs.Snapshot()
		pr.sendFails += int(sn.TierSendFails)
		pr.drops += int(sn.TierDrops)
		pr.corrupts += int(sn.TierCorrupts)
		pr.dups += int(sn.TierDups)
	}
	return pr
}

// findTierPlan searches derived seeds for a tier plan (built by mk) whose
// probed schedule satisfies ok.
func findTierPlan(t *testing.T, seed uint64, mk func(s uint64) *faults.Plan, ok func(tierProbe) bool) *faults.Plan {
	t.Helper()
	for s := seed; s < seed+10_000; s++ {
		plan := mk(s)
		if ok(probeTierPlan(plan)) {
			return plan
		}
	}
	t.Fatal("no tier-plan seed found in 10k candidates")
	return nil
}

// runTreeChaos runs FedAvg through the two-leaf tree with the given plan and
// returns the history plus the run's tier ledger totals and fault counters.
func runTreeChaos(t *testing.T, mode Mode, plan *faults.Plan, opts Options) (*fl.History, int64, int64, faults.Snapshot) {
	t.Helper()
	var fs faults.Stats
	rec := obs.NewRecorder("FedAvg")
	opts.Mode = mode
	opts.Recorder = rec
	opts.Faults = plan
	opts.FaultStats = &fs
	opts.Topology = Topology{Shards: treeChaosShards}
	hist, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var up, down int64
	for _, tr := range rec.Traces() {
		up += tr.TierUpBytes
		down += tr.TierDownBytes
	}
	return hist, up, down, fs.Snapshot()
}

// TestTreeChaosLeafCrashDeterministicReplay is the tier acceptance scenario
// over the bus: a seeded leaf-crash plan kills at least two leaves across the
// run, every kill takes its whole shard out of the round, the root merges the
// surviving partials and records a degraded round with the lost-shard set —
// and the same seed replays the identical history, per-tier ledger totals,
// and per-round lost-shard sets.
func TestTreeChaosLeafCrashDeterministicReplay(t *testing.T) {
	treeChaosLeafCrashReplay(t, ModeBus)
}

// TestTreeChaosTCPLeafCrashReplay is the same contract over real sockets on
// both tiers.
func TestTreeChaosTCPLeafCrashReplay(t *testing.T) {
	treeChaosLeafCrashReplay(t, ModeTCP)
}

func treeChaosLeafCrashReplay(t *testing.T, mode Mode) {
	plan, kills := findLeafCrashPlan(t, 42, false)
	opts := Options{ClientTimeout: chaosTimeout, LeafTimeout: chaosTimeout}
	h1, up1, down1, sn1 := runTreeChaos(t, mode, plan, opts)
	h2, up2, down2, _ := runTreeChaos(t, mode, plan, opts)
	if int(sn1.LeafCrashes) != kills {
		t.Errorf("leaf crashes executed = %d, want %d scheduled", sn1.LeafCrashes, kills)
	}
	if h1.Len() != treeChaosRounds {
		t.Fatalf("history rounds = %d, want %d (leaf crashes must not abort the run)", h1.Len(), treeChaosRounds)
	}
	if h1.DegradedCount() == 0 {
		t.Fatal("no degraded rounds recorded; this plan is known to kill leaves")
	}
	lost := 0
	for _, d := range h1.Degraded {
		lost += len(d.LostShards)
		for _, sh := range d.LostShards {
			if sh < 0 || sh >= treeChaosShards {
				t.Fatalf("lost shard %d out of range in %+v", sh, d)
			}
		}
	}
	if lost != kills {
		t.Errorf("lost-shard records = %d, want %d (one per kill)", lost, kills)
	}
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed leaf-crash runs diverged:\n%s\nvs\n%s", j1, j2)
	}
	if up1 != up2 || down1 != down2 {
		t.Fatalf("tier ledger totals diverged: up %d vs %d, down %d vs %d", up1, up2, down1, down2)
	}
}

// TestTreeChaosDigestCorruptionLosesShard: a corrupted digest cannot be
// merged, so its shard is written off for the round (no deadline burn — the
// corrupt arrival is attributable) and the round degrades deterministically.
func TestTreeChaosDigestCorruptionLosesShard(t *testing.T) {
	plan := findTierPlan(t, 1,
		func(s uint64) *faults.Plan { return &faults.Plan{Seed: s, TierCorruptProb: 0.4} },
		func(pr tierProbe) bool {
			if pr.corrupts == 0 {
				return false
			}
			for r := 0; r < treeChaosRounds; r++ {
				if pr.survivors[r] == 0 {
					return false
				}
			}
			return true
		})
	opts := Options{ClientTimeout: chaosTimeout, LeafTimeout: chaosTimeout}
	h1, _, _, sn := runTreeChaos(t, ModeBus, plan, opts)
	if sn.TierCorrupts == 0 {
		t.Fatal("no tier corruption injected; this plan is known to corrupt digests")
	}
	if h1.DegradedCount() == 0 {
		t.Fatal("corrupt digests must degrade their rounds")
	}
	lostAny := false
	for _, d := range h1.Degraded {
		lostAny = lostAny || len(d.LostShards) > 0
	}
	if !lostAny {
		t.Fatalf("no lost shards recorded: %+v", h1.Degraded)
	}
	h2, _, _, _ := runTreeChaos(t, ModeBus, plan, opts)
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed corruption runs diverged:\n%s\nvs\n%s", j1, j2)
	}
}

// TestTreeChaosDuplicateDigestRejected: a duplicated digest is dropped at the
// root (first writer wins) and counted, leaving the history byte-identical to
// an undisturbed tolerant run — duplication is pure noise, never double
// aggregation.
func TestTreeChaosDuplicateDigestRejected(t *testing.T) {
	plan := findTierPlan(t, 1,
		func(s uint64) *faults.Plan { return &faults.Plan{Seed: s, TierDupProb: 0.6} },
		func(pr tierProbe) bool { return pr.dups > 0 })
	opts := Options{ClientTimeout: chaosTimeout, LeafTimeout: chaosTimeout}
	dup, _, _, sn := runTreeChaos(t, ModeBus, plan, opts)
	if sn.TierDups == 0 {
		t.Fatal("no tier duplication injected; this plan is known to duplicate digests")
	}
	clean, _, _, _ := runTreeChaos(t, ModeBus, nil, opts)
	if !reflect.DeepEqual(dup, clean) {
		t.Fatalf("duplicated digests changed the history:\n%+v\nvs\n%+v", dup, clean)
	}
	if dup.DegradedCount() != 0 {
		t.Fatalf("duplication alone degraded rounds: %+v", dup.Degraded)
	}
}

// TestTreeChaosSendFailRetriesRecover: transient tier send failures are
// retried on the leaves' seeded backoff, so a plan that never exhausts the
// attempt budget leaves the history byte-identical to an undisturbed run.
func TestTreeChaosSendFailRetriesRecover(t *testing.T) {
	plan := findTierPlan(t, 1,
		func(s uint64) *faults.Plan { return &faults.Plan{Seed: s, TierSendFailProb: 0.4} },
		func(pr tierProbe) bool {
			var lost int
			for r := 0; r < treeChaosRounds; r++ {
				lost += pr.lostRounds[r]
			}
			return pr.sendFails > 0 && lost == 0
		})
	opts := Options{ClientTimeout: chaosTimeout, LeafTimeout: chaosTimeout}
	flaky, _, _, sn := runTreeChaos(t, ModeBus, plan, opts)
	if sn.TierSendFails == 0 {
		t.Fatal("no tier send failures injected; this plan is known to inject them")
	}
	clean, _, _, _ := runTreeChaos(t, ModeBus, nil, opts)
	if !reflect.DeepEqual(flaky, clean) {
		t.Fatalf("retried send failures changed the history:\n%+v\nvs\n%+v", flaky, clean)
	}
}

// TestTreeChaosDigestDropTimesOutShard: a dropped digest is invisible until
// the root's LeafTimeout expires, after which the shard is lost to a leaf
// timeout and the round degrades — the only tier fault that must burn the
// deadline, because nothing attributable ever arrives.
func TestTreeChaosDigestDropTimesOutShard(t *testing.T) {
	plan := findTierPlan(t, 1,
		func(s uint64) *faults.Plan { return &faults.Plan{Seed: s, TierDropProb: 0.25} },
		func(pr tierProbe) bool {
			var lost int
			for r := 0; r < treeChaosRounds; r++ {
				if pr.survivors[r] == 0 {
					return false
				}
				lost += pr.lostRounds[r]
			}
			return pr.drops == 1 && lost == 1 // exactly one burn keeps the test fast
		})
	rec := obs.NewRecorder("FedAvg")
	var fs faults.Stats
	hist, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
		Mode:          ModeBus,
		Recorder:      rec,
		ClientTimeout: chaosTimeout,
		LeafTimeout:   500 * time.Millisecond,
		Faults:        plan,
		FaultStats:    &fs,
		Topology:      Topology{Shards: treeChaosShards},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Snapshot().TierDrops != 1 {
		t.Fatalf("tier drops = %d, want 1", fs.Snapshot().TierDrops)
	}
	if hist.DegradedCount() != 1 || len(hist.Degraded[0].LostShards) != 1 {
		t.Fatalf("degraded = %+v, want one round losing one shard", hist.Degraded)
	}
	timeouts := 0
	for _, tr := range rec.Traces() {
		if tr.Robustness != nil {
			timeouts += tr.Robustness.LeafTimeouts
		}
	}
	if timeouts != 1 {
		t.Fatalf("leaf timeouts recorded = %d, want 1", timeouts)
	}
}

// TestTreeChaosShardQuorumAbort drives both halves of the shard quorum: the
// pre-round check fails fast on a round the crash schedule already dooms
// (before any fan-out, so no deadline burns), and the post-collect check
// aborts a round whose merged digest count fell below quorum.
func TestTreeChaosShardQuorumAbort(t *testing.T) {
	t.Run("pre-round fail-fast", func(t *testing.T) {
		plan, _ := findLeafCrashPlan(t, 42, true) // a leaf dies in round 0
		hist, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
			Mode:          ModeBus,
			ClientTimeout: chaosTimeout,
			LeafTimeout:   chaosTimeout,
			ShardQuorum:   treeChaosShards,
			Faults:        plan,
			Topology:      Topology{Shards: treeChaosShards},
		})
		if !errors.Is(err, ErrShardQuorumNotMet) {
			t.Fatalf("err = %v, want ErrShardQuorumNotMet", err)
		}
		if hist.Len() != 0 {
			t.Fatalf("history has %d rounds; the doomed round must abort before running", hist.Len())
		}
	})
	t.Run("post-collect abort", func(t *testing.T) {
		// A plan probed to corrupt round 0's every digest: the round merges
		// zero shards, under quorum.
		plan := findTierPlan(t, 1,
			func(s uint64) *faults.Plan { return &faults.Plan{Seed: s, TierCorruptProb: 0.999} },
			func(pr tierProbe) bool { return pr.survivors[0] == 0 })
		_, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
			Mode:          ModeBus,
			ClientTimeout: chaosTimeout,
			LeafTimeout:   chaosTimeout,
			ShardQuorum:   1,
			Faults:        plan,
			Topology:      Topology{Shards: treeChaosShards},
		})
		if !errors.Is(err, ErrShardQuorumNotMet) {
			t.Fatalf("err = %v, want ErrShardQuorumNotMet", err)
		}
	})
}

// TestTreeChaosZeroPlanTolerantMatchesStrict pins the tier degradation-free
// contract: arming the tolerant tier machinery (a finite LeafTimeout) with no
// fault plan must not change a byte of the tree history.
func TestTreeChaosZeroPlanTolerantMatchesStrict(t *testing.T) {
	tolerant, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
		Mode:        ModeBus,
		LeafTimeout: 10 * time.Second,
		Topology:    Topology{Shards: treeChaosShards},
	})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
		Mode:     ModeBus,
		Topology: Topology{Shards: treeChaosShards},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tolerant, strict) {
		t.Fatalf("tolerant-but-healthy tree diverged from the strict tree:\n%+v\nvs\n%+v", tolerant, strict)
	}
	if tolerant.DegradedCount() != 0 {
		t.Fatalf("healthy tree recorded degraded rounds: %+v", tolerant.Degraded)
	}
}

// TestTreeChaosClientCrashUnderTreeTCPReplay: client-plane chaos composes
// with the tree over TCP — crashed clients redial through the join handshake
// beneath their leaf, rounds degrade, and the same seed replays the identical
// history.
func TestTreeChaosClientCrashUnderTreeTCPReplay(t *testing.T) {
	plan := &faults.Plan{Seed: 7, CrashProb: 0.3}
	run := func() *fl.History {
		var fs faults.Stats
		hist, err := Run(chaosFedAvg(t, treeChaosEnv(t)), treeChaosRounds, Options{
			Mode:          ModeTCP,
			ClientTimeout: chaosTimeout,
			Faults:        plan,
			FaultStats:    &fs,
			Topology:      Topology{Shards: treeChaosShards},
		})
		if err != nil {
			t.Fatal(err)
		}
		if fs.Snapshot().Crashes == 0 {
			t.Fatal("no crashes injected; this plan+seed is known to crash clients")
		}
		return hist
	}
	h1 := run()
	if h1.DegradedCount() == 0 {
		t.Fatal("crashed rounds must be recorded as degraded")
	}
	h2 := run()
	j1, _ := json.Marshal(h1)
	j2, _ := json.Marshal(h2)
	if string(j1) != string(j2) {
		t.Fatalf("same-seed client-crash tree runs diverged:\n%s\nvs\n%s", j1, j2)
	}
}

// TestTreeChaosGoroutineLeakFree extends the leak contract to the tree: a
// finished tree run over TCP, and a run whose upper fabric dies mid-service
// (every leaf loses the root at once), must both unwind every goroutine —
// demux, leaf workers, receiver pumps, and both fabrics' plumbing.
func TestTreeChaosGoroutineLeakFree(t *testing.T) {
	settle := func(before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before+2 { // small slack for runtime background goroutines
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d before run, %d five seconds after", before, now)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Run("clean tree run", func(t *testing.T) {
		before := runtime.NumGoroutine()
		_, err := Run(chaosFedAvg(t, treeChaosEnv(t)), 2, Options{
			Mode:     ModeTCP,
			Topology: Topology{Shards: treeChaosShards},
		})
		if err != nil {
			t.Fatal(err)
		}
		settle(before)
	})
	t.Run("leaf death mid-service", func(t *testing.T) {
		before := runtime.NumGoroutine()
		var svc *Service
		svc, err := NewService(chaosFedAvg(t, treeChaosEnv(t)), Options{
			Mode:        ModeBus,
			LeafTimeout: chaosTimeout,
			Topology:    Topology{Shards: treeChaosShards},
			Barrier: func(round int) error {
				if round == 1 {
					// Kill the leaf↔root fabric under a live service: every
					// leaf's next tier receive fails as a dead link would.
					svc.tree.upper.cleanup()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Run(treeChaosRounds); err == nil {
			t.Fatal("a run whose upper fabric died should fail")
		}
		svc.Close()
		settle(before)
	})
}

// TestTreeChaosOptionsValidation pins the tier option surface: tier knobs
// and tier plans require the tree, lossy tier plans require a digest
// deadline, and the quorum is bounded by the shard count.
func TestTreeChaosOptionsValidation(t *testing.T) {
	env := treeChaosEnv(t)
	tree := Topology{Shards: treeChaosShards}
	cases := []struct {
		name string
		opts Options
	}{
		{"LeafTimeout without tree", Options{LeafTimeout: time.Second}},
		{"ShardQuorum without tree", Options{ShardQuorum: 1}},
		{"tier plan without tree", Options{Faults: &faults.Plan{TierDropProb: 0.1}, ClientTimeout: time.Second}},
		{"negative LeafTimeout", Options{LeafTimeout: -time.Second, Topology: tree}},
		{"lossy tier plan without LeafTimeout", Options{Faults: &faults.Plan{TierDropProb: 0.1}, Topology: tree}},
		{"ShardQuorum above shard count", Options{ShardQuorum: treeChaosShards + 1, LeafTimeout: time.Second, Topology: tree}},
		{"out-of-range tier probability", Options{Faults: &faults.Plan{TierDupProb: 1.5}, LeafTimeout: time.Second, Topology: tree}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Mode = ModeBus
			if _, err := Run(chaosFedAvg(t, env), 1, tc.opts); err == nil {
				t.Errorf("%s should be rejected", tc.name)
			}
		})
	}
}
