package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedpkd/internal/baselines"
	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// virtualClock is the faults.Clock bus-mode tests run on. Its time stands
// still while any goroutine of the test binary can run. Once every goroutine
// is parked in a channel operation, a select or a sync wait (a lock, a
// condition variable, a WaitGroup), nothing but a timer can happen next, and
// the clock jumps to its earliest timer and fires it. So a deadline fires exactly when the envelopes
// it awaits can no longer arrive, and injected delays, backoffs and deadlines
// fire in the order of their virtual due times — whatever the host's speed.
// testing/synctest has the same rule, but go1.24 ships it only behind
// GOEXPERIMENT=synctest.
type virtualClock struct {
	mu  sync.Mutex
	now time.Duration
	// timers are the armed timers, ascending by due time, then by arming
	// order; driving is set while a drive goroutine runs.
	timers  []*virtualTimer
	driving bool
}

type virtualTimer struct {
	at time.Duration
	ch chan time.Time
}

// after is the clock's faults.Clock.
func (v *virtualClock) after(d time.Duration) (<-chan time.Time, func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &virtualTimer{at: v.now + d, ch: make(chan time.Time, 1)}
	i, _ := slices.BinarySearchFunc(v.timers, vt.at, func(x *virtualTimer, at time.Duration) int {
		if x.at <= at {
			return -1 // an equal due time fires after the timers armed before it
		}
		return 1
	})
	v.timers = slices.Insert(v.timers, i, vt)
	if !v.driving {
		v.driving = true
		go v.drive()
	}
	return vt.ch, func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		if i := slices.Index(v.timers, vt); i >= 0 {
			v.timers = slices.Delete(v.timers, i, i+1)
		}
	}
}

// drive fires the earliest timer each time the binary is quiescent, and exits
// once no timer is armed.
func (v *virtualClock) drive() {
	const minPoll, maxPoll = 20 * time.Microsecond, time.Millisecond
	poll := minPoll
	for {
		time.Sleep(poll)
		v.mu.Lock()
		if len(v.timers) == 0 {
			v.driving = false
			v.mu.Unlock()
			return
		}
		v.mu.Unlock()
		if !quiescent() {
			poll = min(2*poll, maxPoll)
			continue
		}
		poll = minPoll
		v.mu.Lock()
		if len(v.timers) > 0 {
			vt := v.timers[0]
			v.timers = v.timers[1:]
			v.now = vt.at
			vt.ch <- time.Unix(0, 0).Add(vt.at)
		}
		v.mu.Unlock()
	}
}

// parked reports whether a goroutine in state waits for another goroutine to
// act. A bare "semacquire" is not such a state: it is the runtime's own
// semaphores, such as a goroutine starting a GC while a stack snapshot stops
// the world.
func parked(state string) bool {
	switch state {
	case "chan receive", "chan send", "select",
		"chan receive (nil chan)", "chan send (nil chan)", "select (no cases)",
		"sync.Cond.Wait", "sync.WaitGroup.Wait",
		"sync.Mutex.Lock", "sync.RWMutex.Lock", "sync.RWMutex.RLock":
		return true
	}
	return false
}

// quiescent reports whether every goroutine but the virtual clocks' drivers
// is parked. A running, runnable, sleeping, syscall or IO-wait goroutine
// means not yet.
func quiescent() bool {
	for _, g := range goroutineStacks() {
		if strings.Contains(g, ".(*virtualClock).drive(") {
			continue
		}
		_, state, _ := strings.Cut(g, " [")
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",")
		if !parked(state) {
			return false
		}
	}
	return true
}

// goroutineStacks returns one stack trace per live goroutine, taken at one
// stop of the world.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// testClock is the clock a test service runs on: a fresh virtual clock on the
// bus, and the OS clock over TCP, where a goroutine reading a socket is never
// durably parked.
func testClock(mode Mode) faults.Clock {
	if mode == ModeTCP {
		return faults.OSClock
	}
	return (&virtualClock{}).after
}

// runFaults runs algo for rounds on testClock(opts.Mode) and returns the
// history with the service's injected-fault counters. Every round a bus run
// records is held to the cohort law (checkCohortLaw).
func runFaults(t *testing.T, algo fl.Algorithm, rounds int, opts Options) (*fl.History, faults.Snapshot, error) {
	if opts.Recorder == nil {
		opts.Recorder = obs.NewRecorder("chaos")
	}
	s, err := newService(algo, opts, testClock(opts.Mode))
	if err != nil {
		return nil, faults.Snapshot{}, err
	}
	defer s.Close()
	hist, err := s.Run(rounds)
	fs := s.fstats.Snapshot()
	if opts.Mode != ModeTCP {
		checkCohortLaw(t, s, opts.Recorder.Traces())
		if w, ok := s.runner.Hooks().(*weighedHooks); ok {
			checkWeightLaw(t, s, w, opts.Recorder.Traces(), err == nil)
		}
		if err == nil {
			copies, tierCopies := s.fstats.CorruptCopies()
			checkCorruptLaw(t, opts.Recorder.Traces(), fs, copies, tierCopies)
		}
	}
	return hist, fs, err
}

// checkCorruptLaw holds a finished run to the corruption law. Every corrupt
// envelope a collect reads in its own round is dropped as corrupt, and no
// other envelope is. The plan delivers one corrupt envelope per corrupted
// send, plus a second one when it also duplicated that send
// (Stats.CorruptCopies: copies and tierCopies), so
//
//	Σ CorruptDropped = Corrupts + TierCorrupts + copies + tierCopies
//
// exactly when every corrupt delivery reaches a collect in its round. Two
// kinds of delivery may not, and then the sum is only an upper bound: one an
// injected delay holds past its round's deadline, and a digest's second
// copy once the first wrote its shard off (the root stops awaiting a shard
// it wrote off, so the copy lands in the next round as stale traffic).
func checkCorruptLaw(t *testing.T, traces []obs.RoundTrace, fs faults.Snapshot, copies, tierCopies int64) {
	t.Helper()
	var dropped int64
	for _, tr := range traces {
		if r := tr.Robustness; r != nil {
			dropped += int64(r.CorruptDropped)
		}
	}
	delivered := fs.Corrupts + fs.TierCorrupts + copies + tierCopies
	exact := fs.Delays == 0 && fs.TierDelays == 0 && tierCopies == 0
	if dropped > delivered || exact && dropped != delivered {
		t.Errorf("rounds dropped %d envelopes as corrupt; the plan delivered %d corrupt (%d uploads + %d copies, %d digests + %d copies), %s",
			dropped, delivered, fs.Corrupts, copies, fs.TierCorrupts, tierCopies,
			map[bool]string{true: "want all of them", false: "want at most that"}[exact])
	}
}

// checkCohortLaw holds every round's Robustness record to the cohort law:
// Expected = Cohort + |TimedOut| + |Crashed| + the clients lost with their
// shard. The terms never overlap. A client the plan crashes counts as crashed
// even when its shard is lost too; a lost shard's other clients are in
// neither list, only behind the shard's ShardsLost entry; every other client
// the round missed timed out. A tree run schedules its whole fleet here, so
// the clients lost with a shard are its ids that the plan does not crash.
func checkCohortLaw(t *testing.T, s *Service, traces []obs.RoundTrace) {
	t.Helper()
	for _, tr := range traces {
		r := tr.Robustness
		if r == nil {
			continue
		}
		withShard := 0
		for c := 0; c < s.n && len(r.ShardsLost) > 0; c++ {
			if slices.Contains(r.ShardsLost, ShardOf(c, s.n, s.opts.Topology.Shards)) && !s.opts.Faults.CrashesAt(c, tr.Round) {
				withShard++
			}
		}
		if sum := r.Cohort + len(r.TimedOut) + len(r.Crashed) + withShard; sum != r.Expected {
			t.Errorf("round %d: cohort %d + timed out %v + crashed %v + %d lost with shards %v = %d, want the expected %d",
				tr.Round, r.Cohort, r.TimedOut, r.Crashed, withShard, r.ShardsLost, sum, r.Expected)
		}
	}
}

// checkPermutationLaw holds a logit-and-prototype algorithm to the arrival-
// permutation law: delays reorder the uploads a collect receives — at the
// flat server, at each leaf, and the digests at the root — and change
// nothing else, so every round's Aggregate result, the run's history and its
// ledger rows are byte-identical to the undelayed run's. build makes a fresh
// algorithm, which runs under codec; each plan in seeds delays client sends,
// and tier sends under a tree, with probability 1/2 on the virtual clock
// (MaxDelay is far inside any deadline, so a delay never costs an upload). It
// returns how many sends the plans delayed on each plane, so a caller can
// tell that they reordered something.
func checkPermutationLaw(t *testing.T, build func() fl.Algorithm, codec comm.Codec, rounds int, topo Topology, seeds []uint64) (delays, tierDelays int64) {
	t.Helper()
	run := func(plan *faults.Plan) (out [3][]byte, fs faults.Snapshot) {
		t.Helper()
		base, err := engine.Of(build())
		if err != nil {
			t.Fatal(err)
		}
		results := &resultHooks{Hooks: base.Hooks(), encoded: make(map[int][]byte)}
		r, err := engine.NewRunner(results, base.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetCodec(codec); err != nil {
			t.Fatal(err)
		}
		h, fs, err := runFaults(t, r, rounds, Options{Mode: ModeBus, Topology: topo, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		out[0], _ = json.Marshal(h)
		out[1], _ = json.Marshal(r.Ledger().Rounds())
		out[2], _ = json.Marshal(results.encoded)
		return out, fs
	}
	want, _ := run(nil)
	for _, seed := range seeds {
		plan := &faults.Plan{Seed: seed, DelayProb: 0.5}
		if topo.Enabled() {
			plan.TierDelayProb = 0.5
		}
		got, fs := run(plan)
		delays += fs.Delays
		tierDelays += fs.TierDelays
		for i, what := range []string{"history", "ledger rows", "Aggregate results"} {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("seed %d (%d delays, %d tier delays): the %s moved:\n%s\nundelayed:\n%s", seed, fs.Delays, fs.TierDelays, what, got[i], want[i])
			}
		}
	}
	return delays, tierDelays
}

// resultHooks wraps an algorithm's hooks and keeps each round's Aggregate
// result, encoded float64raw: every bit of it.
type resultHooks struct {
	engine.Hooks
	mu      sync.Mutex
	encoded map[int][]byte
}

// Aggregate implements engine.Hooks: it aggregates, then keeps the result.
func (h *resultHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	bcast, err := h.Hooks.Aggregate(rc, uploads)
	if err == nil {
		b, _ := transport.Encode(transport.PayloadToWire(bcast))
		h.mu.Lock()
		h.encoded[rc.Round()] = b
		h.mu.Unlock()
	}
	return bcast, err
}

// TestPermutationLaw runs the arrival-permutation law for FedPKD and FedMD,
// flat and under a 2-shard tree, with the int8 codec, over three delay plans
// each.
func TestPermutationLaw(t *testing.T) {
	env := treeChaosEnv(t)
	algos := map[string]func() fl.Algorithm{
		"FedPKD": func() fl.Algorithm { return chaosFedPKD(t, env) },
		"FedMD": func() fl.Algorithm {
			f, err := baselines.NewFedMD(baselines.FedMDConfig{Common: engine.Config{Env: env, Seed: 9}, LocalEpochs: 1, DistillEpochs: 1})
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for name, build := range algos {
		for _, topo := range []Topology{{}, {Shards: 2}} {
			t.Run(fmt.Sprintf("%s/shards%d", name, topo.Shards), func(t *testing.T) {
				delays, tierDelays := checkPermutationLaw(t, build, comm.CodecInt8, 2, topo, []uint64{3, 11, 29})
				if delays == 0 || topo.Enabled() && tierDelays == 0 {
					t.Errorf("the plans delayed %d client and %d tier sends; want both planes reordered", delays, tierDelays)
				}
			})
		}
	}
}

// weighedHooks wraps an algorithm's hooks and records, per round, the
// client and the weight (NumSamples) of every upload its Aggregate receives.
type weighedHooks struct {
	engine.Hooks
	mu     sync.Mutex
	rounds map[int][]weighed
}

// weighed is one upload as Aggregate received it.
type weighed struct{ client, samples int }

// Aggregate implements engine.Hooks: it records the uploads, then
// aggregates them.
func (w *weighedHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	w.mu.Lock()
	if w.rounds == nil {
		w.rounds = make(map[int][]weighed)
	}
	for _, u := range uploads {
		w.rounds[rc.Round()] = append(w.rounds[rc.Round()], weighed{u.Client, u.Payload.NumSamples})
	}
	w.mu.Unlock()
	return w.Hooks.Aggregate(rc, uploads)
}

// checkWeightLaw holds every round a bus run records to the weight law: the
// uploads Aggregate receives are the surviving cohort, each once, each with
// its own client's sample count as its weight. So their weights sum to the
// surviving cohort's — the clients the plan scheduled, less those the round
// lost (timed out, crashed, or lost with their shard: checkCohortLaw's
// terms), whose number the Robustness record gives as Cohort. When the plan
// scheduled the whole fleet the survivors are known by id, and the sum is
// checked against theirs; an async flush's cohort is its own draw, so there
// the law checks the count, the distinct ids and each weight. A round
// with survivors and no error must have aggregated them (complete).
func checkWeightLaw(t *testing.T, s *Service, w *weighedHooks, traces []obs.RoundTrace, complete bool) {
	t.Helper()
	env := s.runner.Config().Env
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, tr := range traces {
		r := tr.Robustness
		if r == nil {
			continue
		}
		got, ok := w.rounds[tr.Round]
		if !ok {
			if complete && r.Cohort > 0 {
				t.Errorf("round %d: %d clients survived, but Aggregate never ran", tr.Round, r.Cohort)
			}
			continue
		}
		lost := make(map[int]bool)
		for _, c := range append(slices.Clone(r.TimedOut), r.Crashed...) {
			lost[c] = true
		}
		for c := 0; c < s.n && len(r.ShardsLost) > 0; c++ {
			if slices.Contains(r.ShardsLost, ShardOf(c, s.n, s.opts.Topology.Shards)) {
				lost[c] = true
			}
		}
		var sum, want int
		seen := make(map[int]bool, len(got))
		for _, u := range got {
			if seen[u.client] || lost[u.client] {
				t.Errorf("round %d: Aggregate received client %d's upload again or from a lost client (lost: %v)", tr.Round, u.client, lost)
			}
			seen[u.client] = true
			if n := env.ClientData[u.client].Len(); u.samples != n {
				t.Errorf("round %d: client %d's upload weighs %d, its sample count is %d", tr.Round, u.client, u.samples, n)
			}
			sum += u.samples
		}
		if len(got) != r.Cohort {
			t.Errorf("round %d: Aggregate received %d uploads, the record's cohort is %d", tr.Round, len(got), r.Cohort)
		}
		if r.Expected != s.n {
			continue
		}
		for c := 0; c < s.n; c++ {
			if !lost[c] {
				want += env.ClientData[c].Len()
			}
		}
		if sum != want {
			t.Errorf("round %d: Aggregate's weights sum to %d, the surviving cohort's to %d (lost: %v)", tr.Round, sum, want, lost)
		}
	}
}

// TestVirtualClockFiresInDueOrder pins the clock's two rules: a timer fires
// only when every goroutine is parked, and timers fire in due order, ties in
// arming order, whatever order they were armed in.
func TestVirtualClockFiresInDueOrder(t *testing.T) {
	clk := &virtualClock{}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, d := range []time.Duration{3 * time.Second, time.Millisecond, 2 * time.Second, time.Millisecond} {
		expired, _ := clk.after(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-expired
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
	}
	// A busy goroutine holds every timer back, however short, while this one
	// is parked.
	spun := make(chan int)
	go func() {
		for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		}
		mu.Lock()
		defer mu.Unlock()
		spun <- len(order)
	}()
	held := <-spun
	wg.Wait()
	if held != 0 || !slices.Equal(order, []int{1, 3, 2, 0}) {
		t.Fatalf("fired %d timers while a goroutine ran, then in order %v; want 0, then [1 3 2 0]", held, order)
	}
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if clk.now != 3*time.Second {
		t.Fatalf("virtual time = %v after the last timer, want 3s", clk.now)
	}
}
