package engine

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// checkpointTo writes r's full run state to w in the ckpt container
// format, the bytes SaveCheckpoint puts in a file.
func checkpointTo(r *Runner, w io.Writer) error {
	if err := r.WaitCheckpoint(); err != nil {
		return err
	}
	d, err := r.checkpointDict()
	if err != nil {
		return err
	}
	return ckpt.Write(w, d)
}

// resumeFrom restores r's full run state from a checkpointTo stream, as
// ResumeAny does from a file.
func resumeFrom(r *Runner, rd io.Reader) error {
	if err := r.WaitCheckpoint(); err != nil {
		return err
	}
	d, err := ckpt.Read(rd)
	if err != nil {
		return err
	}
	return r.restoreDict(d)
}

// toyHooks is a minimal deterministic algorithm: its whole state is one
// counter bumped by the surviving upload count each round. Small enough to
// make the engine's checkpoint plumbing — meta validation, history/ledger
// round-trip, hook section dispatch — testable without training networks.
type toyHooks struct {
	name    string
	counter int64
}

func (h *toyHooks) Name() string                                         { return h.name }
func (h *toyHooks) GlobalState(round int) *Payload                       { return nil }
func (h *toyHooks) Eval() (float64, float64)                             { return float64(h.counter), -1 }
func (h *toyHooks) Digest(rc *RoundContext, c int, bcast *Payload) error { return nil }

func (h *toyHooks) LocalUpdate(rc *RoundContext, c int, global *Payload) (*Payload, error) {
	return &Payload{NumSamples: 1}, nil
}

func (h *toyHooks) Aggregate(rc *RoundContext, uploads []Upload) (*Payload, error) {
	h.counter += int64(len(uploads))
	return nil, nil
}

func (h *toyHooks) Snapshot(d *ckpt.Dict) error {
	e := ckpt.NewEnc()
	e.I64(h.counter)
	d.Put("toy.counter", e.Buf())
	return nil
}

func (h *toyHooks) Restore(d *ckpt.Dict) error {
	b, err := d.MustGet("toy.counter")
	if err != nil {
		return err
	}
	dec := ckpt.NewDec(b)
	v := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	h.counter = v
	return nil
}

var _ Hooks = (*toyHooks)(nil)

// encodeHistory is fl.EncodeHistory into a fresh encoder.
func encodeHistory(h *fl.History) []byte {
	e := ckpt.NewEnc()
	fl.EncodeHistory(e, h)
	return e.Buf()
}

func toyRunner(t *testing.T, name string, seed uint64, clients int) (*Runner, *toyHooks) {
	t.Helper()
	h := &toyHooks{name: name}
	r, err := NewRunner(h, Config{Env: &fl.Env{Cfg: fl.EnvConfig{NumClients: clients}}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r, h
}

func TestRunnerCheckpointResumeRoundTrip(t *testing.T) {
	straightR, _ := toyRunner(t, "Toy", 7, 3)
	straightHist, err := straightR.Run(5)
	if err != nil {
		t.Fatal(err)
	}

	firstR, _ := toyRunner(t, "Toy", 7, 3)
	if _, err := firstR.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpointTo(firstR, &buf); err != nil {
		t.Fatal(err)
	}

	resumedR, resumedH := toyRunner(t, "Toy", 7, 3)
	if err := resumeFrom(resumedR, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if resumedR.CurrentRound() != 2 {
		t.Fatalf("resumed round = %d, want 2", resumedR.CurrentRound())
	}
	if resumedH.counter != 6 {
		t.Fatalf("resumed counter = %d, want 6", resumedH.counter)
	}
	resumedHist, err := resumedR.RunUntil(5)
	if err != nil {
		t.Fatal(err)
	}

	a := encodeHistory(straightHist)
	b := encodeHistory(resumedHist)
	if !bytes.Equal(a, b) {
		t.Fatalf("straight and resumed histories differ:\n%+v\n%+v", straightHist, resumedHist)
	}
	if got, want := resumedR.Ledger().TotalBytes(), straightR.Ledger().TotalBytes(); got != want {
		t.Fatalf("resumed ledger total %d bytes, straight %d", got, want)
	}
}

func TestRunnerResumeValidatesIdentity(t *testing.T) {
	src, _ := toyRunner(t, "Toy", 7, 3)
	if _, err := src.Run(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpointTo(src, &buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		label string
		name  string
		seed  uint64
		n     int
	}{
		{"algorithm name", "Other", 7, 3},
		{"seed", "Toy", 8, 3},
		{"fleet size", "Toy", 7, 4},
	}
	for _, tc := range cases {
		r, _ := toyRunner(t, tc.name, tc.seed, tc.n)
		if err := resumeFrom(r, bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("mismatched %s accepted", tc.label)
		}
	}
}

func TestRunnerResumeFailsWithoutPartialApply(t *testing.T) {
	src, _ := toyRunner(t, "Toy", 7, 3)
	if _, err := src.Run(2); err != nil {
		t.Fatal(err)
	}
	d, err := src.checkpointDict()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt only the hook section: engine meta validates fine, so a
	// partial-apply bug would commit round/history before the hook fails.
	d.Put("toy.counter", []byte{1})
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, d); err != nil {
		t.Fatal(err)
	}

	r, h := toyRunner(t, "Toy", 7, 3)
	if err := resumeFrom(r, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("corrupt hook section accepted")
	}
	if r.CurrentRound() != 0 || h.counter != 0 || len(r.History().Rounds) != 0 {
		t.Fatalf("failed resume partially applied: round=%d counter=%d hist=%d",
			r.CurrentRound(), h.counter, len(r.History().Rounds))
	}
}

// TestRunnerResumeRejectsImplausibleCounts writes CRC-valid checkpoints whose
// ledger, history-round and async-client counts are 0xFFFFFFFF. Resume must
// refuse each before the count sizes an allocation.
func TestRunnerResumeRejectsImplausibleCounts(t *testing.T) {
	huge := func(prefix []byte) []byte {
		e := ckpt.NewEnc()
		e.Bytes(prefix)
		e.U32(0xFFFFFFFF)
		return e.Buf()
	}
	labels := ckpt.NewEnc()
	for _, s := range []string{"Toy", "", ""} {
		labels.String(s)
	}
	// The async client count follows the options (seven 8-byte fields), the
	// started flag and the clock.
	const asyncCountAt = 7*8 + 4 + 8
	cases := []struct {
		label, section string
		async          bool
		data           func(async []byte) []byte
	}{
		{"ledger rounds", secLedger, false, func([]byte) []byte { return huge(nil) }},
		{"history rounds", secHistory, false, func([]byte) []byte { return huge(labels.Buf()) }},
		{"async clients", secAsync, true, func(async []byte) []byte { return huge(async[:asyncCountAt]) }},
	}
	for _, tc := range cases {
		runner := func() *Runner {
			if tc.async {
				r, _ := asyncToyRunner(t, 7)
				return r
			}
			r, _ := toyRunner(t, "Toy", 7, 4)
			return r
		}
		src := runner()
		if _, err := src.Run(2); err != nil {
			t.Fatal(err)
		}
		d, err := src.checkpointDict()
		if err != nil {
			t.Fatal(err)
		}
		async, _ := d.Get(secAsync)
		d.Put(tc.section, tc.data(async))
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, d); err != nil {
			t.Fatal(err)
		}

		r := runner()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = resumeFrom(r, bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 0xFFFFFFFF was accepted", tc.label)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: the rejected resume allocated %d bytes", tc.label, grew)
		}
	}
}

func TestAutoCheckpointPolicy(t *testing.T) {
	dir := t.TempDir()
	r, _ := toyRunner(t, "Toy", 7, 2)
	r.SetCheckpointPolicy(dir, 2)
	if _, err := r.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ckpt-000002.fpkc", "ckpt-000004.fpkc"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("expected checkpoint %s: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt-000005.fpkc")); err == nil {
		t.Error("round 5 checkpointed despite every=2 cadence")
	}

	// The newest checkpoint resumes a fresh runner to round 4.
	fresh, _ := toyRunner(t, "Toy", 7, 2)
	if _, err := fresh.ResumeAny(dir); err != nil {
		t.Fatal(err)
	}
	if fresh.CurrentRound() != 4 {
		t.Fatalf("ResumeAny landed on round %d, want 4", fresh.CurrentRound())
	}
}

// TestPolicyWriteFailureSurfacesAtNextJoin makes a policy checkpoint's
// background write fail — the checkpoint directory is replaced by a file
// after the first save — and requires the failure back, naming the round
// whose file was lost: from the next round's CompleteRound, or from Run when
// that save was the run's last. The failing round itself completes.
func TestPolicyWriteFailureSurfacesAtNextJoin(t *testing.T) {
	breakDir := func(t *testing.T) *Runner {
		dir := filepath.Join(t.TempDir(), "ckpt")
		r, _ := toyRunner(t, "Toy", 7, 2)
		r.SetCheckpointPolicy(dir, 1)
		if _, err := r.Run(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.ReadFile(filepath.Join(dir, ckpt.RoundFileName(1))); err != nil {
			t.Fatalf("round 0's checkpoint is not complete when Run returns: %v", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		return r
	}
	const lost = "Toy: checkpoint after round 1:"

	t.Run("next CompleteRound", func(t *testing.T) {
		r := breakDir(t)
		if err := r.Round(); err != nil {
			t.Fatal(err)
		}
		if err := r.CompleteRound(); err != nil {
			t.Fatalf("the round whose write fails failed itself: %v", err)
		}
		if err := r.Round(); err != nil {
			t.Fatal(err)
		}
		err := r.CompleteRound()
		if err == nil || !strings.Contains(err.Error(), lost) {
			t.Fatalf("next CompleteRound = %v, want the lost write of round 1", err)
		}
		if err := r.WaitCheckpoint(); err != nil {
			t.Fatalf("the failure was reported twice: %v", err)
		}
	})
	t.Run("Run", func(t *testing.T) {
		r := breakDir(t)
		_, err := r.Run(1)
		if err == nil || !strings.Contains(err.Error(), lost) {
			t.Fatalf("Run = %v, want the lost write of round 1", err)
		}
	})
}

// TestSaveCheckpointDuringPolicyWrite calls the explicit, synchronous save
// while a policy write is in flight: it joins that write before it reuses the
// runner's buffer, and when it returns both files are complete and load.
func TestSaveCheckpointDuringPolicyWrite(t *testing.T) {
	policyDir, saveDir := t.TempDir(), t.TempDir()
	r, _ := toyRunner(t, "Toy", 7, 2)
	r.SetCheckpointPolicy(policyDir, 1)
	if err := r.Round(); err != nil {
		t.Fatal(err)
	}
	if err := r.CompleteRound(); err != nil {
		t.Fatal(err)
	}
	saved, err := r.SaveCheckpoint(saveDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(policyDir, ckpt.RoundFileName(1)), saved} {
		fresh, _ := toyRunner(t, "Toy", 7, 2)
		if _, err := fresh.ResumeAny(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fresh.CurrentRound() != 1 {
			t.Fatalf("%s resumed at round %d, want 1", path, fresh.CurrentRound())
		}
	}
}

// TestPolicyCheckpointSpans: a traced policy run records the checkpoint
// phase on exactly the rounds that saved, and the background writes are
// durable, loadable files under their round-numbered names by the time Run
// returns.
func TestPolicyCheckpointSpans(t *testing.T) {
	r, _ := toyRunner(t, "Toy", 7, 2)
	rec := obs.NewRecorder("Toy")
	r.SetRecorder(rec)
	dir := t.TempDir()
	r.SetCheckpointPolicy(dir, 2)
	if _, err := r.Run(5); err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != 5 {
		t.Fatalf("%d traces, want 5", len(traces))
	}
	for _, tr := range traces {
		ns, spanned := tr.PhaseNS[obs.PhaseCheckpoint]
		if saved := (tr.Round+1)%2 == 0; spanned != saved || (saved && ns <= 0) {
			t.Errorf("round %d: checkpoint phase %v (%d ns), want it only on rounds that saved", tr.Round, spanned, ns)
		}
	}
	for _, round := range []int{2, 4} {
		fresh, _ := toyRunner(t, "Toy", 7, 2)
		if _, err := fresh.ResumeAny(filepath.Join(dir, ckpt.RoundFileName(round))); err != nil {
			t.Errorf("checkpoint after %d rounds: %v", round, err)
		} else if got := fresh.CurrentRound(); got != round {
			t.Errorf("checkpoint after %d rounds resumed at round %d", round, got)
		}
	}
}
