package engine

import (
	"fmt"
	"os"
	"path/filepath"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// Engine-reserved checkpoint section names. Hook Snapshot implementations
// own every other name.
const (
	secMeta    = "engine.meta"
	secHistory = "engine.history"
	secLedger  = "engine.ledger"
)

// SetCheckpointPolicy enables auto-checkpointing: CompleteRound writes a
// durable checkpoint into dir after every `every` completed rounds. Pass an
// empty dir or every <= 0 to disable. The directory is created on the first
// write.
func (r *Runner) SetCheckpointPolicy(dir string, every int) {
	r.ckptDir = dir
	r.ckptEvery = every
}

// checkpointDict encodes the full run state into the runner's checkpoint
// buffer: engine meta (algorithm identity, seed, fleet size, round counter),
// cumulative history, per-round ledger traffic, the async buffer, and every
// hook-owned section. The dict is a view of that buffer, valid until the next
// encode; the caller joins any write still using the buffer first.
func (r *Runner) checkpointDict() (*ckpt.Dict, error) {
	d := ckpt.NewDict(&r.ckptBuf)

	me := d.Section(secMeta)
	me.String(r.hooks.Name())
	me.U64(r.cfg.Seed)
	me.U32(uint32(r.cfg.Env.Cfg.NumClients))
	me.I64(int64(r.round))

	fl.EncodeHistory(d.Section(secHistory), r.ensureHistory())

	rounds := r.ledger.Rounds()
	le := d.Section(secLedger)
	le.U32(uint32(len(rounds)))
	for _, rt := range rounds {
		le.I64(int64(rt.Round))
		le.I64(rt.Upload)
		le.I64(rt.Download)
		le.I64(rt.Control)
		le.I64(rt.RawUpload)
		le.I64(rt.RawDownload)
	}

	if r.async != nil {
		r.async.asyncSnapshot(d.Section(secAsync))
	}

	if err := r.hooks.Snapshot(d); err != nil {
		return nil, fmt.Errorf("%s: snapshot algorithm state: %w", r.hooks.Name(), err)
	}
	return d, nil
}

// restoreDict applies a checkpoint dict: validates the engine meta against
// this runner's configuration, then restores round counter, history, ledger,
// and the hook-owned sections.
func (r *Runner) restoreDict(d *ckpt.Dict) error {
	mb, err := d.MustGet(secMeta)
	if err != nil {
		return err
	}
	md := ckpt.NewDec(mb)
	algo, seed, numClients, round := md.String(), md.U64(), int(md.U32()), int(md.I64())
	switch {
	case md.Err() != nil:
		return fmt.Errorf("engine: decode %s: %w", secMeta, md.Err())
	case algo != r.hooks.Name():
		return fmt.Errorf("engine: checkpoint is for algorithm %q, runner is %q", algo, r.hooks.Name())
	case seed != r.cfg.Seed:
		return fmt.Errorf("engine: checkpoint seed %d, runner seed %d — resumed RNG streams would diverge", seed, r.cfg.Seed)
	case numClients != r.cfg.Env.Cfg.NumClients:
		return fmt.Errorf("engine: checkpoint has %d clients, environment has %d", numClients, r.cfg.Env.Cfg.NumClients)
	}

	hb, err := d.MustGet(secHistory)
	if err != nil {
		return err
	}
	hist, err := fl.DecodeHistory(hb)
	if err != nil {
		return err
	}

	lb, err := d.MustGet(secLedger)
	if err != nil {
		return err
	}
	ld := ckpt.NewDec(lb)
	ledgerRounds := make([]comm.RoundTraffic, ld.Count(6*8))
	for i := range ledgerRounds {
		ledgerRounds[i] = comm.RoundTraffic{
			Round: int(ld.I64()), Upload: ld.I64(), Download: ld.I64(), Control: ld.I64(),
			RawUpload: ld.I64(), RawDownload: ld.I64(),
		}
	}
	if err := ld.Err(); err != nil {
		return fmt.Errorf("engine: decode %s: %w", secLedger, err)
	}

	// The async section must agree with the runner's mode: an async
	// checkpoint needs SetAsync (with the same options) before Resume, and a
	// synchronous checkpoint cannot seed an async runner's buffer state.
	ab, haveAsync := d.Get(secAsync)
	var async *asyncState
	switch {
	case haveAsync && r.async == nil:
		return fmt.Errorf("engine: checkpoint is from an async run; call SetAsync with the original options before Resume")
	case !haveAsync && r.async != nil:
		return fmt.Errorf("engine: checkpoint is from a synchronous run; it cannot resume in async mode")
	case haveAsync:
		n := len(r.async.dispatchVersion)
		async = &asyncState{
			opts:            r.async.opts,
			dispatchVersion: make([]int, n),
			ready:           make([]uint64, n),
			attempts:        make([]int, n),
			dispatched:      make([]*Payload, n),
		}
		if err := async.asyncRestore(ab); err != nil {
			return err
		}
	}

	// Algorithm state last: its Restore is the most likely to fail, and the
	// engine-owned fields are only committed together with it.
	if err := r.hooks.Restore(d); err != nil {
		return fmt.Errorf("%s: restore algorithm state: %w", r.hooks.Name(), err)
	}
	r.round = round
	r.hist = hist
	r.ledger.Restore(ledgerRounds)
	if async != nil {
		r.async = async
	}
	return nil
}

// writeCheckpoint durably writes d as the file path (temp + fsync + rename,
// creating the directory if needed). It touches nothing but d and path, so it
// may run while the next round does.
func writeCheckpoint(path string, d *ckpt.Dict) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("engine: create checkpoint dir: %w", err)
	}
	return ckpt.AtomicWriteFile(path, func(f *os.File) error { return ckpt.Write(f, d) })
}

// SaveCheckpoint durably writes the run state into dir as the canonical
// round-numbered file (ckpt-NNNNNN.fpkc for the current round), creating dir
// if needed, and returns the written path once the file is durable. The write
// is crash-safe (temp + fsync + rename) and earlier round files are left in
// place, so the newest previous checkpoint survives until this one is
// durable. The join of any policy write in flight, the encode and the write
// are spanned as the obs "checkpoint" phase.
func (r *Runner) SaveCheckpoint(dir string) (string, error) {
	defer r.rec.Span(obs.PhaseCheckpoint)()
	if err := r.WaitCheckpoint(); err != nil {
		return "", err
	}
	d, err := r.checkpointDict()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, ckpt.RoundFileName(r.round))
	if err := writeCheckpoint(path, d); err != nil {
		return "", err
	}
	return path, nil
}

// ckptWrite is the outcome of a policy checkpoint's background write.
type ckptWrite struct {
	round int // the rounds the file covers, as in its name
	err   error
}

// checkpointBehind takes the policy checkpoint at a barrier, the one point
// where the run's state is consistent: it joins the previous write, encodes
// the state into the runner's buffer, and hands that image to a goroutine
// that makes it durable while the next round runs. The span covers what the
// round pays: the join and the encode.
func (r *Runner) checkpointBehind() error {
	defer r.rec.Span(obs.PhaseCheckpoint)()
	if err := r.WaitCheckpoint(); err != nil {
		return err
	}
	d, err := r.checkpointDict()
	if err != nil {
		return fmt.Errorf("%s: checkpoint after round %d: %w", r.hooks.Name(), r.round-1, err)
	}
	path, round, done := filepath.Join(r.ckptDir, ckpt.RoundFileName(r.round)), r.round, r.ckptDone
	r.ckptInFlight = true
	go func() { done <- ckptWrite{round: round, err: writeCheckpoint(path, d)} }()
	return nil
}

// WaitCheckpoint joins the policy checkpoint write CompleteRound left in
// flight, if any: it returns once that file is durable, or with the write's
// error naming its round. Run, RunUntil, Checkpoint, SaveCheckpoint, Resume,
// ResumeAny and the next policy checkpoint join it themselves; a driver that
// calls CompleteRound on its own calls WaitCheckpoint before it returns.
func (r *Runner) WaitCheckpoint() error {
	if !r.ckptInFlight {
		return nil
	}
	w := <-r.ckptDone
	r.ckptInFlight = false
	if w.err != nil {
		return fmt.Errorf("%s: checkpoint after round %d: %w", r.hooks.Name(), w.round-1, w.err)
	}
	return nil
}

// ResumeAny restores from path, which may be a checkpoint file or a
// checkpoint directory. For a directory, the newest valid checkpoint wins
// and corrupt newer files are skipped with warnings (returned for the caller
// to surface) — the corruption-recovery contract: a truncated or bit-flipped
// latest checkpoint must not strand the run.
func (r *Runner) ResumeAny(path string) (warnings []string, err error) {
	if err := r.WaitCheckpoint(); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("engine: resume: %w", err)
	}
	var d *ckpt.Dict
	if info.IsDir() {
		_, d, warnings, err = ckpt.LatestValid(path)
		if err != nil {
			return warnings, err
		}
	} else {
		d, err = ckpt.ReadFile(path)
		if err != nil {
			return nil, err
		}
	}
	return warnings, r.restoreDict(d)
}

// Of extracts the engine runner an algorithm embeds — the uniform way for
// drivers (internal/distrib, cmd) to reach checkpoint/resume and the hook
// surface under an fl.Algorithm value.
func Of(algo fl.Algorithm) (*Runner, error) {
	if e, ok := algo.(interface{ Engine() *Runner }); ok {
		return e.Engine(), nil
	}
	return nil, fmt.Errorf("engine: %s does not expose an engine runner", algo.Name())
}
