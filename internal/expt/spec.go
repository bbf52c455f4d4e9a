package expt

import (
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
)

// RunSpec is everything about a run that is configuration rather than
// algorithm or data. It is a plain value: build it, copy it, hand it to as
// many runs as you like, concurrently. The zero value is the default run —
// float64raw, synchronous, every client always online, no checkpoints, no
// recorder, strict in-process execution.
type RunSpec struct {
	// Codec names the payload wire codec (see comm.ParseCodec); empty means
	// float64raw.
	Codec string
	// Async, when non-nil, switches the run to barrier-free buffered
	// flushes. A BufferSize <= 0 means half the fleet.
	Async *engine.AsyncOptions
	// Availability, when non-nil, samples every cohort from the clients the
	// trace puts online.
	Availability *engine.AvailabilityTrace
	// CheckpointDir and CheckpointEvery arm auto-checkpointing: a durable
	// checkpoint lands in the directory after every CheckpointEvery
	// completed rounds. An empty directory or a cadence <= 0 disables it.
	// RunOne treats the directory as a root and gives each run of a sweep
	// its own subdirectory.
	CheckpointDir   string
	CheckpointEvery int
	// Resume names a checkpoint file, or a directory whose newest valid
	// checkpoint wins, to continue from; empty starts fresh. RunOne reads
	// any non-empty value as "continue each run that left a checkpoint in
	// its subdirectory".
	Resume string
	// Recorder, when non-nil, receives the run's round traces, in-process
	// and distributed alike.
	Recorder *obs.Recorder
	// Distrib is the transport side of the run — mode, fault plan, client
	// and leaf deadlines, quorums, topology. Only runs that go through
	// internal/distrib read it; which experiment honours which field is
	// tabulated in DESIGN.md §3.
	Distrib distrib.Options
}

// parseCodec resolves a RunSpec codec name; the empty name is float64raw.
func parseCodec(name string) (comm.Codec, error) {
	if name == "" {
		return comm.CodecFloat64, nil
	}
	return comm.ParseCodec(name)
}

// halfFleet is the default async buffer size K for an n-client fleet.
func halfFleet(n int) int { return (n + 1) / 2 }

// Apply installs the spec on a freshly built engine-backed algorithm, before
// its first round. It is the one place that knows how run configuration
// reaches a runner and in which order. Only one ordering rule exists and it
// holds by construction: everything is configured before anything is
// resumed, because restoring an async checkpoint needs the async options it
// was written under already installed (codec and availability are run
// configuration too, not checkpointed state, so the resumed run needs them
// as much as the original did). The returned warnings name the corrupt newer
// checkpoints a directory resume skipped.
func (s RunSpec) Apply(algo fl.Algorithm) (warnings []string, err error) {
	r, err := engine.Of(algo)
	if err != nil {
		return nil, err
	}
	codec, err := parseCodec(s.Codec)
	if err != nil {
		return nil, err
	}
	if err := r.SetCodec(codec); err != nil {
		return nil, err
	}
	if s.Recorder != nil {
		r.SetRecorder(s.Recorder)
	}
	if s.Async != nil {
		opts := *s.Async
		if opts.BufferSize <= 0 {
			opts.BufferSize = halfFleet(r.Config().Env.Cfg.NumClients)
		}
		if err := r.SetAsync(opts); err != nil {
			return nil, err
		}
	}
	if err := r.SetAvailability(s.Availability); err != nil {
		return nil, err
	}
	r.SetCheckpointPolicy(s.CheckpointDir, s.CheckpointEvery)
	if s.Resume != "" {
		if warnings, err = r.ResumeAny(s.Resume); err != nil {
			return warnings, fmt.Errorf("resume from %s: %w", s.Resume, err)
		}
	}
	return warnings, nil
}
