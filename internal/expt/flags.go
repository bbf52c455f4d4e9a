package expt

import (
	"flag"
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl/engine"
)

// RunFlags are the run-configuration flags fedbench and fedpkd-sim share,
// declared once by BindRunFlags and resolved into a RunSpec by Spec. Flags
// that are a RunSpec field verbatim parse straight into spec; the others wait
// for the run seed.
type RunFlags struct {
	spec RunSpec

	async          bool
	bufferSize     int
	stalenessAlpha float64
	alphaDefault   float64
	availability   string
	chaos          string
	resumeSweep    bool
}

// BindRunFlags declares the shared run-configuration flags on fs. sweep
// selects fedbench's variant, where one invocation is many runs: -resume is
// a switch (each run continues from its own subdirectory of -checkpoint-dir)
// instead of a path, and the codec and staleness defaults are left to the
// engine instead of spelled out. Which experiment honours which flag is
// tabulated in DESIGN.md §7.
func BindRunFlags(fs *flag.FlagSet, sweep bool) *RunFlags {
	f := &RunFlags{alphaDefault: 0.5}
	codecDefault := comm.CodecFloat64.String()
	if sweep {
		f.alphaDefault, codecDefault = 0, ""
	}
	d := &f.spec.Distrib
	fs.StringVar(&f.spec.Codec, "codec", codecDefault, "payload wire codec: float64raw (the default), float32, or int8")
	fs.BoolVar(&f.async, "async", false, "barrier-free rounds: each round flushes a buffer of the K earliest arrivals, staleness-weighted")
	fs.IntVar(&f.bufferSize, "buffer-size", 0, "async buffer size K; 0 defaults to half the fleet (requires -async)")
	fs.Float64Var(&f.stalenessAlpha, "staleness-alpha", f.alphaDefault, "async staleness exponent α in 1/(1+s)^α; 0 keeps the engine default 0.5 (requires -async)")
	fs.StringVar(&f.availability, "availability", "", "seeded diurnal availability trace, e.g. period=24,min=0.5,max=0.9,seed=7; cohorts sample from online clients")
	fs.IntVar(&f.spec.CheckpointEvery, "checkpoint-every", 1, "checkpoint cadence in rounds (with -checkpoint-dir)")
	fs.StringVar(&f.spec.CheckpointDir, "checkpoint-dir", "", "write a durable run checkpoint into this directory every -checkpoint-every rounds (fedbench: each run gets its own subdirectory)")
	if sweep {
		fs.BoolVar(&f.resumeSweep, "resume", false, "continue interrupted runs from their newest valid checkpoint under -checkpoint-dir")
	} else {
		fs.StringVar(&f.spec.Resume, "resume", "", "resume from a checkpoint file, or from the newest valid checkpoint in a directory")
	}
	fs.StringVar(&f.chaos, "chaos", "", "deterministic fault plan for distributed runs, e.g. drop=0.1,crash=0.2 (client keys: drop, delay, dup, corrupt, sendfail, crash, maxdelay; tier keys with -shards: tierdrop, tierdelay, tierdup, tiercorrupt, tiersendfail, leafcrash)")
	fs.DurationVar(&d.ClientTimeout, "client-timeout", 0, "distributed straggler deadline per round; 0 is the default (fedpkd-sim waits forever, fedbench's failures experiment 1m; required >0 for lossy -chaos plans)")
	fs.IntVar(&d.MinQuorum, "min-quorum", 0, "abort a distributed round that aggregated fewer uploads; 0 disables")
	fs.IntVar(&d.Topology.Shards, "shards", 0, "aggregator-tree leaf count; >1 reduces distributed runs through a two-tier tree, 0/1 keeps the flat server")
	fs.DurationVar(&d.LeafTimeout, "leaf-timeout", 0, "root-side deadline per shard digest in tree mode; 0 is the default (fedpkd-sim waits forever, fedbench's treefaults experiment 1m; required >0 for lossy tier -chaos plans)")
	fs.IntVar(&d.ShardQuorum, "shard-quorum", 0, "abort a tree-mode round that merged fewer shard digests; 0 disables")
	return f
}

// Spec validates the parsed flags and resolves them into a RunSpec. seed is
// the run seed: the async arrival schedule, an unseeded availability trace
// and the fault plan all draw from it, so replays line up for free.
func (f *RunFlags) Spec(seed uint64) (RunSpec, error) {
	spec := f.spec
	var err error
	if _, err = parseCodec(spec.Codec); err != nil {
		return RunSpec{}, err
	}
	if f.async {
		spec.Async = &engine.AsyncOptions{
			BufferSize:     f.bufferSize,
			StalenessAlpha: f.stalenessAlpha,
			Schedule:       engine.ArrivalSchedule{Seed: seed},
		}
	} else if f.bufferSize != 0 || f.stalenessAlpha != f.alphaDefault {
		return RunSpec{}, fmt.Errorf("-buffer-size and -staleness-alpha require -async")
	}
	if spec.Availability, err = engine.ParseAvailability(f.availability, seed); err != nil {
		return RunSpec{}, err
	}
	if f.resumeSweep {
		if spec.CheckpointDir == "" {
			return RunSpec{}, fmt.Errorf("-resume requires -checkpoint-dir")
		}
		spec.Resume = spec.CheckpointDir
	}
	if spec.Distrib.Faults, err = faults.ParsePlan(f.chaos, seed); err != nil {
		return RunSpec{}, err
	}
	return spec, nil
}
