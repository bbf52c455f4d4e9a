package expt

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/distrib"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl/engine"
)

// TestRunFlags is the argv → RunSpec table both CLIs share. sweep rows parse
// as fedbench does, the others as fedpkd-sim; "both" rows must come out the
// same either way.
func TestRunFlags(t *testing.T) {
	const seed = 7
	avail := &engine.AvailabilityTrace{Seed: seed, Period: 4, MinDuty: 0.5, MaxDuty: 0.9}
	type variant int
	const (
		both variant = iota
		sweep
		single
	)
	cases := []struct {
		name    string
		who     variant
		args    string
		want    func(RunSpec) RunSpec // applied to the variant's default spec
		wantErr string
	}{
		{name: "defaults", who: both, want: func(s RunSpec) RunSpec { return s }},
		{name: "default codec by name", who: both, args: "-codec float64raw",
			want: func(s RunSpec) RunSpec { s.Codec = "float64raw"; return s }},
		{name: "default codec left empty", who: both, args: "-codec=",
			want: func(s RunSpec) RunSpec { s.Codec = ""; return s }},
		{name: "unknown codec", who: both, args: "-codec int4", wantErr: "unknown codec"},

		{name: "buffer size without async", who: both, args: "-buffer-size 2", wantErr: "-buffer-size and -staleness-alpha require -async"},
		{name: "staleness without async", who: both, args: "-staleness-alpha 0.7", wantErr: "-buffer-size and -staleness-alpha require -async"},
		{name: "async, K left to the fleet", who: both, args: "-async -buffer-size 0 -staleness-alpha 0.7",
			want: func(s RunSpec) RunSpec {
				s.Async = &engine.AsyncOptions{StalenessAlpha: 0.7, Schedule: engine.ArrivalSchedule{Seed: seed}}
				return s
			}},

		{name: "availability takes the run seed", who: both, args: "-availability period=4,min=0.5,max=0.9",
			want: func(s RunSpec) RunSpec { s.Availability = avail; return s }},
		{name: "bad availability", who: both, args: "-availability period=soon", wantErr: "availability period"},
		{name: "bad chaos", who: both, args: "-chaos gremlins=1", wantErr: "gremlins"},

		{name: "one shard is flat", who: both, args: "-shards 1",
			want: func(s RunSpec) RunSpec { s.Distrib.Topology.Shards = 1; return s }},
		{name: "transport side", who: both,
			args: "-chaos crash=0.2 -client-timeout 2s -min-quorum 1 -shards 3 -leaf-timeout 5s -shard-quorum 2",
			want: func(s RunSpec) RunSpec {
				s.Distrib = distrib.Options{
					Faults:        &faults.Plan{Seed: seed, CrashProb: 0.2},
					ClientTimeout: 2 * time.Second, MinQuorum: 1,
					LeafTimeout: 5 * time.Second, ShardQuorum: 2,
					Topology: distrib.Topology{Shards: 3},
				}
				return s
			}},

		{name: "checkpoint policy", who: both, args: "-checkpoint-dir d -checkpoint-every 3",
			want: func(s RunSpec) RunSpec { s.CheckpointDir, s.CheckpointEvery = "d", 3; return s }},
		{name: "sweep resume without a root", who: sweep, args: "-resume", wantErr: "-resume requires -checkpoint-dir"},
		{name: "sweep resume", who: sweep, args: "-checkpoint-dir d -resume",
			want: func(s RunSpec) RunSpec { s.CheckpointDir, s.Resume = "d", "d"; return s }},
		{name: "single-run resume is a path of its own", who: single, args: "-resume old/ckpt-000002.fpkc",
			want: func(s RunSpec) RunSpec { s.Resume = "old/ckpt-000002.fpkc"; return s }},
	}
	defaults := map[bool]RunSpec{
		true:  {CheckpointEvery: 1},
		false: {Codec: "float64raw", CheckpointEvery: 1},
	}
	for _, tc := range cases {
		for _, asSweep := range []bool{true, false} {
			if tc.who == sweep && !asSweep || tc.who == single && asSweep {
				continue
			}
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := BindRunFlags(fs, asSweep)
			if err := fs.Parse(strings.Fields(tc.args)); err != nil {
				t.Fatalf("%s (sweep=%v): parse: %v", tc.name, asSweep, err)
			}
			got, err := f.Spec(seed)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s (sweep=%v): error %v, want one naming %q", tc.name, asSweep, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s (sweep=%v): %v", tc.name, asSweep, err)
				continue
			}
			if want := tc.want(defaults[asSweep]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (sweep=%v):\n got %+v\nwant %+v", tc.name, asSweep, got, want)
			}
			// Both spellings of the default codec, and neither, mean float64raw.
			if strings.HasPrefix(tc.name, "default") {
				if codec, err := parseCodec(got.Codec); err != nil || codec != comm.CodecFloat64 {
					t.Errorf("%s (sweep=%v): codec %q resolves to %v, %v", tc.name, asSweep, got.Codec, codec, err)
				}
			}
			if got.Distrib.Topology.Shards == 1 && got.Distrib.Topology.Enabled() {
				t.Errorf("%s: -shards 1 enabled a tree", tc.name)
			}
		}
	}
}

// TestApplyDerivesBufferSize: a RunSpec that leaves K to the code gets half
// the fleet, rounded up, once an algorithm's fleet size is known.
func TestApplyDerivesBufferSize(t *testing.T) {
	for n, want := range map[int]int{2: 1, 3: 2, 8: 4} {
		sc := microScale
		sc.NumClients = n
		env, err := NewEnv(TaskC10, specSetting, sc, specSeed)
		if err != nil {
			t.Fatal(err)
		}
		algo, err := BuildAlgorithmOpts(AlgoFedAvg, env, sc, specSeed, false, AlgoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (RunSpec{Async: &engine.AsyncOptions{}}).Apply(algo); err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(algo)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Async().BufferSize; got != want {
			t.Errorf("%d clients: K = %d, want %d", n, got, want)
		}
	}
}
