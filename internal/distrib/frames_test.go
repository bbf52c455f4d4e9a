package distrib

import (
	"reflect"
	"testing"

	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
)

// TestReleasedFramesKeepRunsExact races the transport's buffer handoffs
// through whole runs: the receiver pumps reading ahead into free-list
// buffers, the collect loop and the ladders releasing them after Decode, the
// fan-out sending one borrowed envelope to every member, and the bus copying
// each send. Nine in ten uploads (and, in a tree, digests) are duplicated,
// so those buffers are sent twice and one copy is dropped unread. A buffer
// released while still in use would hand a round a stranger's bytes: a CRC
// failure the strict reference run turns into an error, or a different
// history. Each duplicated run must equal its clean twin, field for field.
func TestReleasedFramesKeepRunsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   Mode
		shards int
	}{
		{"bus", ModeBus, 0},
		{"tcp", ModeTCP, 0},
		{"bus-tree", ModeBus, 2},
		{"tcp-tree", ModeTCP, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(plan *faults.Plan) (*fl.History, faults.Snapshot) {
				opts := Options{Mode: tc.mode, Faults: plan, Topology: Topology{Shards: tc.shards}}
				hist, fs, err := runFaults(t, chaosFedAvg(t, chaosEnv(t)), 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				return hist, fs
			}
			plan := &faults.Plan{Seed: 5, DupProb: 0.9}
			if tc.shards > 0 {
				plan.TierDupProb = 0.9
			}
			dup, fs := run(plan)
			if fs.Dups == 0 {
				t.Fatal("the plan duplicated nothing")
			}
			if clean, _ := run(nil); !reflect.DeepEqual(dup, clean) {
				t.Fatalf("duplicated traffic changed the run:\n%+v\nvs\n%+v", dup, clean)
			}
		})
	}
}
