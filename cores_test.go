package fedpkd

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// TestGoldenBytesAcrossCoreCounts reruns the configurations of
// TestGoldenHistories, TestGoldenAsyncHistories and TestGoldenFedPKDInt8 at
// GOMAXPROCS 1 and 4 against the committed goldens: a run's bytes must not
// depend on how many cores it had. At 1 the server's lane stays inline and
// one client trains at a time; at 4 fl.ForEachClient runs one worker per
// client of the three-client golden fleet and the lane attaches.
func TestGoldenBytesAcrossCoreCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	builds := goldenAlgos(goldenEnv(t))
	type golden struct {
		algo   string
		spec   *RunSpec
		rounds int
		file   string
	}
	var cases []golden
	for name := range builds {
		cases = append(cases, golden{name, nil, goldenRounds, name + ".json"})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].file < cases[j].file })
	for _, name := range []string{"fedpkd", "fedavg"} {
		cases = append(cases, golden{name, &RunSpec{Async: asyncGoldenOpts()}, asyncGoldenFlushes, name + "_async.json"})
	}
	cases = append(cases, golden{"fedpkd", &RunSpec{Codec: "int8"}, goldenRounds, "fedpkd_int8.json"})

	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("procs%d/%s", procs, c.file), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				_, got := runGolden(t, builds[c.algo], c.spec, c.rounds)
				want, err := os.ReadFile(filepath.Join("testdata", "goldens", c.file))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("at GOMAXPROCS %d the history diverged from %s:\n got: %s\nwant: %s", procs, c.file, got, want)
				}
			})
		}
	}
}
