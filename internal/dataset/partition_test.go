package dataset

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fedpkd/internal/stats"
)

// coversExactlyOnce fails the test unless the union of parts is exactly
// [0, n) with no duplicates.
func coversExactlyOnce(t *testing.T, parts [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	count := 0
	for _, part := range parts {
		for _, i := range part {
			if i < 0 || i >= n {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != n {
		t.Fatalf("partition covers %d of %d samples", count, n)
	}
}

func TestPartitionIID(t *testing.T) {
	d := tinyDataset(103, 2, 5)
	parts := PartitionIID(stats.NewRNG(1), d, 4)
	coversExactlyOnce(t, parts, 103)
	for c, part := range parts {
		if len(part) < 25 || len(part) > 26 {
			t.Errorf("client %d has %d samples, want 25-26", c, len(part))
		}
	}
}

func TestPartitionDirichletCoversAndNonEmpty(t *testing.T) {
	d := tinyDataset(500, 2, 10)
	for _, alpha := range []float64{0.1, 0.5, 5} {
		parts := PartitionDirichlet(stats.NewRNG(2), d, 10, alpha)
		coversExactlyOnce(t, parts, 500)
		for c, part := range parts {
			if len(part) == 0 {
				t.Errorf("alpha=%v client %d is empty", alpha, c)
			}
		}
	}
}

// skew measures average total-variation distance between client label
// distributions and the global distribution.
func skew(d *Dataset, parts [][]int) float64 {
	global := d.Histogram()
	n := float64(d.Len())
	var total float64
	for _, part := range parts {
		h := make([]int, d.Classes)
		for _, i := range part {
			h[d.Labels[i]]++
		}
		var tv float64
		for class := range h {
			p := float64(h[class]) / float64(len(part))
			q := float64(global[class]) / n
			tv += math.Abs(p - q)
		}
		total += tv / 2
	}
	return total / float64(len(parts))
}

func TestDirichletSkewOrdering(t *testing.T) {
	d := tinyDataset(2000, 2, 10)
	low := skew(d, PartitionDirichlet(stats.NewRNG(3), d, 10, 0.1))
	high := skew(d, PartitionDirichlet(stats.NewRNG(3), d, 10, 10))
	if low <= high {
		t.Errorf("alpha=0.1 skew %v should exceed alpha=10 skew %v", low, high)
	}
}

func TestPartitionShards(t *testing.T) {
	d := tinyDataset(1000, 2, 10)
	cfg := ShardConfig{ShardSize: 10, ShardsPerClient: 8, ClassesPerClient: 3}
	parts, err := PartitionShards(stats.NewRNG(4), d, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, part := range parts {
		if len(part) != 80 {
			t.Errorf("client %d has %d samples, want 80", c, len(part))
		}
	}
	// No duplicates across clients.
	seen := make(map[int]bool)
	for _, part := range parts {
		for _, i := range part {
			if seen[i] {
				t.Fatalf("shard index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
}

func TestShardsClassConcentration(t *testing.T) {
	d := tinyDataset(2000, 2, 10)
	k3, err := PartitionShards(stats.NewRNG(5), d, 10, ShardConfig{ShardSize: 10, ShardsPerClient: 6, ClassesPerClient: 3})
	if err != nil {
		t.Fatal(err)
	}
	k5, err := PartitionShards(stats.NewRNG(5), d, 10, ShardConfig{ShardSize: 10, ShardsPerClient: 6, ClassesPerClient: 5})
	if err != nil {
		t.Fatal(err)
	}
	if skew(d, k3) <= skew(d, k5) {
		t.Errorf("k=3 skew %v should exceed k=5 skew %v", skew(d, k3), skew(d, k5))
	}
}

func TestShardsErrors(t *testing.T) {
	d := tinyDataset(100, 2, 10)
	if _, err := PartitionShards(stats.NewRNG(1), d, 10, ShardConfig{ShardSize: 20, ShardsPerClient: 40, ClassesPerClient: 3}); err == nil {
		t.Error("over-demand should error")
	}
	if _, err := PartitionShards(stats.NewRNG(1), d, 2, ShardConfig{ShardSize: 10, ShardsPerClient: 2, ClassesPerClient: 0}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := PartitionShards(stats.NewRNG(1), d, 2, ShardConfig{ShardSize: 0, ShardsPerClient: 2, ClassesPerClient: 2}); err == nil {
		t.Error("shard size 0 should error")
	}
}

func TestPartitionUnlabeledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("partitioning unlabeled data should panic")
		}
	}()
	PartitionIID(stats.NewRNG(1), tinyDataset(10, 2, 2).WithoutLabels(), 2)
}

func TestLocalTestSetsMatchDistribution(t *testing.T) {
	train := tinyDataset(300, 2, 3)
	test := tinyDataset(300, 2, 3)
	// Client 0 holds only class 0; client 1 holds the rest.
	var part0, part1 []int
	for i, y := range train.Labels {
		if y == 0 {
			part0 = append(part0, i)
		} else {
			part1 = append(part1, i)
		}
	}
	local := LocalTestSets(stats.NewRNG(6), test, [][]int{part0, part1}, train, 60)
	if local[0].Rows.Len() == 0 {
		t.Fatal("local test set 0 empty")
	}
	for _, y := range local[0].Rows.Labels {
		if y != 0 {
			t.Fatalf("client 0 local test contains class %d", y)
		}
	}
	h := local[1].Rows.Histogram()
	if h[0] != 0 {
		t.Errorf("client 1 local test contains class 0: %v", h)
	}
	if h[1] == 0 || h[2] == 0 {
		t.Errorf("client 1 local test missing classes: %v", h)
	}
}

// drawLocalTest is the draw LocalTestSets makes for one client, as it
// materialized it before counting: every pick in draw order, repeats
// included. It consumes rng exactly as LocalTestSets does.
func drawLocalTest(rng *stats.RNG, testByClass [][]int, part []int, train *Dataset, size int) []int {
	hist := make([]int, train.Classes)
	for _, idx := range part {
		hist[train.Labels[idx]]++
	}
	var pick []int
	for class, n := range hist {
		if n == 0 || len(testByClass[class]) == 0 {
			continue
		}
		want := max(int(float64(size)*float64(n)/float64(len(part))+0.5), 1)
		pool := testByClass[class]
		for i := 0; i < want; i++ {
			pick = append(pick, pool[rng.IntN(len(pool))])
		}
	}
	return pick
}

// TestLocalTestSetsCountTheDraw is the counted local test set's law, over
// generated seeds, sizes and partitions of every kind: each client's rows are
// the distinct rows its draw picked, in first-draw order and pairwise
// distinct, each count is how often the draw picked that row, and the counts
// sum to the number of draws — the same picks from the same RNG stream as the
// uncounted draw.
func TestLocalTestSetsCountTheDraw(t *testing.T) {
	repeats := 0
	for seed := uint64(1); seed <= 24; seed++ {
		rng := stats.NewRNG(seed)
		classes := 2 + rng.IntN(9)
		train := tinyDataset(100+rng.IntN(300), 3, classes)
		test := tinyDataset(classes+rng.IntN(200), 3, classes)
		clients := 1 + rng.IntN(8)
		size := 1 + rng.IntN(150)
		var parts [][]int
		switch seed % 3 {
		case 0:
			parts = PartitionIID(rng, train, clients)
		case 1:
			parts = PartitionDirichlet(rng, train, clients, []float64{0.1, 0.5, 5}[rng.IntN(3)])
		default:
			var err error
			parts, err = PartitionShards(rng, train, clients, ShardConfig{ShardSize: 5, ShardsPerClient: 2, ClassesPerClient: 1 + rng.IntN(classes)})
			if err != nil {
				t.Fatal(err)
			}
		}
		drawSeed := rng.Uint64()
		local := LocalTestSets(stats.NewRNG(drawSeed), test, parts, train, size)
		ref, byClass := stats.NewRNG(drawSeed), test.ClassIndices()
		for c, lt := range local {
			pick := drawLocalTest(ref, byClass, parts[c], train, size)
			var rows []int
			times := map[int]int{}
			for _, row := range pick {
				if times[row] == 0 {
					rows = append(rows, row)
				}
				times[row]++
			}
			if lt.Rows.Len() != len(rows) || len(lt.Counts) != len(rows) {
				t.Fatalf("seed %d client %d: %d rows and %d counts, want %d distinct rows of %d draws",
					seed, c, lt.Rows.Len(), len(lt.Counts), len(rows), len(pick))
			}
			sum := 0
			seen := map[string]bool{}
			for i, row := range rows {
				got := lt.Rows.X.Row(i)
				key := fmt.Sprint(got)
				if seen[key] {
					t.Fatalf("seed %d client %d: row %d repeats an earlier row", seed, c, i)
				}
				seen[key] = true
				if !slices.Equal(got, test.X.Row(row)) || lt.Rows.Labels[i] != test.Labels[row] {
					t.Fatalf("seed %d client %d: row %d is not test row %d, the draw's %d-th distinct pick", seed, c, i, row, i)
				}
				if lt.Counts[i] != times[row] {
					t.Fatalf("seed %d client %d: row %d counted %d times, drawn %d", seed, c, i, lt.Counts[i], times[row])
				}
				sum += lt.Counts[i]
			}
			if sum != len(pick) {
				t.Fatalf("seed %d client %d: counts sum to %d, the draw made %d picks", seed, c, sum, len(pick))
			}
			repeats += len(pick) - len(rows)
		}
	}
	if repeats == 0 {
		t.Fatal("no generated draw picked a row twice; the law was not exercised")
	}
}

// Property: every Dirichlet partition is a true partition for random sizes.
func TestPartitionDirichletProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		n := 50 + rng.IntN(200)
		clients := 2 + rng.IntN(8)
		d := tinyDataset(n, 2, 5)
		parts := PartitionDirichlet(rng, d, clients, 0.3)
		seen := make([]bool, n)
		count := 0
		for _, part := range parts {
			for _, i := range part {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
				count++
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
