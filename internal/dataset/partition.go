package dataset

import (
	"fmt"
	"sort"

	"fedpkd/internal/stats"
)

// PartitionIID splits row indices of a labeled dataset uniformly at random
// into numClients near-equal parts.
func PartitionIID(rng *stats.RNG, d *Dataset, numClients int) [][]int {
	mustPartitionArgs(d, numClients)
	perm := stats.Perm(rng, d.Len())
	parts := make([][]int, numClients)
	for i, idx := range perm {
		c := i % numClients
		parts[c] = append(parts[c], idx)
	}
	return parts
}

// PartitionDirichlet assigns samples to clients following a symmetric
// Dirichlet distribution per class (Hsu et al., 2019): for each class a
// proportion vector over clients is drawn from Dir(alpha) and the class's
// samples are split accordingly. Smaller alpha yields a more skewed,
// "more non-IID" partition. Every client is guaranteed at least one sample.
func PartitionDirichlet(rng *stats.RNG, d *Dataset, numClients int, alpha float64) [][]int {
	mustPartitionArgs(d, numClients)
	parts := make([][]int, numClients)
	for _, classIdx := range d.ClassIndices() {
		if len(classIdx) == 0 {
			continue
		}
		stats.Shuffle(rng, classIdx)
		props := stats.Dirichlet(rng, alpha, numClients)
		// Convert proportions to cumulative cut points over the class.
		start := 0
		var cum float64
		for c := 0; c < numClients; c++ {
			cum += props[c]
			end := int(cum*float64(len(classIdx)) + 0.5)
			if c == numClients-1 {
				end = len(classIdx)
			}
			if end > len(classIdx) {
				end = len(classIdx)
			}
			if end > start {
				parts[c] = append(parts[c], classIdx[start:end]...)
			}
			start = end
		}
	}
	fixEmptyParts(rng, parts)
	return parts
}

// ShardConfig parameterizes the shards partition method (McMahan et al.;
// the paper uses shard size 20, 40 shards per client, from k classes).
type ShardConfig struct {
	// ShardSize is the number of samples per shard.
	ShardSize int
	// ShardsPerClient is how many shards each client receives.
	ShardsPerClient int
	// ClassesPerClient (k) is how many distinct classes a client's shards
	// are drawn from. Smaller k is more non-IID.
	ClassesPerClient int
}

// PartitionShards implements the shards method: the dataset is sorted by
// label and cut into shards of ShardSize samples; each client receives
// ShardsPerClient shards drawn from ClassesPerClient distinct classes.
// Clients' class assignments cycle through all classes so the union covers
// the label space.
func PartitionShards(rng *stats.RNG, d *Dataset, numClients int, cfg ShardConfig) ([][]int, error) {
	mustPartitionArgs(d, numClients)
	if cfg.ShardSize <= 0 || cfg.ShardsPerClient <= 0 {
		return nil, fmt.Errorf("dataset: invalid shard config %+v", cfg)
	}
	k := cfg.ClassesPerClient
	if k <= 0 || k > d.Classes {
		return nil, fmt.Errorf("dataset: ClassesPerClient %d out of range (1..%d)", k, d.Classes)
	}
	need := numClients * cfg.ShardsPerClient * cfg.ShardSize
	if need > d.Len() {
		return nil, fmt.Errorf("dataset: shards need %d samples, dataset has %d", need, d.Len())
	}

	// Build per-class shard pools.
	pools := make([][][]int, d.Classes)
	for class, classIdx := range d.ClassIndices() {
		stats.Shuffle(rng, classIdx)
		for start := 0; start+cfg.ShardSize <= len(classIdx); start += cfg.ShardSize {
			pools[class] = append(pools[class], classIdx[start:start+cfg.ShardSize])
		}
	}

	popShard := func(class int) []int {
		pool := pools[class]
		if len(pool) == 0 {
			return nil
		}
		shard := pool[len(pool)-1]
		pools[class] = pool[:len(pool)-1]
		return shard
	}
	// classesWithShards returns classes that still have inventory, sorted
	// for determinism.
	classesWithShards := func() []int {
		var cs []int
		for c, pool := range pools {
			if len(pool) > 0 {
				cs = append(cs, c)
			}
		}
		sort.Ints(cs)
		return cs
	}

	parts := make([][]int, numClients)
	nextClass := 0
	for c := 0; c < numClients; c++ {
		// Pick k distinct classes for this client, cycling through the label
		// space so the union of clients covers all classes.
		classes := make([]int, 0, k)
		for len(classes) < k {
			classes = append(classes, nextClass%d.Classes)
			nextClass++
		}
		for s := 0; s < cfg.ShardsPerClient; s++ {
			class := classes[s%len(classes)]
			shard := popShard(class)
			if shard == nil {
				// This class ran dry; fall back to any class with inventory.
				avail := classesWithShards()
				if len(avail) == 0 {
					return nil, fmt.Errorf("dataset: ran out of shards at client %d", c)
				}
				shard = popShard(avail[rng.IntN(len(avail))])
			}
			parts[c] = append(parts[c], shard...)
		}
	}
	return parts, nil
}

// LocalTest is one client's local test set as LocalTestSets draws it: each
// distinct row of the global test set that the draw picked, once, in the
// order of its first draw, and Counts[i] the number of times Rows' row i was
// drawn. C_acc weights every row by its count, so it scores the drawn
// multiset while evaluating each row once.
type LocalTest struct {
	Rows   *Dataset
	Counts []int
}

// LocalTestSets builds one test set per client whose label distribution
// matches that client's training distribution — the paper's personalized
// C_acc metric evaluates client models on exactly such sets. Each local test
// set draws up to size samples with replacement, per class from the global
// test pool proportionally to the client's label histogram; a row drawn
// again adds to its count instead of being copied again.
func LocalTestSets(rng *stats.RNG, globalTest *Dataset, clientParts [][]int, train *Dataset, size int) []*LocalTest {
	testByClass := globalTest.ClassIndices()
	out := make([]*LocalTest, len(clientParts))
	for c, part := range clientParts {
		hist := make([]int, train.Classes)
		total := 0
		for _, idx := range part {
			hist[train.Labels[idx]]++
			total++
		}
		var pick, counts []int
		at := make(map[int]int) // global test row → its index in pick
		if total > 0 {
			for class, n := range hist {
				if n == 0 || len(testByClass[class]) == 0 {
					continue
				}
				want := int(float64(size)*float64(n)/float64(total) + 0.5)
				if want == 0 {
					want = 1
				}
				pool := testByClass[class]
				for i := 0; i < want; i++ {
					row := pool[rng.IntN(len(pool))]
					if k, ok := at[row]; ok {
						counts[k]++
						continue
					}
					at[row] = len(pick)
					pick = append(pick, row)
					counts = append(counts, 1)
				}
			}
		}
		out[c] = &LocalTest{Rows: globalTest.Subset(pick), Counts: counts}
	}
	return out
}

func mustPartitionArgs(d *Dataset, numClients int) {
	if numClients <= 0 {
		panic(fmt.Sprintf("dataset: numClients must be positive, got %d", numClients))
	}
	if d.Labels == nil {
		panic("dataset: cannot partition an unlabeled dataset")
	}
}

// fixEmptyParts steals single samples from the largest parts so no client
// ends up empty (possible under extreme Dirichlet skew).
func fixEmptyParts(rng *stats.RNG, parts [][]int) {
	for c := range parts {
		if len(parts[c]) > 0 {
			continue
		}
		// Find the largest part and move one sample over.
		largest := 0
		for i := range parts {
			if len(parts[i]) > len(parts[largest]) {
				largest = i
			}
		}
		if len(parts[largest]) <= 1 {
			continue // nothing sensible to steal
		}
		j := rng.IntN(len(parts[largest]))
		parts[c] = append(parts[c], parts[largest][j])
		parts[largest] = append(parts[largest][:j], parts[largest][j+1:]...)
	}
}
